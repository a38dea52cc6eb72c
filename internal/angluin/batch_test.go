package angluin

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/pathre"
)

// batchTeacher wraps a perfectTeacher behind the batch seam and lets
// tests pervert the transport: process order inside a round trip is
// shuffled deterministically, answers land at their query index
// regardless. It counts round trips so tests can assert the learner
// actually used the seam.
type batchTeacher struct {
	perfectTeacher
	rounds  int
	queries int
	// shuffle processes each set in a scrambled internal order. The
	// answer slice is still indexed by query — this is exactly the
	// order-independence the protocol (and the xlint rule) demands.
	shuffle bool
	// short makes every round trip drop its last answer to exercise the
	// length check.
	short bool
}

func (t *batchTeacher) MemberBatch(words [][]string) ([]bool, error) {
	t.rounds++
	t.queries += len(words)
	out := make([]bool, len(words))
	order := make([]int, len(words))
	for i := range order {
		order[i] = i
	}
	if t.shuffle {
		// Deterministic scramble: visit indexes by a coprime stride so
		// every processing order differs from emission order once the
		// set has three or more members.
		stride := 1
		for _, s := range []int{7, 5, 3, 2} {
			if len(order) > s && len(order)%s != 0 {
				stride = s
				break
			}
		}
		for i := range order {
			order[i] = (i * stride) % len(order)
		}
	}
	for _, i := range order {
		v, err := t.Member(words[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	if t.short && len(out) > 0 {
		out = out[:len(out)-1]
	}
	return out, nil
}

// TestSerialAdapter: the adapter answers a set in index order through
// the wrapped single-query teacher, one Member call per word.
func TestSerialAdapter(t *testing.T) {
	target := pathre.Compile(pathre.MustParsePath("/site/regions/asia"), alphabet)
	ct := &countingTeacher{perfectTeacher{target}, map[string]int{}}
	a := SerialAdapter{T: ct}
	words := [][]string{
		{"site"},
		{"site", "regions"},
		{"site", "regions", "asia"},
	}
	ans, err := a.MemberBatch(words)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true}
	if len(ans) != len(want) {
		t.Fatalf("got %d answers, want %d", len(ans), len(want))
	}
	for i := range want {
		if ans[i] != want[i] {
			t.Errorf("answer[%d] = %v, want %v", i, ans[i], want[i])
		}
	}
	if got := len(ct.asked); got != len(words) {
		t.Errorf("wrapped teacher saw %d distinct words, want %d", got, len(words))
	}
}

func TestSerialAdapterPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	a := SerialAdapter{T: failingTeacher{err: boom}}
	if _, err := a.MemberBatch([][]string{{"site"}}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

type failingTeacher struct{ err error }

func (t failingTeacher) Member([]string) (bool, error) { return false, t.err }
func (t failingTeacher) Equivalent(*pathre.DFA) ([]string, bool, error) {
	return nil, false, t.err
}

// TestBatchAnswersOrderIndependent: a transport that processes each
// query set in a scrambled internal order produces the exact dialogue
// and hypothesis of the serial teacher, for both learners. This is the
// runtime half of the xlint determinism rule: answers are committed by
// index, so internal delivery order cannot matter.
func TestBatchAnswersOrderIndependent(t *testing.T) {
	learners := map[string]func([]string, Teacher, ...Option) (*pathre.DFA, Stats, error){
		"lstar": Learn,
		"kv":    LearnKV,
	}
	for _, path := range []string{
		"/site/regions/asia",
		"/site/regions/(europe|africa)/item",
		"/site//name",
	} {
		target := pathre.Compile(pathre.MustParsePath(path), alphabet)
		for name, learn := range learners {
			dSerial, stSerial, err := learn(alphabet, &perfectTeacher{target})
			if err != nil {
				t.Fatalf("%s serial %s: %v", name, path, err)
			}
			bt := &batchTeacher{perfectTeacher: perfectTeacher{target}, shuffle: true}
			dBatch, stBatch, err := learn(alphabet, bt)
			if err != nil {
				t.Fatalf("%s batched %s: %v", name, path, err)
			}
			// L* ships its table fills as query sets. KV's sift probes
			// are adaptive — each depends on the previous answer — so it
			// asks them one at a time and never uses the batch seam.
			if name == "kv" && bt.rounds != 0 {
				t.Fatalf("kv %s: %d batch rounds, want none", path, bt.rounds)
			}
			if name == "lstar" && bt.rounds == 0 {
				t.Fatalf("lstar %s: batch seam unused", path)
			}
			if w, diff := dSerial.Distinguish(dBatch); diff {
				t.Errorf("%s %s: shuffled batch learned a different language, witness %v",
					name, path, w)
			}
			// The dialogue counters must agree exactly; only the
			// transport counters may differ.
			a, b := stSerial, stBatch
			a.BatchRounds, a.BatchedQueries = 0, 0
			b.BatchRounds, b.BatchedQueries = 0, 0
			if a != b {
				t.Errorf("%s %s: dialogue diverged\nserial  %+v\nbatched %+v",
					name, path, stSerial, stBatch)
			}
		}
	}
}

// TestBatchShortAnswerRejected: a transport that loses answers is an
// error, not a silent misalignment.
func TestBatchShortAnswerRejected(t *testing.T) {
	target := pathre.Compile(pathre.MustParsePath("/site/regions/asia"), alphabet)
	bt := &batchTeacher{perfectTeacher: perfectTeacher{target}, short: true}
	_, _, err := Learn(alphabet, bt)
	if err == nil {
		t.Fatal("learner accepted a short answer vector")
	}
	if want := "answered"; !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want mention of %q", err, want)
	}
}

// TestBatchedStatsCountRounds sanity-checks the transport counters: one
// round per wave, every batched query counted.
func TestBatchedStatsCountRounds(t *testing.T) {
	target := pathre.Compile(pathre.MustParsePath("/site//name"), alphabet)
	bt := &batchTeacher{perfectTeacher: perfectTeacher{target}}
	_, stats, err := Learn(alphabet, bt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BatchRounds != bt.rounds || stats.BatchedQueries != bt.queries {
		t.Fatalf("stats rounds=%d queries=%d, teacher saw rounds=%d queries=%d",
			stats.BatchRounds, stats.BatchedQueries, bt.rounds, bt.queries)
	}
	if stats.BatchRounds == 0 {
		t.Fatal("batch seam unused")
	}
	if stats.BatchedQueries < stats.BatchRounds {
		t.Fatalf("%d queries over %d rounds", stats.BatchedQueries, stats.BatchRounds)
	}
}
