package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

// failAfter answers n questions and then fails every later one, as a
// teacher who walks away mid-session.
type failAfter struct {
	core.Teacher
	mu sync.Mutex
	n  int
}

var errWalkedAway = errors.New("teacher walked away")

func (f *failAfter) spend() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.n == 0 {
		return errWalkedAway
	}
	f.n--
	return nil
}

func (f *failAfter) Member(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, n *xmldoc.Node) (bool, error) {
	if err := f.spend(); err != nil {
		return false, err
	}
	return f.Teacher.Member(ctx, frag, pin, n)
}

func (f *failAfter) Equivalent(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) (*xmldoc.Node, bool, bool, error) {
	if err := f.spend(); err != nil {
		return nil, false, false, err
	}
	return f.Teacher.Equivalent(ctx, frag, pin, hyp)
}

// oneRound runs every job of d once and returns the result the metrics
// are computed from.
func oneRound(t *testing.T, d runner, clients int) *result {
	t.Helper()
	r := &result{chk: newChecker(), setup: []float64{1}}
	r.measured = measure(context.Background(), d, clients, newScheduler(1, d.jobs()), 0, nil, r.chk)
	if len(r.measured.samples) != d.jobs() || r.chk.attempted != d.jobs() {
		t.Fatalf("one round ran %d sessions, want %d", len(r.measured.samples), d.jobs())
	}
	return r
}

func TestTeacherErrorCountsAsFailed(t *testing.T) {
	w, err := newInproc(context.Background(), []*scenario.Scenario{xmark.ScenarioByID("Q9")}, nil, true, false, "stock instance")
	if err != nil {
		t.Fatal(err)
	}
	w.wrap = func(t core.Teacher) core.Teacher { return &failAfter{Teacher: t, n: 1} }
	r := oneRound(t, w, 1)
	if fl := r.chk.failureList(); len(fl) != 1 || !strings.Contains(fl[0], errWalkedAway.Error()) {
		t.Fatalf("failures %q, want the teacher's error", fl)
	}
	m := r.e2e(&r.measured)
	if m["failed_share"].Value != 1 || m["unverified_share"].Value != 0 || r.chk.failed() != 1 {
		t.Fatalf("failed_share %v unverified_share %v failed %d; want 1, 0, 1",
			m["failed_share"].Value, m["unverified_share"].Value, r.chk.failed())
	}
}

func TestUnverifiedCountsAsUnverifiedNotFailed(t *testing.T) {
	// XMark-Q8 learns a query that does not verify on the default-size
	// instance generated with seed 2.
	cfg := xmark.DefaultConfig()
	cfg.Seed = 2
	doc := xmark.Generate(cfg)
	s := *xmark.ScenarioByID("Q8")
	s.Doc = func() *xmldoc.Document { return doc }
	w, err := newInproc(context.Background(), []*scenario.Scenario{&s}, nil, false, false, "1x instance seed 2")
	if err != nil {
		t.Fatal(err)
	}
	r := oneRound(t, w, 1)
	m := r.e2e(&r.measured)
	if m["unverified_share"].Value != 1 || m["failed_share"].Value != 0 || r.chk.failed() != 0 {
		t.Fatalf("unverified_share %v failed_share %v failed %d; want 1, 0, 0",
			m["unverified_share"].Value, m["failed_share"].Value, r.chk.failed())
	}
	if got := r.chk.unverifiedList(); len(got) != 1 || !strings.Contains(got[0], "XMark-Q8 (1x instance seed 2)") {
		t.Fatalf("unverified list %q does not name the scenario and seed", got)
	}
}

func TestDaemonRejectionCountsAsFailed(t *testing.T) {
	// One learning slot and one queue place: of three sessions streaming
	// at once behind a slow teacher, the third is refused with 429.
	d, err := startDaemon(1, nil, []*scenario.Scenario{xmp.ScenarioByID("XMP-Q2")},
		server.Config{MaxLearning: 1, QueueDepth: 1, TeacherLatency: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if d.jobs() != 3 {
		t.Fatalf("XMP-Q2 gives %d daemon jobs, want registered + upload + fresh upload", d.jobs())
	}
	r := oneRound(t, d, 3)
	m := r.e2e(&r.measured)
	if rejected(r.measured.samples) != 1 || r.chk.failed() != 1 {
		t.Fatalf("rejected %d failed %d; want 1 and 1: %v", rejected(r.measured.samples), r.chk.failed(), r.chk.failureList())
	}
	if got := m["failed_share"].Value; got != 1.0/3 {
		t.Fatalf("failed_share %v, want 1/3", got)
	}
}

func TestDaemonErrorFrameCountsAsFailed(t *testing.T) {
	// Without its Condition Box entries XMark-Q1 cannot be learned: the
	// stream ends on an error frame.
	s := *xmark.ScenarioByID("Q1")
	s.Boxes = nil
	d, err := startDaemon(1, nil, []*scenario.Scenario{&s}, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	r := oneRound(t, d, 1)
	fl := r.chk.failureList()
	for _, f := range fl {
		if !strings.Contains(f, "error frame") {
			t.Fatalf("failure %q, want an error frame", f)
		}
	}
	if r.chk.failed() != d.jobs() {
		t.Fatalf("%d of %d sessions failed: %q", r.chk.failed(), d.jobs(), fl)
	}
	if m := r.e2e(&r.measured); m["failed_share"].Value != 1 || m["unverified_share"].Value != 0 {
		t.Fatalf("failed_share %v unverified_share %v; want 1 and 0", m["failed_share"].Value, m["unverified_share"].Value)
	}
}

func TestDaemonMixHasUploadsAndFreshContent(t *testing.T) {
	d, err := startDaemon(1, nil, registry(), server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	var reg, up, fresh int
	for _, j := range d.jobList {
		switch {
		case j.create == nil:
			fresh++
		case j.create.Spec != nil:
			up++
		default:
			reg++
		}
	}
	if reg != 38 || up == 0 || fresh == 0 || up+fresh >= reg {
		t.Fatalf("registered %d, stock uploads %d, fresh uploads %d: want 38 registered and a minority of uploads, some fresh", reg, up, fresh)
	}
}

// benchmarkFile is the subset of BENCHMARK.json the tests compare
// against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestEveryMetricPrintedWithUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	p := phase{wall: time.Second, samples: []sample{{ms: 1, firstMS: 0.5, questions: 3, verified: true}},
		layers: []*sessionLayers{{stats: &core.Stats{}, cache: xq.CacheStats{}}}}
	r := &result{chk: newChecker(), setup: []float64{0.5}, measured: p, untraced: &p}
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		o := options{workload: "suite", seed: 1, seconds: 1, trace: trace}
		printReport(&out, o, workloads["suite"], r)
		text := out.String()
		for _, e := range endToEnd {
			if !lineWith(text, e.name, e.unit) {
				t.Errorf("trace=%v: report lacks %s with unit %s", trace, e.name, e.unit)
			}
		}
		want := bf.EndToEnd
		if trace {
			want = bf.PerLayer
			for _, l := range perLayerMetrics {
				if !lineWith(text, l.name, l.unit) {
					t.Errorf("report lacks %s with unit %s", l.name, l.unit)
				}
			}
		}
		got := r.summary(trace).Metrics
		if len(got) != len(want) {
			t.Errorf("trace=%v: final line has %d metrics, BENCHMARK.json lists %d", trace, len(got), len(want))
		}
		for _, w := range want {
			if m, ok := got[w.Name]; !ok || m.Unit != w.Unit {
				t.Errorf("trace=%v: final line has %s = %+v, want unit %s", trace, w.Name, m, w.Unit)
			}
		}
	}
}

// lineWith reports whether some line of text names the metric followed
// by its unit.
func lineWith(text, name, unit string) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

func TestSchedulerOrderDependsOnSeedOnly(t *testing.T) {
	ctx := context.Background()
	far := time.Now().Add(time.Hour)
	draw := func(seed int64) []int {
		s := newScheduler(seed, 5)
		var out []int
		for i := 0; i < 15; i++ {
			j, _ := s.next(ctx, far)
			out = append(out, j)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different order: %v vs %v", a, b)
		}
	}
	for r := 0; r < 3; r++ {
		seen := map[int]bool{}
		for _, j := range a[r*5 : r*5+5] {
			seen[j] = true
		}
		if len(seen) != 5 {
			t.Fatalf("round %d is not a permutation: %v", r, a[r*5:r*5+5])
		}
	}
	// A phase whose deadline has passed still finishes its round.
	s := newScheduler(1, 5)
	s.begin(ctx)
	n := 0
	for {
		if _, ok := s.next(ctx, time.Time{}); !ok {
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("expired phase ran %d jobs, want the whole round of 5", n)
	}
}
