package angluin

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/pathre"
)

// TestTriePropertyAgainstStringJoinOracle drives the integer prefix
// trie with randomized alphabets and words, in both the dense and the
// packed-map child regimes, and checks every derived quantity against
// the string-join oracle the trie replaced: two words reach the same
// node iff their joined keys are equal, and each node's materialized
// word round-trips to exactly the oracle's string. Symbols are
// non-empty by construction — the trie distinguishes the empty word
// from a one-empty-symbol word, a split the joined-string oracle
// conflates, and the learner's alphabets are document labels, never "".
func TestTriePropertyAgainstStringJoinOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nsym := 1 + rng.Intn(denseAlphabetMax+40) // straddles the dense cutoff
		alphabet := make([]string, nsym)
		for i := range alphabet {
			alphabet[i] = "s" + strings.Repeat("x", rng.Intn(3)) + string(rune('A'+i%26)) + string(rune('0'+i/26%10)) + string(rune('a'+i/260))
		}
		var tr trie
		tr.init(NewSymbolTable(), alphabet)
		if wantDense := nsym <= denseAlphabetMax; tr.dense != wantDense {
			t.Fatalf("trial %d: dense = %v for %d symbols, want %v", trial, tr.dense, nsym, wantDense)
		}

		nodeOf := map[string]int32{"": 0}
		var keys []string
		walkIn := func(w []string) int32 {
			id := int32(0)
			for _, s := range w {
				sym := tr.resolve(s)
				c := tr.child(id, sym)
				if c < 0 {
					c = tr.add(id, sym)
				}
				id = c
			}
			return id
		}
		for i := 0; i < 120; i++ {
			n := rng.Intn(8)
			w := make([]string, n)
			for j := range w {
				w[j] = alphabet[rng.Intn(nsym)]
			}
			key := strings.Join(w, "\x00")
			id := walkIn(w)
			if prev, seen := nodeOf[key]; seen {
				if prev != id {
					t.Fatalf("trial %d: key %q reached node %d, previously %d", trial, key, id, prev)
				}
			} else {
				nodeOf[key] = id
				keys = append(keys, key)
			}
			if got := strings.Join(tr.appendWord(nil, id), "\x00"); got != key {
				t.Fatalf("trial %d: word(%d) joins to %q, want %q", trial, id, got, key)
			}
			if int(tr.depth[id]) != n {
				t.Fatalf("trial %d: depth(%d) = %d, want %d", trial, id, tr.depth[id], n)
			}
		}
		// Distinct keys must occupy distinct nodes (the trie is a perfect
		// intern).
		ids := map[int32]string{}
		for _, key := range keys {
			id := nodeOf[key]
			if other, dup := ids[id]; dup {
				t.Fatalf("trial %d: node %d shared by keys %q and %q", trial, id, key, other)
			}
			ids[id] = key
		}
	}
}

// TestTrieSharedSymbolTable: two tries over one symbol table agree on
// IDs, and a trie resolves symbols another trie interned first (the
// bundle-sharing case: fragments of one session, sessions of one spec).
func TestTrieSharedSymbolTable(t *testing.T) {
	tab := NewSymbolTable("a", "b")
	var t1, t2 trie
	t1.init(tab, []string{"a", "b"})
	t2.init(tab, []string{"b", "c"})
	if t1.resolve("c") != t2.resolve("c") {
		t.Fatalf("shared table resolved c to different IDs")
	}
	if tab.Len() != 3 {
		t.Fatalf("table has %d symbols, want 3 (a, b, c)", tab.Len())
	}
	if tab.Sym(t1.resolve("a")) != "a" {
		t.Fatalf("Sym(ID(a)) != a")
	}
}

// idRecorder is an ID teacher over a caller-owned Words. The seam hands
// it IDs only, so it reads every word back through the Words, checks
// the ID against the string-join oracle (one ID per joined word, one
// joined word per ID, across every Learn sharing the Words), re-interns
// the word from inside the callback, and interns words the learner has
// not reached yet — every one-symbol extension of the asked word — so
// the learner must pick up nodes its owner added mid-learn.
type idRecorder struct {
	perfectTeacher
	t      *testing.T
	words  *Words
	idOf   map[string]int32 // joined word -> ID, shared across runs
	wordOf map[int32]string // ID -> joined word, shared across runs
	log    []string         // joined words in ask order, this run
}

func (r *idRecorder) MemberID(id int32) (bool, error) {
	w := r.words.AppendWord(nil, id)
	joined := strings.Join(w, "\x00")
	if prev, ok := r.idOf[joined]; ok && prev != id {
		r.t.Errorf("word %q delivered as ID %d, earlier as %d", joined, id, prev)
	}
	if prev, ok := r.wordOf[id]; ok && prev != joined {
		r.t.Errorf("ID %d delivered for %q, earlier for %q", id, joined, prev)
	}
	r.idOf[joined], r.wordOf[id] = id, joined
	if got := r.words.Intern(w); got != id {
		r.t.Errorf("Intern(%q) mid-learn = %d, learner passed %d", joined, got, id)
	}
	for _, a := range alphabet {
		r.words.Intern(append(slices.Clip(w), a))
	}
	r.log = append(r.log, joined)
	return r.Member(w)
}

// idBatchRecorder adds the batch half of the ID seam.
type idBatchRecorder struct{ *idRecorder }

func (r idBatchRecorder) MemberBatchID(ids []int32) ([]bool, error) {
	out := make([]bool, len(ids))
	for i, id := range ids {
		v, err := r.MemberID(id)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// TestWordIDsAgainstStringJoinOracle learns one target three times on
// one Words — serially through MemberID, through the MemberBatchID
// seam, and with LearnKV — and checks the IDs against the string-join
// oracle: distinct joined words get distinct IDs, a word keeps its ID
// across the runs, Intern from outside Learn returns the learner's ID,
// and the serial and batched dialogues are identical, question for
// question. A Words over another alphabet is rejected.
func TestWordIDsAgainstStringJoinOracle(t *testing.T) {
	target := pathre.Compile(pathre.MustParsePath("/site/regions//item"), alphabet)
	words := NewWords(nil, alphabet)
	defer words.Release()
	idOf, wordOf := map[string]int32{}, map[int32]string{}
	rec := func() *idRecorder {
		return &idRecorder{perfectTeacher: perfectTeacher{target}, t: t, words: words, idOf: idOf, wordOf: wordOf}
	}

	serial := rec()
	dSerial, stSerial, err := Learn(alphabet, serial, WithWords(words))
	if err != nil {
		t.Fatalf("serial Learn: %v", err)
	}
	batched := rec()
	dBatched, stBatched, err := Learn(alphabet, idBatchRecorder{batched}, WithWords(words))
	if err != nil {
		t.Fatalf("batched Learn: %v", err)
	}
	if stSerial.BatchRounds != 0 || stBatched.BatchRounds == 0 {
		t.Fatalf("batch rounds serial=%d batched=%d: the runs did not take their seams", stSerial.BatchRounds, stBatched.BatchRounds)
	}
	kv := rec()
	if _, _, err := LearnKV(alphabet, kv, WithWords(words)); err != nil {
		t.Fatalf("LearnKV: %v", err)
	}
	if len(kv.log) == 0 {
		t.Fatal("LearnKV asked nothing through MemberID")
	}

	if !slices.Equal(serial.log, batched.log) {
		t.Fatalf("dialogues differ: serial asked %d words, batched %d", len(serial.log), len(batched.log))
	}
	if w, diff := dSerial.Distinguish(dBatched); diff {
		t.Fatalf("serial and batched learned different languages, witness %v", w)
	}
	if stSerial.MembershipQueries != stBatched.MembershipQueries ||
		stSerial.EquivalenceQueries != stBatched.EquivalenceQueries {
		t.Fatalf("dialogue diverged: serial %d MQ / %d EQ, batched %d MQ / %d EQ",
			stSerial.MembershipQueries, stSerial.EquivalenceQueries,
			stBatched.MembershipQueries, stBatched.EquivalenceQueries)
	}
	for joined, id := range idOf {
		var w []string
		if joined != "" {
			w = strings.Split(joined, "\x00")
		}
		if got := words.Intern(w); got != id {
			t.Fatalf("Intern(%q) after Learn = %d, learner passed %d", joined, got, id)
		}
	}

	if _, _, err := Learn(alphabet[1:], rec(), WithWords(words)); err == nil {
		t.Fatal("Learn accepted a Words built over another alphabet")
	}
}

// TestPooledScratchPinsNoStrings: after a learner hands its scratch back
// — a long serial run, a batched run, then a shorter serial run over
// the same scratch — the word buffer references no string anywhere up
// to its capacity (a wave is word IDs, and a plain batch teacher's
// words are built fresh per wave), and a released Words keeps neither
// symbol strings nor its symbol table.
func TestPooledScratchPinsNoStrings(t *testing.T) {
	sc := new(scratch)
	check := func(stage string) {
		t.Helper()
		for i, s := range sc.wb[:cap(sc.wb)] {
			if s != "" {
				t.Fatalf("%s: wb[%d] = %q", stage, i, s)
			}
		}
	}
	long := pathre.Compile(pathre.MustParsePath("/site/regions/(europe|africa)/item/name"), alphabet)
	short := pathre.Compile(pathre.MustParsePath("/site"), alphabet)
	if _, _, err := learnWith(sc, alphabet, &perfectTeacher{long}); err != nil {
		t.Fatal(err)
	}
	if cap(sc.wb) == 0 {
		t.Fatal("serial run wrote no words through wb")
	}
	check("serial")
	if _, _, err := learnWith(sc, alphabet, &batchTeacher{perfectTeacher: perfectTeacher{long}}); err != nil {
		t.Fatal(err)
	}
	if cap(sc.wvWids) == 0 {
		t.Fatal("batched run collected no wave")
	}
	check("batched")
	if _, _, err := learnWith(sc, alphabet, &perfectTeacher{short}); err != nil {
		t.Fatal(err)
	}
	check("short serial")

	words := NewWords(nil, alphabet)
	if _, _, err := Learn(alphabet, &perfectTeacher{long}, WithWords(words)); err != nil {
		t.Fatal(err)
	}
	tr := words.tr
	words.Release()
	for i, s := range tr.symStr[:cap(tr.symStr)] {
		if s != "" {
			t.Fatalf("released Words: symStr[%d] = %q", i, s)
		}
	}
	if tr.tab != nil {
		t.Fatal("released Words still references its symbol table")
	}
}
