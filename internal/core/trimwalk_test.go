package core_test

import (
	"context"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/pathre"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmp"
	"repro/internal/xq"
)

// learnedPath is one path DFA a fragment learner returned, before
// trimming, with the index its session evaluated over.
type learnedPath struct {
	scenario string
	d        *pathre.DFA
	ix       *xq.Index
}

// learnedPaths runs every registered scenario as the golden sessions do
// and collects the untrimmed path DFAs of all their fragments.
func learnedPaths(t *testing.T) []learnedPath {
	t.Helper()
	var out []learnedPath
	for _, s := range append(append(xmark.Scenarios(), xmp.Scenarios()...), ucr.Scenarios()...) {
		p := scenario.Prepare(s, teacher.BestCase)
		eng := p.Session.Engine()
		core.ObserveLearnedPaths(eng, func(d *pathre.DFA) {
			out = append(out, learnedPath{scenario: s.ID, d: d, ix: core.EvalIndex(eng)})
		})
		if _, err := p.Learn(context.Background()); err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
	}
	if len(out) == 0 {
		t.Fatal("no fragment learned a path")
	}
	return out
}

// randomDFA draws a complete DFA with n states over alphabet. Half of
// the transitions lead to the last state, so the languages range from
// empty to dense instead of all looking alike.
func randomDFA(rng *rand.Rand, alphabet []string, n int) *pathre.DFA {
	d := pathre.NewDFA(alphabet, n)
	d.Start = rng.Intn(n)
	for q := 0; q < n; q++ {
		d.Accept[q] = rng.Intn(3) == 0
		for s := range d.Alphabet {
			if rng.Intn(2) == 0 {
				d.Trans[q][s] = n - 1
			} else {
				d.Trans[q][s] = rng.Intn(n)
			}
		}
	}
	return d
}

// walkCase is one (DFA, index) pair the walk is checked on.
type walkCase struct {
	name string
	d    *pathre.DFA
	ix   *xq.Index
}

// walkCases pairs every golden-session path DFA with its session's index
// and with every other covered index over the same alphabet (the 8x
// XMark instance among them), and adds seeded random complete DFAs over
// each covered document's alphabet.
func walkCases(t *testing.T) []walkCase {
	t.Helper()
	var indexes []*xq.Index
	var names []string
	docs := rootPathDocs(t)
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		indexes = append(indexes, xq.NewIndex(docs[name]))
	}
	var cases []walkCase
	for _, lp := range learnedPaths(t) {
		cases = append(cases, walkCase{name: lp.scenario, d: lp.d, ix: lp.ix})
		for j, ix := range indexes {
			if slices.Equal(ix.Alphabet(), lp.d.Alphabet) {
				cases = append(cases, walkCase{name: lp.scenario + "@" + names[j], d: lp.d, ix: ix})
			}
		}
	}
	rng := rand.New(rand.NewSource(16))
	for j, ix := range indexes {
		for k := 0; k < 40; k++ {
			d := randomDFA(rng, ix.Alphabet(), 1+rng.Intn(8))
			cases = append(cases, walkCase{name: "random@" + names[j], d: d, ix: ix})
		}
	}
	return cases
}

// sameDFA fails unless got and want are the same automaton, state for
// state.
func sameDFA(t *testing.T, name string, got, want *pathre.DFA) {
	t.Helper()
	if !slices.Equal(got.Alphabet, want.Alphabet) {
		t.Fatalf("%s: alphabets differ", name)
	}
	if got.Start != want.Start || !slices.Equal(got.Accept, want.Accept) || len(got.Trans) != len(want.Trans) {
		t.Fatalf("%s: start %d accept %v, want start %d accept %v", name, got.Start, got.Accept, want.Start, want.Accept)
	}
	for q := range want.Trans {
		if !slices.Equal(got.Trans[q], want.Trans[q]) {
			t.Fatalf("%s: state %d transitions %v, want %v", name, q, got.Trans[q], want.Trans[q])
		}
	}
}

// TestTrimWalkMatchesIntersect pins the trie-walk trim to the product
// construction it replaced: for every golden-session path DFA and for
// seeded random complete DFAs, on every registered scenario document
// and the 8x XMark instance, Index.TrimDFA is d.Intersect(
// RealizedPathsDFA()) state for state — start, acceptance and every
// transition — so FromDFA renders both identically.
func TestTrimWalkMatchesIntersect(t *testing.T) {
	cases := walkCases(t)
	nontrivial := 0
	for _, c := range cases {
		want := c.d.Intersect(c.ix.RealizedPathsDFA())
		sameDFA(t, c.name, c.ix.TrimDFA(c.d), want)
		if want.NumStates() > 2 {
			nontrivial++
		}
	}
	// Most random DFAs meet the realized paths in the empty language or
	// a single path; the check is only as good as its larger results.
	if nontrivial < len(cases)/4 {
		t.Fatalf("only %d of %d cases trim to more than two states", nontrivial, len(cases))
	}
	t.Logf("%d cases, %d trimming to more than two states", len(cases), nontrivial)
}

// TestAcceptedRootPathsMatchAccepts pins the trie walk's accepted-path
// scan to the per-path Accepts loop it replaced, in the same order, on
// the same cases plus DFAs over alphabets that are not the document's
// (a subset of it with a foreign label), which take a symbol row of
// their own.
func TestAcceptedRootPathsMatchAccepts(t *testing.T) {
	cases := walkCases(t)
	rng := rand.New(rand.NewSource(61))
	for _, c := range cases[len(cases)-40:] {
		alpha := append(slices.Clone(c.ix.Alphabet()[:len(c.ix.Alphabet())/2]), "no-such-label")
		cases = append(cases, walkCase{name: "foreign@" + c.name, d: randomDFA(rng, alpha, 1+rng.Intn(6)), ix: c.ix})
	}
	for _, c := range cases {
		var want []int32
		for _, g := range c.ix.SortedRootPaths() {
			if c.d.Accepts(c.ix.RootPathLabels(g)) {
				want = append(want, g)
			}
		}
		if got := c.ix.AcceptedRootPaths(nil, c.d); !slices.Equal(got, want) {
			t.Fatalf("%s: walk accepted paths %v, Accepts loop %v", c.name, got, want)
		}
	}
}
