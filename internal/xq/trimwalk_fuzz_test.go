package xq

import (
	"slices"
	"testing"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// fuzzDFA decodes spec into a complete DFA over alphabet: the first two
// bytes pick the state count (1–8) and the start state, then each state
// takes one acceptance byte and one target byte per symbol, cycling
// through spec.
func fuzzDFA(alphabet []string, spec []byte) *pathre.DFA {
	n := 1 + int(spec[0])%8
	d := pathre.NewDFA(alphabet, n)
	d.Start = int(spec[1]) % n
	i := 2
	next := func() int {
		b := spec[i%len(spec)]
		i++
		return int(b)
	}
	for q := 0; q < n; q++ {
		d.Accept[q] = next()%3 == 0
		for s := range d.Alphabet {
			d.Trans[q][s] = next() % n
		}
	}
	return d
}

// FuzzTrimWalk: on any document and any complete DFA over its alphabet,
// the root-path trie walk agrees with the automaton constructions it
// replaces — TrimDFA is d.Intersect(RealizedPathsDFA()) state for
// state, and AcceptedRootPaths is the per-path Accepts loop in
// SortedRootPaths order, also for a DFA over half the alphabet plus a
// label the document lacks.
func FuzzTrimWalk(f *testing.F) {
	for _, seed := range []struct {
		doc  string
		spec string
	}{
		{`<r><a><b/><c/></a><a><b x="1"/></a><d><a><b/></a></d></r>`, "\x03\x00\x01\x02\x03\x01\x00\x02"},
		{`<site><regions><europe><item id="1"><name>n</name></item></europe><asia><item/></asia></regions></site>`, "\x07\x01\x09\x02\x05\x00\x03\x04\x06\x01"},
		{`<a><a><a><a/></a></a></a>`, "\x01\x00\x00"},
		{`<r>text<x a="1"/>more<x><y/></x></r>`, "\x05\x04\x03\x00\x02\x01"},
	} {
		f.Add(seed.doc, []byte(seed.spec))
	}
	f.Fuzz(func(t *testing.T, src string, spec []byte) {
		if len(src) > 4096 || len(spec) < 2 {
			return
		}
		doc, err := xmldoc.ParseString(src)
		if err != nil {
			return
		}
		ix := NewIndex(doc)
		if len(ix.Alphabet()) == 0 {
			return
		}
		d := fuzzDFA(ix.Alphabet(), spec)
		got, want := ix.TrimDFA(d), d.Intersect(ix.RealizedPathsDFA())
		if got.Start != want.Start || !slices.Equal(got.Accept, want.Accept) || !slices.EqualFunc(got.Trans, want.Trans, slices.Equal) {
			t.Fatalf("TrimDFA differs from Intersect on %q:\n%s\nwant\n%s", src, got.Dot(), want.Dot())
		}
		half := append(slices.Clone(ix.Alphabet()[:len(ix.Alphabet())/2]), "no-such-label")
		for _, d := range []*pathre.DFA{d, fuzzDFA(half, spec)} {
			var want []int32
			for _, p := range ix.SortedRootPaths() {
				if d.Accepts(ix.RootPathLabels(p)) {
					want = append(want, p)
				}
			}
			if got := ix.AcceptedRootPaths(nil, d); !slices.Equal(got, want) {
				t.Fatalf("AcceptedRootPaths on %q = %v, Accepts loop %v", src, got, want)
			}
		}
	})
}
