package core

import (
	"repro/internal/angluin"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// The engine's root-path table is the index's integer path trie
// (xq.Index.RootPathChild): a learner word's path group — the instance
// nodes whose root label path spells the word — is its parent word's
// group extended by one edge. The learner's words live in an
// angluin.Words trie over the session's SymbolTable, so the only
// per-engine state is docSym, which maps a SymbolTable ID to the
// document's label symbol; groups are then memoized per word ID.

// Path group values besides the index's root path IDs (>= 0).
const (
	grpUnset int32 = -3 // not resolved yet
	grpNone  int32 = -2 // the document has no such path
	grpEps   int32 = -1 // the empty word: the document node, no nodes
)

// docSyms maps every alphabet label's SymbolTable ID to its document
// label symbol; IDs of symbols the document lacks map to -1, which no
// root-path edge carries.
func docSyms(tab *angluin.SymbolTable, doc *xmldoc.Document, alphabet []string) []int32 {
	var out []int32
	for _, a := range alphabet {
		id := tab.ID(a)
		for int(id) >= len(out) {
			out = append(out, -1)
		}
		if s, ok := doc.SymOf(a); ok {
			out[id] = s
		}
	}
	return out
}

// pathGroups resolves the word IDs of one Words trie to root-path
// groups of the engine's index, memoized per ID.
type pathGroups struct {
	ix     *xq.Index
	docSym []int32
	words  *angluin.Words
	memo   []int32
}

// of returns word id's path group.
func (g *pathGroups) of(id int32) int32 {
	if id == 0 {
		return grpEps
	}
	for int(id) >= len(g.memo) {
		g.memo = append(g.memo, grpUnset)
	}
	if v := g.memo[id]; v != grpUnset {
		return v
	}
	// Symbols interned after docSym was built are not document labels.
	v := grpNone
	if p := g.of(g.words.Parent(id)); p != grpNone {
		if s := g.words.Sym(id); int(s) < len(g.docSym) {
			if c := g.ix.RootPathChild(p, g.docSym[s]); c >= 0 {
				v = c
			}
		}
	}
	g.memo[id] = v
	return v
}

// nodes returns the instance nodes at word id's root path, in document
// order (nil when there are none).
func (g *pathGroups) nodes(id int32) []*xmldoc.Node {
	return g.ix.RootPathNodes(g.of(id))
}
