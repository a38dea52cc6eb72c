package xq

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// Index is the per-document acceleration structure behind the
// evaluator's fast paths: label→nodes lookup, O(1) ancestor/descendant
// tests via pre/post-order intervals, and the distinct-root-path table
// that turns document-rooted path evaluation from a full tree walk into
// a handful of DFA runs. An Index is built once per document, depends
// only on the (immutable) document, and is logically immutable after
// NewIndex returns; it holds no query state and is therefore safe to
// share across evaluators and goroutines (the artifact store relies on
// this). The only interior mutability is the mutex-guarded DFA cache
// below, which memoizes pure functions of (expression, document
// alphabet) and never changes an observable result.
type Index struct {
	doc *xmldoc.Document
	// pre/post are pre-/post-order visit clocks indexed by node ID.
	// A properly contains B iff pre[A] < pre[B] && post[B] < post[A].
	// pre also encodes document order: sorting nodes by pre reproduces
	// exactly the order a full document walk would visit them in.
	pre, post []int
	// byLabel files element/attribute nodes (document order) under the
	// document's label symbol — a slice lookup instead of a string-map
	// probe on the hot path.
	byLabel [][]*xmldoc.Node
	// alphabet is the document's sorted label set, captured once so
	// evaluators built over a shared index skip the per-session copy.
	alphabet []string
	// paths is the distinct-root-path table in first-seen (document)
	// order; pathLookup interns a path as {parent path ID, label
	// symbol}, replacing the strings.Join root keys of the string-keyed
	// design.
	paths      []rootPath
	pathLookup map[pathEdge]int32
	// kids lists the child paths of every path, sorted by label, in CSR
	// form: path p's children (p = -1 for the empty path) are
	// kids[kidOff[p+1]:kidOff[p+2]]. Sibling labels are distinct, so the
	// order is also the column order of any DFA over a sorted alphabet
	// (see pathwalk.go).
	kidOff []int32
	kids   []int32
	// alphaRow maps a document label symbol to its position in alphabet:
	// the DFA symbol row of every automaton over the index's alphabet.
	alphaRow []int32
	// cols is the structure-of-arrays document view the compiled
	// executor walks, built in the same walk as the clocks above. DFAs
	// step over it by integer label symbol through the evaluator's
	// per-DFA symbol rows (dfaSymRow), with no string lookup.
	cols *xmldoc.Columns

	// dfaMu guards the shared compiled-DFA cache. Every evaluator
	// adopting this index keeps its own L1 map (no lock on its hot path)
	// and falls through here on a miss, so an expression is compiled
	// once per document rather than once per evaluator/session.
	dfaMu sync.RWMutex
	dfas  map[string]*pathre.DFA

	// realizedOnce/realized lazily cache the DFA accepting exactly the
	// document's realized root label paths (see RealizedPathsDFA) — a
	// pure function of the path table and alphabet.
	realizedOnce sync.Once
	realized     *pathre.DFA
	// sortedOnce/sorted lazily cache the root path IDs in joined-key
	// order (see SortedRootPaths).
	sortedOnce sync.Once
	sorted     []int32
}

// dfaCacheMax bounds the shared DFA cache; adversarial query streams
// aside, real sessions revisit a few dozen expressions.
const dfaCacheMax = 1 << 12

// dfaFor returns the compiled DFA for expression p (whose render is
// key), compiling against the document alphabet on first use. Safe for
// concurrent use.
func (ix *Index) dfaFor(key string, p pathre.Expr) *pathre.DFA {
	ix.dfaMu.RLock()
	d, ok := ix.dfas[key]
	ix.dfaMu.RUnlock()
	if ok {
		return d
	}
	d = pathre.Compile(p, ix.alphabet)
	ix.dfaMu.Lock()
	if prev, ok := ix.dfas[key]; ok {
		// Another evaluator compiled it concurrently; keep one canonical
		// DFA so per-DFA symbol rows and plan pointers stay shareable.
		d = prev
	} else {
		if ix.dfas == nil {
			ix.dfas = map[string]*pathre.DFA{}
		}
		if len(ix.dfas) < dfaCacheMax {
			ix.dfas[key] = d
		}
	}
	ix.dfaMu.Unlock()
	return d
}

// rootPath is one distinct root label path with its nodes in document
// order.
type rootPath struct {
	labels []string
	nodes  []*xmldoc.Node
	parent int32 // -1 for a path of one label
	sym    int32 // document symbol of the last label
}

// pathEdge extends an interned root path (-1 for the empty path at the
// document node) by one label symbol.
type pathEdge struct {
	parent int32
	sym    int32
}

// NewIndex builds the index for doc in one document walk.
func NewIndex(doc *xmldoc.Document) *Index {
	ix := &Index{
		doc:        doc,
		pre:        make([]int, doc.NumNodes()),
		post:       make([]int, doc.NumNodes()),
		byLabel:    make([][]*xmldoc.Node, doc.NumSyms()),
		alphabet:   doc.Alphabet(),
		pathLookup: map[pathEdge]int32{},
	}
	cb := xmldoc.NewColumnsBuilder(doc)
	clock := 0
	var walk func(n *xmldoc.Node, pathID int32)
	walk = func(n *xmldoc.Node, pathID int32) {
		cb.Enter(n)
		ix.pre[n.ID] = clock
		clock++
		if sym := n.LabelSym(); sym != xmldoc.NoSym {
			if int(sym) >= len(ix.byLabel) {
				// A label interned after the walk began cannot occur, but
				// grow defensively so a stale NumSyms never panics.
				grown := make([][]*xmldoc.Node, sym+1)
				copy(grown, ix.byLabel)
				ix.byLabel = grown
			}
			ix.byLabel[sym] = append(ix.byLabel[sym], n)
			edge := pathEdge{parent: pathID, sym: sym}
			id, ok := ix.pathLookup[edge]
			if !ok {
				id = int32(len(ix.paths))
				labels := make([]string, 0, len(ix.RootPathLabels(pathID))+1)
				labels = append(labels, ix.RootPathLabels(pathID)...)
				labels = append(labels, n.Label())
				ix.paths = append(ix.paths, rootPath{labels: labels, parent: pathID, sym: sym})
				ix.pathLookup[edge] = id
			}
			ix.paths[id].nodes = append(ix.paths[id].nodes, n)
			pathID = id
		}
		for _, a := range n.Attrs {
			walk(a, pathID)
		}
		for _, c := range n.Children {
			walk(c, pathID)
		}
		ix.post[n.ID] = clock
		clock++
		cb.Leave(n)
	}
	walk(doc.DocNode(), -1)
	ix.cols = cb.Finish()
	ix.linkRootPaths()
	return ix
}

// linkRootPaths builds the label-sorted child lists of the root path
// trie and the symbol row of the index's own alphabet.
func (ix *Index) linkRootPaths() {
	ix.kidOff = make([]int32, len(ix.paths)+2)
	for _, p := range ix.paths {
		ix.kidOff[p.parent+2]++
	}
	for i := 1; i < len(ix.kidOff); i++ {
		ix.kidOff[i] += ix.kidOff[i-1]
	}
	ix.kids = make([]int32, len(ix.paths))
	fill := slices.Clone(ix.kidOff)
	for id, p := range ix.paths {
		ix.kids[fill[p.parent+1]] = int32(id)
		fill[p.parent+1]++
	}
	for p := 0; p+1 < len(ix.kidOff); p++ {
		slices.SortFunc(ix.kids[ix.kidOff[p]:ix.kidOff[p+1]], func(a, b int32) int {
			return strings.Compare(ix.lastLabel(a), ix.lastLabel(b))
		})
	}
	ix.alphaRow = make([]int32, ix.doc.NumSyms())
	for sym := range ix.alphaRow {
		ix.alphaRow[sym] = -1
		if i, ok := slices.BinarySearch(ix.alphabet, ix.doc.LabelOfSym(int32(sym))); ok {
			ix.alphaRow[sym] = int32(i)
		}
	}
}

// lastLabel returns the last label of root path id.
func (ix *Index) lastLabel(id int32) string {
	l := ix.paths[id].labels
	return l[len(l)-1]
}

// rootKids returns the child paths of path id (-1 for the empty path),
// sorted by label.
func (ix *Index) rootKids(id int32) []int32 {
	return ix.kids[ix.kidOff[id+1]:ix.kidOff[id+2]]
}

// RootPathLabels returns the label sequence of root path id (nil for
// the empty path). Callers must not mutate the returned slice.
func (ix *Index) RootPathLabels(id int32) []string {
	if id < 0 {
		return nil
	}
	return ix.paths[id].labels
}

// Doc returns the indexed document.
func (ix *Index) Doc() *xmldoc.Document { return ix.doc }

// Alphabet returns the document's sorted label set, captured at build
// time. Callers must not mutate the returned slice.
func (ix *Index) Alphabet() []string { return ix.alphabet }

// Nodes returns the element/attribute nodes with the given label in
// document order. Callers must not mutate the returned slice.
func (ix *Index) Nodes(label string) []*xmldoc.Node {
	sym, ok := ix.doc.SymOf(label)
	if !ok {
		return nil
	}
	return ix.byLabel[sym]
}

// NodesSym is Nodes by label symbol.
func (ix *Index) NodesSym(sym int32) []*xmldoc.Node {
	if sym < 0 || int(sym) >= len(ix.byLabel) {
		return nil
	}
	return ix.byLabel[sym]
}

// The root path table is an integer trie: path IDs are dense from 0,
// and a path extends its parent by one label symbol. -1 stands for the
// empty path at the document node.

// RootPathChild returns the ID of root path parent (-1 for the empty
// path) extended by the label with document symbol sym, or -1 when the
// document has no such path.
func (ix *Index) RootPathChild(parent, sym int32) int32 {
	if id, ok := ix.pathLookup[pathEdge{parent: parent, sym: sym}]; ok {
		return id
	}
	return -1
}

// RootPathNodes returns the nodes at root path id in document order
// (nil for the empty path). Callers must not mutate the returned slice.
func (ix *Index) RootPathNodes(id int32) []*xmldoc.Node {
	if id < 0 {
		return nil
	}
	n := ix.paths[id].nodes
	return n[:len(n):len(n)]
}

// SortedRootPaths returns every root path ID ordered by the path's
// "\x00"-joined label key, computed once. Labels never contain a NUL
// byte, so comparing label sequences label by label gives exactly the
// joined-key order without building the keys. Callers must not mutate
// the returned slice. Safe for concurrent use.
func (ix *Index) SortedRootPaths() []int32 {
	ix.sortedOnce.Do(func() {
		ix.sorted = make([]int32, len(ix.paths))
		for i := range ix.sorted {
			ix.sorted[i] = int32(i)
		}
		slices.SortFunc(ix.sorted, func(a, b int32) int {
			return slices.Compare(ix.paths[a].labels, ix.paths[b].labels)
		})
	})
	return ix.sorted
}

// Columns returns the structure-of-arrays view of the indexed
// document, built in the same walk as the clocks. Callers must treat it
// as read-only.
func (ix *Index) Columns() *xmldoc.Columns { return ix.cols }

// RealizedPathsDFA returns the DFA accepting exactly the document's
// realized root label paths, built lazily at most once. Learning
// sessions no longer build it: TrimDFA walks the root-path trie
// instead, and d.Intersect(RealizedPathsDFA()) is the walk's test
// oracle. Safe for concurrent use.
func (ix *Index) RealizedPathsDFA() *pathre.DFA {
	ix.realizedOnce.Do(func() {
		sorted := ix.SortedRootPaths()
		words := make([][]string, len(sorted))
		for i, id := range sorted {
			words[i] = ix.paths[id].labels
		}
		ix.realized = pathre.FromStrings(words, ix.alphabet)
	})
	return ix.realized
}

// Ancestor reports whether anc is a proper ancestor of n, in O(1) for
// nodes of the indexed document (falling back to the pointer walk for
// foreign nodes, so it is always equivalent to anc.IsAncestorOf(n)).
func (ix *Index) Ancestor(anc, n *xmldoc.Node) bool {
	if anc == nil || n == nil {
		return false
	}
	if anc.Document() != ix.doc || n.Document() != ix.doc ||
		anc.ID >= len(ix.pre) || n.ID >= len(ix.pre) {
		return anc.IsAncestorOf(n)
	}
	return ix.pre[anc.ID] < ix.pre[n.ID] && ix.post[n.ID] < ix.post[anc.ID]
}

// docOrderLess reports whether a precedes b in document (walk) order.
func (ix *Index) docOrderLess(a, b *xmldoc.Node) bool {
	return ix.pre[a.ID] < ix.pre[b.ID]
}
