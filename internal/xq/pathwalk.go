package xq

import (
	"encoding/binary"
	"slices"

	"repro/internal/pathre"
)

// Walks of the root-path trie that carry a DFA state. The trie holds
// one node per distinct root label path of the document — a few hundred
// even for large instances, since the count depends on the schema, not
// the size — and each node is reached from its parent by one label
// symbol. A walk steps the DFA once per trie edge through a symbol row
// (document label symbol → DFA column, -1 where the DFA's alphabet lacks
// the label), so matching a DFA against every root path costs one
// integer transition per path instead of one string-keyed Accepts run
// per path, and a subtree whose label the DFA does not know is skipped
// whole.

// symRow returns d's symbol row over the indexed document: row[sym] is
// the column of d's alphabet holding the label with document symbol
// sym, or -1. Every DFA over the index's own alphabet — the automata the
// engine learns and the evaluator compiles — shares the row built with
// the index, so the lookup allocates nothing.
func (ix *Index) symRow(d *pathre.DFA) []int32 {
	if slices.Equal(d.Alphabet, ix.alphabet) {
		return ix.alphaRow
	}
	row := make([]int32, len(ix.alphaRow))
	for sym := range row {
		row[sym] = int32(d.SymIndex(ix.doc.LabelOfSym(int32(sym))))
	}
	return row
}

// AcceptedRootPaths appends the root paths whose label sequence d
// accepts to dst, in SortedRootPaths order, and returns the extended
// slice: path p is accepted iff d.Accepts(RootPathLabels(p)).
func (ix *Index) AcceptedRootPaths(dst []int32, d *pathre.DFA) []int32 {
	return ix.acceptedPaths(dst, d, ix.symRow(d), -1, d.Start)
}

// acceptedPaths is the pre-order walk below path id, reached in state q.
// Children are visited in label order, which is the joined-key order of
// SortedRootPaths.
func (ix *Index) acceptedPaths(dst []int32, d *pathre.DFA, row []int32, id int32, q int) []int32 {
	for _, c := range ix.rootKids(id) {
		col := row[ix.paths[c].sym]
		if col < 0 {
			continue
		}
		nq := d.Trans[q][col]
		if d.Accept[nq] {
			dst = append(dst, c)
		}
		dst = ix.acceptedPaths(dst, d, row, c, nq)
	}
	return dst
}

// TrimDFA returns the minimal DFA for L(d) ∩ R, where R is the set of
// the document's realized root label paths, over d's alphabet. It is
// d.Intersect(ix.RealizedPathsDFA()) — the same automaton, state
// numbering included — computed without the product automaton and
// without partition refinement:
//
//   - One walk of the trie carries d's state and hash-conses the
//     result bottom-up. A trie node's residual language is fixed by its
//     acceptance (a realized path that d accepts) and its children's
//     residual languages, so a class key of (acceptance, sorted (column,
//     class) pairs of the non-empty children) identifies every residual
//     language exactly once: the acyclic case of minimization (Revuz
//     1992). Class 0 is the empty language, which becomes the sink.
//   - States are numbered breadth-first from the start, symbols in
//     alphabet order. Intersect creates its product states in that BFS
//     order and Moore's refinement numbers blocks by first occurrence in
//     state order; the first state of each block is met exactly where
//     this BFS first meets its class, so the numbering agrees.
//
// d's alphabet must be sorted, as NewDFA makes every alphabet: the
// children's label order is then their column order.
func (ix *Index) TrimDFA(d *pathre.DFA) *pathre.DFA {
	t := trimWalk{ix: ix, d: d, row: ix.symRow(d), ids: map[string]int32{}}
	t.off = append(t.off, 0, 0) // class 0: not accepting, no children
	t.accept = append(t.accept, false)
	return t.build(t.class(-1, d.Start))
}

// trimWalk is the state of one TrimDFA call. Classes are indexed by ID:
// class k accepts iff accept[k], and its non-empty children are the
// (column, class) pairs flattened into edges[off[k]:off[k+1]].
type trimWalk struct {
	ix     *Index
	d      *pathre.DFA
	row    []int32
	accept []bool
	off    []int32
	edges  []int32
	ids    map[string]int32
	// pend stacks the child pairs of the nodes on the walk's path; key
	// is the reused class-key buffer.
	pend []int32
	key  []byte
}

// class returns the class of the residual language at path id (-1 for
// the empty path), reached in d's state q.
func (t *trimWalk) class(id int32, q int) int32 {
	mark := len(t.pend)
	for _, c := range t.ix.rootKids(id) {
		col := t.row[t.ix.paths[c].sym]
		if col < 0 {
			continue
		}
		if k := t.class(c, t.d.Trans[q][col]); k != 0 {
			t.pend = append(t.pend, col, k)
		}
	}
	// The empty path is the document node, never a realized path.
	acc := id >= 0 && t.d.Accept[q]
	pairs := t.pend[mark:]
	if !acc && len(pairs) == 0 {
		return 0
	}
	t.key = t.key[:0]
	if acc {
		t.key = append(t.key, 1)
	} else {
		t.key = append(t.key, 0)
	}
	for _, v := range pairs {
		t.key = binary.LittleEndian.AppendUint32(t.key, uint32(v))
	}
	k, ok := t.ids[string(t.key)]
	if !ok {
		k = int32(len(t.accept))
		t.ids[string(t.key)] = k
		t.accept = append(t.accept, acc)
		t.edges = append(t.edges, pairs...)
		t.off = append(t.off, int32(len(t.edges)))
	}
	t.pend = t.pend[:mark]
	return k
}

// build numbers the classes reachable from root breadth-first, symbols
// in alphabet order, and emits the complete DFA.
func (t *trimWalk) build(root int32) *pathre.DFA {
	cols := len(t.d.Alphabet)
	num := make([]int32, len(t.accept))
	for i := range num {
		num[i] = -1
	}
	order := []int32{root}
	num[root] = 0
	// trans[i*cols+col] is the state order[i] reaches on column col.
	var trans []int32
	for i := 0; i < len(order); i++ {
		e := t.edges[t.off[order[i]]:t.off[order[i]+1]]
		for col := 0; col < cols; col++ {
			tgt := int32(0)
			if len(e) > 0 && int(e[0]) == col {
				tgt, e = e[1], e[2:]
			}
			if num[tgt] < 0 {
				num[tgt] = int32(len(order))
				order = append(order, tgt)
			}
			trans = append(trans, num[tgt])
		}
	}
	out := pathre.NewDFA(t.d.Alphabet, len(order))
	for i, k := range order {
		out.Accept[i] = t.accept[k]
		for col := range out.Trans[i] {
			out.Trans[i][col] = int(trans[i*cols+col])
		}
	}
	return out
}
