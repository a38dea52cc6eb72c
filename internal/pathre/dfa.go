package pathre

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// DFA is a complete deterministic finite automaton over a fixed label
// alphabet. Transitions are total: every state has an outgoing edge for
// every symbol (a rejecting sink is materialized as needed).
type DFA struct {
	// Alphabet is the sorted symbol set.
	Alphabet []string
	// Start is the initial state index.
	Start int
	// Accept[q] reports whether state q is accepting.
	Accept []bool
	// Trans[q][i] is the successor of state q on Alphabet[i].
	Trans [][]int

	symIndex map[string]int
}

// NewDFA constructs a DFA with the given alphabet and state count; all
// transitions initially self-loop on state 0. Callers fill Trans/Accept.
func NewDFA(alphabet []string, numStates int) *DFA {
	a := append([]string(nil), alphabet...)
	sort.Strings(a)
	d := &DFA{Alphabet: a, Accept: make([]bool, numStates), Trans: make([][]int, numStates)}
	for i := range d.Trans {
		d.Trans[i] = make([]int, len(a))
	}
	d.buildIndex()
	return d
}

func (d *DFA) buildIndex() {
	d.symIndex = make(map[string]int, len(d.Alphabet))
	for i, s := range d.Alphabet {
		d.symIndex[s] = i
	}
}

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return len(d.Accept) }

// SymIndex returns the index of symbol s, or -1 if not in the alphabet.
func (d *DFA) SymIndex(s string) int {
	if d.symIndex == nil {
		d.buildIndex()
	}
	if i, ok := d.symIndex[s]; ok {
		return i
	}
	return -1
}

// Step returns the successor of q on symbol s; -1 if s is outside the
// alphabet (which the caller should treat as rejection).
func (d *DFA) Step(q int, s string) int {
	i := d.SymIndex(s)
	if i < 0 {
		return -1
	}
	return d.Trans[q][i]
}

// Run returns the state reached from Start on the input, or -1 if an
// input symbol is outside the alphabet.
func (d *DFA) Run(input []string) int {
	q := d.Start
	for _, s := range input {
		q = d.Step(q, s)
		if q < 0 {
			return -1
		}
	}
	return q
}

// Accepts reports whether the DFA accepts the label sequence.
func (d *DFA) Accepts(input []string) bool {
	q := d.Run(input)
	return q >= 0 && d.Accept[q]
}

// IsEmpty reports whether the accepted language is empty.
func (d *DFA) IsEmpty() bool {
	_, ok := d.ShortestAccepted()
	return !ok
}

// ShortestAccepted returns a shortest accepted string (BFS), if any.
func (d *DFA) ShortestAccepted() ([]string, bool) {
	type pred struct {
		state int
		sym   int
	}
	prev := make([]pred, d.NumStates())
	seen := make([]bool, d.NumStates())
	queue := []int{d.Start}
	seen[d.Start] = true
	prev[d.Start] = pred{-1, -1}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		if d.Accept[q] {
			var rev []string
			for cur := q; prev[cur].state >= 0; cur = prev[cur].state {
				rev = append(rev, d.Alphabet[prev[cur].sym])
			}
			out := make([]string, len(rev))
			for i := range rev {
				out[i] = rev[len(rev)-1-i]
			}
			return out, true
		}
		for i, nx := range d.Trans[q] {
			if !seen[nx] {
				seen[nx] = true
				prev[nx] = pred{q, i}
				queue = append(queue, nx)
			}
		}
	}
	return nil, false
}

// Minimize returns the minimal DFA for the same language (Moore's
// partition refinement, adequate for learner-sized automata), with
// unreachable states removed. States are numbered by first occurrence
// of their block in state order.
func (d *DFA) Minimize() *DFA {
	reach := d.reachable()
	// Map old -> compact reachable index.
	idx := make([]int, d.NumStates())
	var states []int
	for q := 0; q < d.NumStates(); q++ {
		if reach[q] {
			idx[q] = len(states)
			states = append(states, q)
		} else {
			idx[q] = -1
		}
	}
	n := len(states)
	// Initial partition: accepting vs not.
	part := make([]int, n)
	for i, q := range states {
		if d.Accept[q] {
			part[i] = 1
		}
	}
	numBlocks := 2
	buf := make([]byte, 0, 4*(len(d.Alphabet)+1))
	for {
		// Signature: (block, successor blocks), each a fixed-width
		// 4-byte word, so equal signatures are equal byte strings. Block
		// numbers follow first occurrence in state order, so refinement
		// is deterministic.
		blockOf := map[string]int{}
		next := make([]int, n)
		for i, q := range states {
			buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(part[i]))
			for _, nx := range d.Trans[q] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(part[idx[nx]]))
			}
			b, ok := blockOf[string(buf)]
			if !ok {
				b = len(blockOf)
				blockOf[string(buf)] = b
			}
			next[i] = b
		}
		if len(blockOf) == numBlocks {
			part = next
			break
		}
		numBlocks = len(blockOf)
		part = next
	}
	out := NewDFA(d.Alphabet, numBlocks)
	seenBlock := make([]bool, numBlocks)
	for i, q := range states {
		b := part[i]
		if seenBlock[b] {
			continue
		}
		seenBlock[b] = true
		out.Accept[b] = d.Accept[q]
		for s, nx := range d.Trans[q] {
			out.Trans[b][s] = part[idx[nx]]
		}
	}
	out.Start = part[idx[d.Start]]
	return out
}

func (d *DFA) reachable() []bool {
	seen := make([]bool, d.NumStates())
	stack := []int{d.Start}
	seen[d.Start] = true
	for len(stack) > 0 {
		q := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nx := range d.Trans[q] {
			if !seen[nx] {
				seen[nx] = true
				stack = append(stack, nx)
			}
		}
	}
	return seen
}

// mustSameAlphabet panics unless both automata share an identical
// alphabet. Every DFA in a learning session is built over the one
// alphabet of its source document, so a mismatch is a programming error
// (mixing automata from different sessions), not a recoverable input
// condition — this is one of the repository's few allowed invariant
// panics.
func mustSameAlphabet(d, o *DFA, op string) {
	same := len(d.Alphabet) == len(o.Alphabet)
	for i := 0; same && i < len(d.Alphabet); i++ {
		same = d.Alphabet[i] == o.Alphabet[i]
	}
	if !same {
		panic("pathre: " + op + " requires identical alphabets")
	}
}

// Distinguish searches for a shortest string on which d and o disagree.
// Both automata must share the same alphabet. It returns (witness, true)
// if the languages differ, or (nil, false) if they are equal.
func (d *DFA) Distinguish(o *DFA) ([]string, bool) {
	mustSameAlphabet(d, o, "Distinguish")
	type pair struct{ a, b int }
	type entry struct {
		p    pair
		prev int
		sym  int
	}
	start := pair{d.Start, o.Start}
	seen := map[pair]bool{start: true}
	entries := []entry{{p: start, prev: -1, sym: -1}}
	head := 0
	for head < len(entries) {
		e := entries[head]
		if d.Accept[e.p.a] != o.Accept[e.p.b] {
			var rev []string
			for cur := head; entries[cur].prev >= 0; cur = entries[cur].prev {
				rev = append(rev, d.Alphabet[entries[cur].sym])
			}
			out := make([]string, len(rev))
			for i := range rev {
				out[i] = rev[len(rev)-1-i]
			}
			return out, true
		}
		for s := range d.Alphabet {
			np := pair{d.Trans[e.p.a][s], o.Trans[e.p.b][s]}
			if !seen[np] {
				seen[np] = true
				entries = append(entries, entry{p: np, prev: head, sym: s})
			}
		}
		head++
	}
	return nil, false
}

// Equal reports whether both automata accept the same language.
func (d *DFA) Equal(o *DFA) bool {
	_, diff := d.Distinguish(o)
	return !diff
}

// EnumerateAccepted returns up to limit accepted strings of length at
// most maxLen, in order of increasing length (BFS). Useful for tests
// and for teacher diagnostics.
func (d *DFA) EnumerateAccepted(maxLen, limit int) [][]string {
	var out [][]string
	type item struct {
		q    int
		path []string
	}
	queue := []item{{d.Start, nil}}
	for len(queue) > 0 && len(out) < limit {
		it := queue[0]
		queue = queue[1:]
		if d.Accept[it.q] {
			out = append(out, it.path)
			if len(out) >= limit {
				break
			}
		}
		if len(it.path) >= maxLen {
			continue
		}
		for s, nx := range d.Trans[it.q] {
			np := make([]string, len(it.path)+1)
			copy(np, it.path)
			np[len(it.path)] = d.Alphabet[s]
			queue = append(queue, item{nx, np})
		}
	}
	return out
}

// Complement returns the DFA accepting Σ* \ L(d) (over d's alphabet).
func (d *DFA) Complement() *DFA {
	out := NewDFA(d.Alphabet, d.NumStates())
	out.Start = d.Start
	for q := 0; q < d.NumStates(); q++ {
		out.Accept[q] = !d.Accept[q]
		copy(out.Trans[q], d.Trans[q])
	}
	return out.Minimize()
}

// product builds the reachable product automaton with the given
// acceptance combiner. Both automata must share the alphabet.
func (d *DFA) product(o *DFA, accept func(a, b bool) bool) *DFA {
	mustSameAlphabet(d, o, "product")
	type pair struct{ a, b int }
	index := map[pair]int{}
	var states []pair
	add := func(p pair) int {
		if i, ok := index[p]; ok {
			return i
		}
		index[p] = len(states)
		states = append(states, p)
		return len(states) - 1
	}
	add(pair{d.Start, o.Start})
	type row struct{ trans []int }
	var rows []row
	for i := 0; i < len(states); i++ {
		p := states[i]
		r := row{trans: make([]int, len(d.Alphabet))}
		for s := range d.Alphabet {
			r.trans[s] = add(pair{d.Trans[p.a][s], o.Trans[p.b][s]})
		}
		rows = append(rows, r)
	}
	out := NewDFA(d.Alphabet, len(states))
	out.Start = 0
	for i, p := range states {
		out.Accept[i] = accept(d.Accept[p.a], o.Accept[p.b])
		copy(out.Trans[i], rows[i].trans)
	}
	return out.Minimize()
}

// Intersect returns the DFA for L(d) ∩ L(o).
func (d *DFA) Intersect(o *DFA) *DFA {
	return d.product(o, func(a, b bool) bool { return a && b })
}

// Union returns the DFA for L(d) ∪ L(o).
func (d *DFA) Union(o *DFA) *DFA {
	return d.product(o, func(a, b bool) bool { return a || b })
}

// FromStrings builds the minimal DFA accepting exactly the given label
// sequences over the alphabet (extended with any symbols the strings
// use).
func FromStrings(words [][]string, alphabet []string) *DFA {
	full := map[string]bool{}
	for _, s := range alphabet {
		full[s] = true
	}
	for _, w := range words {
		for _, s := range w {
			full[s] = true
		}
	}
	syms := make([]string, 0, len(full))
	for s := range full {
		syms = append(syms, s)
	}
	sort.Strings(syms)

	type tnode struct {
		children map[string]*tnode
		accept   bool
	}
	root := &tnode{children: map[string]*tnode{}}
	for _, w := range words {
		cur := root
		for _, s := range w {
			next := cur.children[s]
			if next == nil {
				next = &tnode{children: map[string]*tnode{}}
				cur.children[s] = next
			}
			cur = next
		}
		cur.accept = true
	}
	var nodes []*tnode
	idx := map[*tnode]int{}
	var number func(*tnode)
	number = func(t *tnode) {
		idx[t] = len(nodes)
		nodes = append(nodes, t)
		keys := make([]string, 0, len(t.children))
		for s := range t.children {
			keys = append(keys, s)
		}
		sort.Strings(keys)
		for _, s := range keys {
			number(t.children[s])
		}
	}
	number(root)
	out := NewDFA(syms, len(nodes)+1)
	dead := len(nodes)
	for i, t := range nodes {
		out.Accept[i] = t.accept
		for s, sym := range out.Alphabet {
			if c, ok := t.children[sym]; ok {
				out.Trans[i][s] = idx[c]
			} else {
				out.Trans[i][s] = dead
			}
		}
	}
	for s := range out.Alphabet {
		out.Trans[dead][s] = dead
	}
	out.Start = idx[root]
	return out.Minimize()
}

// RightQuotient returns the DFA for { w : ∃a ∈ Σ, w·a ∈ L(d) } — the
// language of d with the final symbol stripped. XLearner uses it to
// split a learned path across a 1-labeled template edge: the parent
// fragment binds the quotient path, the leaf binds the last step.
func (d *DFA) RightQuotient() *DFA {
	out := NewDFA(d.Alphabet, d.NumStates())
	out.Start = d.Start
	for q := 0; q < d.NumStates(); q++ {
		copy(out.Trans[q], d.Trans[q])
		for _, nx := range d.Trans[q] {
			if d.Accept[nx] {
				out.Accept[q] = true
				break
			}
		}
	}
	return out.Minimize()
}

// LastSymbols returns the sorted set of symbols that can end an
// accepted string: { a : ∃ reachable q, δ(q,a) ∈ F }.
func (d *DFA) LastSymbols() []string {
	reach := d.reachable()
	seen := map[string]bool{}
	for q := 0; q < d.NumStates(); q++ {
		if !reach[q] {
			continue
		}
		for s, nx := range d.Trans[q] {
			if d.Accept[nx] {
				seen[d.Alphabet[s]] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Dot renders the DFA in Graphviz dot syntax (for debugging and docs).
func (d *DFA) Dot() string {
	var b strings.Builder
	b.WriteString("digraph dfa {\n  rankdir=LR;\n")
	for q := 0; q < d.NumStates(); q++ {
		shape := "circle"
		if d.Accept[q] {
			shape = "doublecircle"
		}
		fmt.Fprintf(&b, "  q%d [shape=%s];\n", q, shape)
	}
	fmt.Fprintf(&b, "  start [shape=point]; start -> q%d;\n", d.Start)
	for q := 0; q < d.NumStates(); q++ {
		// Group symbols by target for readability.
		byTarget := map[int][]string{}
		for s, nx := range d.Trans[q] {
			byTarget[nx] = append(byTarget[nx], d.Alphabet[s])
		}
		targets := make([]int, 0, len(byTarget))
		for t := range byTarget {
			targets = append(targets, t)
		}
		sort.Ints(targets)
		for _, t := range targets {
			fmt.Fprintf(&b, "  q%d -> q%d [label=%q];\n", q, t, strings.Join(byTarget[t], ","))
		}
	}
	b.WriteString("}\n")
	return b.String()
}
