package angluin

// The Kearns-Vazirani classification-tree learner: the classic
// alternative to L*'s observation table (Kearns & Vazirani, "An
// Introduction to Computational Learning Theory", ch. 8). It maintains
// a binary tree whose internal nodes are distinguishing suffixes and
// whose leaves are access strings; membership queries sift words down
// the tree. KV typically asks far fewer membership queries than L*
// (no table closure over the whole alphabet at every step) at the cost
// of more equivalence queries — the trade-off the learner ablation
// benchmark measures.

import (
	"fmt"
	"strings"

	"repro/internal/pathre"
)

type ctNode struct {
	// suffix labels internal nodes; nil for leaves.
	suffix []string
	// access labels leaves.
	access []string
	// yes/no children by membership of access·suffix.
	yes, no *ctNode
	parent  *ctNode
}

func (n *ctNode) isLeaf() bool { return n.yes == nil && n.no == nil }

// kvLearner carries the algorithm state.
type kvLearner struct {
	alphabet []string
	teacher  Teacher
	// keyed is teacher's KeyedTeacher form when implemented (see Learn).
	keyed   KeyedTeacher
	maxEQ   int
	initial []string

	root  *ctNode
	cache map[string]bool
	stats Stats
}

// LearnKV runs the Kearns-Vazirani algorithm against the teacher.
// Options are shared with Learn; WithInitialExample seeds the first
// counterexample-style refinement.
func LearnKV(alphabet []string, t Teacher, opts ...Option) (*pathre.DFA, Stats, error) {
	shim := &learner{maxEQ: 1000}
	for _, o := range opts {
		o(shim)
	}
	k := &kvLearner{
		alphabet: append([]string(nil), alphabet...),
		teacher:  t,
		maxEQ:    shim.maxEQ,
		initial:  shim.initial,
		cache:    map[string]bool{},
	}
	k.keyed, _ = t.(KeyedTeacher)
	return k.run()
}

// member asks one membership query, serving repeats from the cache.
// KV's sift chain is adaptive — each probe depends on the previous
// answer — so probes cannot be merged into query sets without
// reordering the dialogue; KV asks every probe singly and never uses
// the batch seam.
func (k *kvLearner) member(w []string) (bool, error) {
	key := strings.Join(w, "\x00")
	if v, ok := k.cache[key]; ok {
		return v, nil
	}
	var v bool
	var err error
	if k.keyed != nil {
		v, err = k.keyed.MemberKeyed(w, key)
	} else {
		v, err = k.teacher.Member(w)
	}
	if err != nil {
		return false, err
	}
	k.stats.MembershipQueries++
	k.cache[key] = v
	return v, nil
}

// sift walks the word down the classification tree to its leaf.
func (k *kvLearner) sift(w []string) (*ctNode, error) {
	cur := k.root
	for !cur.isLeaf() {
		probe := append(append([]string(nil), w...), cur.suffix...)
		v, err := k.member(probe)
		if err != nil {
			return nil, err
		}
		if v {
			cur = cur.yes
		} else {
			cur = cur.no
		}
	}
	return cur, nil
}

func (k *kvLearner) run() (*pathre.DFA, Stats, error) {
	// Bootstrap with a single leaf (the empty access string): the first
	// counterexample splits it by the empty suffix, creating the
	// canonical accept/reject root.
	k.root = &ctNode{access: []string{}}
	if k.initial != nil {
		// Seed the tree as if the dropped example's path were a first
		// positive counterexample (mirrors WithInitialExample for L*):
		// only useful when it actually distinguishes.
		mi, err := k.member(k.initial)
		if err != nil {
			return nil, k.stats, err
		}
		me, err := k.member(nil)
		if err != nil {
			return nil, k.stats, err
		}
		if mi != me {
			if err := k.split(k.root, k.initial, nil); err != nil {
				return nil, k.stats, err
			}
		}
	}

	for eq := 0; eq < k.maxEQ; eq++ {
		h, leaves, err := k.hypothesis()
		if err != nil {
			return nil, k.stats, err
		}
		k.stats.EquivalenceQueries++
		k.stats.HypothesisStates = h.NumStates()
		ce, ok, err := k.teacher.Equivalent(h)
		if err != nil {
			return nil, k.stats, err
		}
		if ok {
			return h, k.stats, nil
		}
		k.stats.Counterexamples++
		if ce == nil {
			return nil, k.stats, fmt.Errorf("angluin: KV teacher rejected hypothesis without a counterexample")
		}
		inTarget, err := k.member(ce)
		if err != nil {
			return nil, k.stats, err
		}
		if h.Accepts(ce) == inTarget {
			return nil, k.stats, fmt.Errorf("angluin: KV counterexample %v does not distinguish", ce)
		}
		if err := k.process(ce, h, leaves); err != nil {
			return nil, k.stats, err
		}
	}
	return nil, k.stats, fmt.Errorf("angluin: KV exceeded %d equivalence queries", k.maxEQ)
}

// hypothesis builds the DFA whose states are the leaves.
func (k *kvLearner) hypothesis() (*pathre.DFA, []*ctNode, error) {
	var leaves []*ctNode
	var collect func(n *ctNode)
	collect = func(n *ctNode) {
		if n == nil {
			return
		}
		if n.isLeaf() {
			leaves = append(leaves, n)
			return
		}
		collect(n.yes)
		collect(n.no)
	}
	collect(k.root)
	index := map[*ctNode]int{}
	for i, l := range leaves {
		index[l] = i
	}
	d := pathre.NewDFA(k.alphabet, len(leaves))
	for i, l := range leaves {
		acc, err := k.member(l.access)
		if err != nil {
			return nil, nil, err
		}
		d.Accept[i] = acc
		for _, a := range k.alphabet {
			ext := append(append([]string(nil), l.access...), a)
			target, err := k.sift(ext)
			if err != nil {
				return nil, nil, err
			}
			d.Trans[i][d.SymIndex(a)] = index[target]
		}
	}
	start, err := k.sift(nil)
	if err != nil {
		return nil, nil, err
	}
	d.Start = index[start]
	return d, leaves, nil
}

// process refines the tree with a counterexample: find the first
// position where the hypothesis state's access string and the sifted
// leaf diverge, and split the predecessor leaf with a new
// distinguishing suffix.
func (k *kvLearner) process(ce []string, h *pathre.DFA, leaves []*ctNode) error {
	// Hypothesis states along ce, as leaves.
	hypLeaf := make([]*ctNode, len(ce)+1)
	q := h.Start
	hypLeaf[0] = leaves[q]
	for i, a := range ce {
		q = h.Trans[q][h.SymIndex(a)]
		hypLeaf[i+1] = leaves[q]
	}
	for i := 1; i <= len(ce); i++ {
		sifted, err := k.sift(ce[:i])
		if err != nil {
			return err
		}
		if sifted == hypLeaf[i] {
			continue
		}
		// Diverged at i: split the leaf holding hypLeaf[i-1]'s access
		// string. New access string: ce[:i-1]; new distinguisher:
		// ce[i-1] · d where d labels the least common ancestor of
		// sifted and hypLeaf[i] — but sift gives us the exact
		// distinguishing suffix directly: the suffix at the node where
		// the two leaves' paths diverge.
		d := k.lcaSuffix(sifted, hypLeaf[i])
		newSuffix := append([]string{ce[i-1]}, d...)
		return k.split(hypLeaf[i-1], ce[:i-1], newSuffix)
	}
	// The hypothesis path agrees everywhere but classification differs:
	// split the final leaf by ε... this only occurs with a single-leaf
	// tree (before the first refinement).
	return k.split(hypLeaf[len(ce)], ce, nil)
}

// lcaSuffix returns the distinguishing suffix at the least common
// ancestor of two leaves.
func (k *kvLearner) lcaSuffix(a, b *ctNode) []string {
	depth := func(n *ctNode) int {
		d := 0
		for cur := n; cur.parent != nil; cur = cur.parent {
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	x, y := a, b
	for da > db {
		x = x.parent
		da--
	}
	for db > da {
		y = y.parent
		db--
	}
	for x != y {
		x = x.parent
		y = y.parent
	}
	return x.suffix
}

// split turns leaf (with existing access string) into an internal node
// distinguishing it from the new access string by the suffix.
func (k *kvLearner) split(leaf *ctNode, newAccess, suffix []string) error {
	oldAccess := leaf.access
	internal := leaf
	internal.suffix = append([]string(nil), suffix...)
	internal.access = nil
	oldLeaf := &ctNode{access: oldAccess, parent: internal}
	newLeaf := &ctNode{access: append([]string(nil), newAccess...), parent: internal}
	probeOld := append(append([]string(nil), oldAccess...), suffix...)
	v, err := k.member(probeOld)
	if err != nil {
		return err
	}
	if v {
		internal.yes, internal.no = oldLeaf, newLeaf
	} else {
		internal.no, internal.yes = oldLeaf, newLeaf
	}
	return nil
}
