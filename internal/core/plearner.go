package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/angluin"
	"repro/internal/datagraph"
	"repro/internal/pathre"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// provenance records where a cached membership answer came from; R2
// answers are heuristic and may be retracted (Section 8).
type provenance int

const (
	provAsked     provenance = iota // the user answered
	provR1                          // auto-answered: no such path in the instance/schema
	provR2                          // auto-answered: last-tag heuristic
	provDrop                        // the dropped example itself
	provCE                          // established by a counterexample
	provCorrected                   // flipped after an inconsistency
)

type pans struct {
	ans  bool
	prov provenance
	node *xmldoc.Node
}

// r2mode is the state machine of rule R2: Active (defaults N unless the
// last tag matches the dropped example's), AnyTag (after one positive
// counterexample with a different last tag: no more defaults, heuristic
// still armed), Off (a negative counterexample under the relaxed
// assumption discards the rule entirely).
type r2mode int

const (
	r2Active r2mode = iota
	r2AnyTag
	r2Off
)

// restartErr signals that a cached answer was corrected and the
// observation table must be rebuilt (the paper's "corrects them if it
// finds inconsistencies"); answers are replayed from the cache, so no
// user interactions are repeated. It flows through the angluin.Teacher
// error return and is caught in run with errors.As.
type restartErr struct{ reason string }

func (e restartErr) Error() string { return "core: restart L*: " + e.reason }

// pLearner learns one fragment: the path DFA (P-Learner) interleaved
// with condition learning (C-Learner) and explicit Condition Boxes.
type pLearner struct {
	ctx     context.Context // the session context, checked at every MQ/EQ
	eng     *Engine
	frag    FragmentRef
	pinCtx  map[string]*xmldoc.Node // pins for teacher extent queries
	condCtx map[string]*xmldoc.Node // anchor vars only, for the data graph

	example     *xmldoc.Node // the dropped node
	stripLevels int          // 1 for a 1-labeled pair, else 0

	cache     map[string]pans
	r2        r2mode
	lastTag   string
	clearner  *cLearner
	explicit  []*xq.Pred
	positives []*xmldoc.Node

	// structural implements the paper's navigational binding prior
	// (depends(n) = ancestors(n), Section 7): when the dropped example
	// lies inside a context anchor's subtree, the fragment is assumed to
	// bind relative to that variable, so hypothesis extents are
	// restricted to that subtree. A positive counterexample outside the
	// subtree refutes the assumption.
	structural bool
	relAnchor  *xmldoc.Node

	// hypDFA/hypKeys cache the instance path keys the current hypothesis
	// DFA accepts. The EQ loop re-materializes the hypothesis extent for
	// the same DFA every condition-refinement iteration; acceptance
	// depends only on the DFA, so it is computed once per hypothesis.
	hypDFA  *pathre.DFA
	hypKeys []string

	// mirror is the fragment context's prefetched truth knowledge under
	// the batched protocol (nil serially); see batched.go.
	mirror *mirror

	learned *pathre.DFA
	stats   *FragmentStats
}

func pathKey(w []string) string { return strings.Join(w, "\x00") }

func newPLearner(ctx context.Context, eng *Engine, frag FragmentRef, pinCtx, condCtx map[string]*xmldoc.Node,
	example *xmldoc.Node, strip int, stats *FragmentStats) *pLearner {
	p := &pLearner{
		ctx: ctx, eng: eng, frag: frag, pinCtx: pinCtx, condCtx: condCtx,
		example: example, stripLevels: strip,
		// Presized: without the reduction rules the cache holds one
		// entry per candidate word and rehash copies dominate profiles.
		cache: make(map[string]pans, 1<<10), stats: stats,
		clearner: newCLearner(eng.graph, condCtx, frag.AnchorVar),
	}
	ep := example.Path()
	p.lastTag = ep[len(ep)-1]
	if !eng.Opts.R2 {
		p.r2 = r2Off
	}
	// Deepest context anchor containing the example, if any.
	for _, n := range condCtx {
		if n.IsAncestorOf(example) && (p.relAnchor == nil || p.relAnchor.IsAncestorOf(n)) {
			p.relAnchor = n
		}
	}
	p.structural = p.relAnchor != nil
	p.cache[pathKey(ep)] = pans{ans: true, prov: provDrop, node: example}
	p.addPositive(example)
	return p
}

// anchor maps an extent node to the node its conditions live on (the
// 1-labeled parent for pair fragments).
func (p *pLearner) anchor(n *xmldoc.Node) *xmldoc.Node {
	for i := 0; i < p.stripLevels && n.Parent != nil; i++ {
		n = n.Parent
	}
	return n
}

func (p *pLearner) addPositive(n *xmldoc.Node) {
	for _, q := range p.positives {
		if q == n {
			return
		}
	}
	p.positives = append(p.positives, n)
	p.clearner.Observe(p.anchor(n))
}

// condsHold evaluates the learned conjunction plus explicit predicates
// for extent candidate n.
func (p *pLearner) condsHold(n *xmldoc.Node) bool {
	env := xq.Env{}
	for k, v := range p.condCtx {
		env[k] = v
	}
	env[p.frag.AnchorVar] = p.anchor(n)
	env[p.frag.Var] = n
	for _, pr := range p.clearner.Preds() {
		if !p.eng.eval.PredHolds(pr, env) {
			return false
		}
	}
	for _, pr := range p.explicit {
		if !p.eng.eval.PredHolds(pr, env) {
			return false
		}
	}
	return true
}

// Member implements the L* membership oracle with the rule pipeline:
// cache → R1 → R2 → ask the user about a representative node. The
// session context is checked before every query, so a cancellation
// aborts the learner at the next MQ boundary.
func (p *pLearner) Member(w []string) (bool, error) {
	return p.memberKeyed(w, pathKey(w))
}

// memberKeyed is Member with the word's pathKey pre-joined — the
// angluin.KeyedTeacher fast path. The learner interns the key anyway,
// so taking it here removes one join per membership query (and the
// cache insert below reuses the same string).
func (p *pLearner) memberKeyed(w []string, k string) (bool, error) {
	if err := ctxErr(p.ctx); err != nil {
		return false, err
	}
	if a, ok := p.cache[k]; ok {
		return a.ans, nil
	}
	nodes := p.eng.pathIndex[k]
	r1 := p.eng.Opts.R1 && p.r1Applicable(w, nodes)
	r2 := p.r2 == r2Active && len(w) > 0 && w[len(w)-1] != p.lastTag
	if r1 || r2 {
		if r1 {
			p.stats.ReducedR1++
		}
		if r2 {
			p.stats.ReducedR2++
		}
		if r1 && r2 {
			p.stats.ReducedBoth++
		}
		p.stats.ReducedTotal++
		prov := provR1
		if !r1 {
			prov = provR2
		}
		p.cache[k] = pans{ans: false, prov: prov}
		return false, nil
	}
	// Ask the user. With no node at this path the user still has to
	// dismiss the query (counts as an interaction; this is what R1
	// eliminates).
	if len(nodes) == 0 {
		p.stats.MQ++
		p.cache[k] = pans{ans: false, prov: provAsked}
		return false, nil
	}
	m := nodes[0]
	for _, n := range nodes {
		if p.condsHold(n) {
			m = n
			break
		}
	}
	ans, err := p.askMember(m)
	if err != nil {
		return false, fmt.Errorf("core: fragment %s: membership query: %w", p.frag.Var, err)
	}
	p.stats.MQ++
	p.cache[k] = pans{ans: ans, prov: provAsked, node: m}
	if ans {
		p.addPositive(m)
	}
	return ans, nil
}

// memberBatchKeyed answers one learner query set in index order through
// the single-query pipeline, so the committed dialogue equals the serial
// one; under the batched protocol askMember serves every asked question
// from the fragment mirror.
func (p *pLearner) memberBatchKeyed(words [][]string, keys []string) ([]bool, error) {
	out := make([]bool, len(words))
	for i := range words {
		v, err := p.memberKeyed(words[i], keys[i])
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *pLearner) r1Applicable(w []string, nodes []*xmldoc.Node) bool {
	if len(w) == 0 {
		// The empty path is the document node, never an extent member.
		return true
	}
	if f := p.eng.Opts.R1Filter; f != nil {
		return !f.AcceptsPath(w)
	}
	if p.eng.Opts.SourceDTD != nil {
		return !p.eng.Opts.SourceDTD.AcceptsPath(w)
	}
	return len(nodes) == 0
}

// positiveSharesPath reports whether a known positive example has the
// same root path as n (evidence that the path language is right and a
// value condition is missing).
func (p *pLearner) positiveSharesPath(n *xmldoc.Node) bool {
	k := pathKey(n.Path())
	for _, q := range p.positives {
		if pathKey(q.Path()) == k {
			return true
		}
	}
	return false
}

// positivesShareRelPath reports whether every known positive's anchor
// sits at the same relative label path below the given context node
// (the precondition for structural relativization).
func (p *pLearner) positivesShareRelPath(ctxNode *xmldoc.Node, steps []string, pair bool) bool {
	for _, q := range p.positives {
		a := p.anchor(q)
		if !ctxNode.IsAncestorOf(a) {
			return false
		}
		rel := labelsBetween(ctxNode, a)
		if len(rel) != len(steps) {
			return false
		}
		for i := range rel {
			if rel[i] != steps[i] {
				return false
			}
		}
	}
	_ = pair
	return true
}

// hypothesisExtent materializes the extent the hypothesis (DFA +
// conditions) denotes: every instance node whose path the DFA accepts
// and whose anchor satisfies the conditions.
func (p *pLearner) hypothesisExtent(h *pathre.DFA) []*xmldoc.Node {
	if p.hypDFA != h {
		p.hypDFA = h
		p.hypKeys = p.hypKeys[:0]
		for _, k := range p.eng.pathKeys {
			if h.Accepts(p.eng.pathLabels[k]) {
				p.hypKeys = append(p.hypKeys, k)
			}
		}
	}
	ix := p.eng.eval.Index()
	var out []*xmldoc.Node
	for _, k := range p.hypKeys {
		for _, n := range p.eng.pathIndex[k] {
			if p.structural && !ix.Ancestor(p.relAnchor, n) {
				continue
			}
			if p.condsHold(n) {
				out = append(out, n)
			}
		}
	}
	sortByID(out)
	return out
}

func sortByID(nodes []*xmldoc.Node) {
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
}

// Equivalent implements the L* equivalence oracle at the extent level:
// it keeps refining conditions (C-Learner / Condition Boxes) for the
// fixed path hypothesis, returning to L* only with path counterexamples.
func (p *pLearner) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	for iter := 0; iter <= p.eng.Opts.MaxEQ; iter++ {
		if err := ctxErr(p.ctx); err != nil {
			return nil, false, err
		}
		hyp := p.hypothesisExtent(h)
		ce, positive, ok, err := p.askEquivalent(hyp)
		if err != nil {
			return nil, false, fmt.Errorf("core: fragment %s: equivalence query: %w", p.frag.Var, err)
		}
		if ok {
			p.learned = h
			return nil, true, nil
		}
		p.stats.CE++
		if ce == nil {
			return nil, false, fmt.Errorf("core: fragment %s: %w", p.frag.Var, ErrNoCounterexample)
		}
		if positive {
			s, err := p.processPositive(h, ce)
			if err != nil {
				return nil, false, err
			}
			if s != nil {
				return s, false, nil
			}
			continue
		}
		handled, err := p.processNegative(h, ce)
		if err != nil {
			return nil, false, err
		}
		if handled {
			continue
		}
		return ce.Path(), false, nil
	}
	return nil, false, fmt.Errorf("core: fragment %s: %w (%d)", p.frag.Var, ErrMaxEQ, p.eng.Opts.MaxEQ)
}

// processPositive handles a node the user added to the extent. It may
// weaken the learned conditions, correct cached path answers (possibly
// restarting L* via a restartErr), and return a path counterexample for
// L* (nil if the path hypothesis already accepts it).
func (p *pLearner) processPositive(h *pathre.DFA, ce *xmldoc.Node) ([]string, error) {
	if p.structural && !p.relAnchor.IsAncestorOf(ce) {
		// The extent reaches outside the context anchor's subtree: the
		// binding is not navigational after all — fall back to a rooted
		// binding with learned joins.
		p.structural = false
	}
	if !p.condsHold(ce) {
		// The strongest-conjunction hypothesis was too strong: remove
		// predicates the counterexample violates (Figure 13 step).
		p.clearner.Observe(p.anchor(ce))
		for _, pr := range p.explicit {
			env := p.envFor(ce)
			if !p.eng.eval.PredHolds(pr, env) {
				return nil, fmt.Errorf(
					"core: positive counterexample violates the user-given condition %s", pr.Key())
			}
		}
	}
	p.addPositive(ce)
	w := ce.Path()
	if p.r2 == r2Active && len(w) > 0 && w[len(w)-1] != p.lastTag {
		// Section 8, rule R2: a positive counterexample whose last tag
		// differs from the dropped example's refutes the last-tag
		// assumption — discard the heuristic answers and relax.
		return nil, p.backtrackR2(w, ce)
	}
	if h.Accepts(w) {
		return nil, nil // condition-side counterexample only
	}
	k := pathKey(w)
	if a, ok := p.cache[k]; ok && !a.ans {
		// The table holds a wrong No for this path: correct and restart.
		p.cache[k] = pans{ans: true, prov: provCorrected, node: ce}
		return nil, restartErr{reason: "corrected membership answer for " + strings.Join(w, "/")}
	}
	p.cache[k] = pans{ans: true, prov: provCE, node: ce}
	return w, nil
}

// backtrackR2 implements R2's backtracking: discard every heuristic
// answer and relax the last-tag assumption, then restart L*.
func (p *pLearner) backtrackR2(w []string, ce *xmldoc.Node) error {
	for k, a := range p.cache {
		if a.prov == provR2 {
			delete(p.cache, k)
		}
	}
	p.cache[pathKey(w)] = pans{ans: true, prov: provCorrected, node: ce}
	p.r2 = r2AnyTag
	return restartErr{reason: "R2 backtrack: positive counterexample ends with " + w[len(w)-1]}
}

// processNegative handles a node the user removed from the hypothesis
// extent. It returns true when handled internally (Condition Box), or
// false when the path hypothesis must shrink (L* counterexample; the
// caller returns ce's path).
func (p *pLearner) processNegative(h *pathre.DFA, ce *xmldoc.Node) (bool, error) {
	if p.positiveSharesPath(ce) {
		// A positive shares this path: the path language is right, so a
		// value condition outside the learnable family is missing —
		// open a Condition Box (Section 9(3), triggered by the IHT
		// inconsistency).
		entries, err := p.conditionBox(ce)
		if err != nil {
			return false, fmt.Errorf("core: fragment %s: Condition Box: %w", p.frag.Var, err)
		}
		if len(entries) == 0 {
			return false, fmt.Errorf(
				"core: fragment %s needs an explicit condition to exclude %s: %w",
				p.frag.Var, ce.PathString(), ErrEmptyConditionBox)
		}
		if err := p.applyBoxes(entries, ce); err != nil {
			return false, err
		}
		return true, nil
	}
	if p.r2 == r2AnyTag {
		p.r2 = r2Off // negative counterexample under the relaxed assumption
	}
	p.cache[pathKey(ce.Path())] = pans{ans: false, prov: provCE, node: ce}
	return false, nil
}

func (p *pLearner) envFor(n *xmldoc.Node) xq.Env {
	env := xq.Env{}
	for k, v := range p.condCtx {
		env[k] = v
	}
	env[p.frag.AnchorVar] = p.anchor(n)
	env[p.frag.Var] = n
	return env
}

// applyBoxes turns Condition Box entries into explicit predicates via
// the data graph (the Figure 6 boxed subexpression derivation).
func (p *pLearner) applyBoxes(entries []BoxEntry, ce *xmldoc.Node) error {
	for _, e := range entries {
		p.stats.CB++
		terms := e.Terms
		if terms == 0 {
			terms = 3
		}
		p.stats.CBTerms += terms
		if e.Pred != nil {
			p.explicit = append(p.explicit, e.Pred)
			continue
		}
		if e.Select == nil {
			return fmt.Errorf("core: Condition Box entry without node or predicate")
		}
		condNode := e.Select(p.eng.Source, ce)
		if condNode == nil {
			return fmt.Errorf("core: Condition Box selector returned no node")
		}
		// PCB derives from the positive example's situation; NCB from the
		// negative counterexample's.
		situated := p.example
		if e.Negated && ce != nil {
			situated = ce
		}
		scope := map[string]*xmldoc.Node{}
		for k, v := range p.condCtx {
			scope[k] = v
		}
		scope[p.frag.AnchorVar] = p.anchor(situated)
		link, ok := p.eng.graph.LinkCondition(scope, condNode)
		if !ok {
			return fmt.Errorf(
				"core: cannot relate Condition Box node %s to the variables in scope", condNode.PathString())
		}
		p.explicit = append(p.explicit, datagraph.BuildConditionPred(link, e.Op, e.Const, e.Negated))
	}
	return nil
}

// run drives L* (with restarts after corrections) and returns the
// learned path DFA. A restartErr from the oracle callbacks rebuilds the
// observation table (the cache replays every answered query, so no user
// interaction is repeated); any other error is final.
func (p *pLearner) run() (*pathre.DFA, error) {
	const maxRestarts = 64
	for attempt := 0; ; attempt++ {
		learn := angluin.Learn
		if p.eng.Opts.UseKVLearner {
			learn = angluin.LearnKV
		}
		d, stats, err := learn(p.eng.alphabet, teacherAdapter{p},
			angluin.WithInitialExample(p.example.Path()),
			angluin.WithMaxEquivalenceQueries(p.eng.Opts.MaxEQ),
			angluin.WithSymbolTable(p.eng.syms))
		// Fold the learner's transport bookkeeping into the session's
		// (every attempt's work counts, restarts included); the dialogue
		// counters live in FragmentStats and are charged by the oracle
		// callbacks above, not here.
		p.eng.spec.BatchRounds += stats.BatchRounds
		p.eng.spec.BatchedMQ += stats.BatchedQueries
		if err == nil {
			p.stats.PathStates = stats.HypothesisStates
			return d, nil
		}
		var r restartErr
		if errors.As(err, &r) {
			p.stats.Restarts++
			if attempt >= maxRestarts {
				return nil, fmt.Errorf("core: fragment %s: too many L* restarts (last: %s)", p.frag.Var, r.reason)
			}
			continue
		}
		return nil, err
	}
}

// teacherAdapter exposes the pLearner as an angluin.Teacher — plus its
// KeyedTeacher extension (pathKey and the learner's word key are the
// same "\x00" join, so the learner-materialized key is used verbatim),
// and the batch seam (query sets, committed by index).
type teacherAdapter struct{ p *pLearner }

func (t teacherAdapter) Member(w []string) (bool, error) { return t.p.Member(w) }
func (t teacherAdapter) MemberKeyed(w []string, k string) (bool, error) {
	return t.p.memberKeyed(w, k)
}
func (t teacherAdapter) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	return t.p.Equivalent(h)
}
func (t teacherAdapter) MemberBatch(words [][]string) ([]bool, error) {
	keys := make([]string, len(words))
	for i, w := range words {
		keys[i] = pathKey(w)
	}
	return t.p.memberBatchKeyed(words, keys)
}
func (t teacherAdapter) MemberBatchKeyed(words [][]string, keys []string) ([]bool, error) {
	return t.p.memberBatchKeyed(words, keys)
}
