// Package scenario packages one learning task end to end: a source
// instance, a target schema, the user's drops and boxes, and the
// ground-truth query that drives the simulated teacher. Running a
// scenario learns the query and verifies that the learned query
// evaluates identically to the ground truth on the instance — the
// reproduction's success criterion for every benchmark query.
package scenario

import (
	"context"
	"fmt"
	"time"

	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/must"
	"repro/internal/teacher"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// Scenario is one benchmark query modeled as an XLearner session.
type Scenario struct {
	// ID names the query, e.g. "XMark-Q1".
	ID string
	// Description says what the query computes.
	Description string
	// Doc builds (or returns) the source instance.
	Doc func() *xmldoc.Document
	// Target is the result schema the template is generated from.
	Target *dtd.DTD
	// Truth builds the ground-truth XQ-Tree (variable names must match
	// the Drops).
	Truth func() *xq.Tree
	// Drops in learning order.
	Drops []core.Drop
	// Boxes are the Condition Box entries served on demand, keyed by
	// fragment variable.
	Boxes map[string][]core.BoxEntry
	// Orders are OrderBy Box keys, keyed by fragment variable.
	Orders map[string][]xq.SortKey
}

// Result of running a scenario.
type Result struct {
	Scenario *Scenario
	Tree     *xq.Tree
	Stats    *core.Stats
	// Verified reports that the learned query's full result equals the
	// ground truth's.
	Verified   bool
	LearnedXML string
	TruthXML   string
}

// Prepared is a scenario instantiated for one run: a document,
// simulated teacher, and core session over one artifact bundle.
// Callers that need the session handle before learning — to cancel it,
// to poll its state, to read cache statistics afterwards — prepare
// first and Learn when ready; plain callers use Run. Distinct Prepared
// values share nothing mutable beyond the bundle's internally
// synchronized caches.
type Prepared struct {
	Scenario *Scenario
	Doc      *xmldoc.Document
	Truth    *xq.Tree
	Sim      *teacher.Sim
	Session  *core.Session
	// Index is the bundle's evaluator index over Doc — store-published
	// or private to this run — shared by the teacher, the engine and the
	// verification evaluators. It is never nil.
	Index *xq.Index
}

// Prepare instantiates the scenario with the counterexample policy and
// engine options over a session-private bundle (artifacts.NewBundle),
// so the run indexes its document once and shares the index, plan,
// data graph and symbol table between teacher, engine and verification.
func Prepare(s *Scenario, pol teacher.Policy, opts ...core.Option) *Prepared {
	return PrepareBundle(s, artifacts.NewBundle(s.Doc(), s.Truth()), pol, opts...)
}

// SetTeacherLatency simulates a slow teacher for this run: every
// answering round trip of the simulated teacher sleeps d before
// touching teacher state (see teacher.Sim.Latency). Call it between
// Prepare and Learn; combined with core.WithBatchedProtocol it is the
// benchmark knob for the batched protocol's wall-clock win.
func (p *Prepared) SetTeacherLatency(d time.Duration) { p.Sim.Latency = d }

// Learn runs the prepared session's dialogue and verifies the learned
// query against the ground truth; the context aborts the session when
// canceled.
func (p *Prepared) Learn(ctx context.Context) (*Result, error) {
	s := p.Scenario
	tree, stats, err := p.Session.Learn(ctx, &core.TaskSpec{Target: s.Target, Drops: s.Drops})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.ID, err)
	}
	learnedDoc, err := xq.NewEvaluatorWithIndex(p.Index).Result(ctx, tree)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: evaluate learned query: %w", s.ID, err)
	}
	truthDoc, err := xq.NewEvaluatorWithIndex(p.Index).Result(ctx, p.Truth)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: evaluate ground truth: %w", s.ID, err)
	}
	res := &Result{
		Scenario:   s,
		Tree:       tree,
		Stats:      stats,
		LearnedXML: xmldoc.XMLString(learnedDoc.DocNode()),
		TruthXML:   xmldoc.XMLString(truthDoc.DocNode()),
	}
	res.Verified = res.LearnedXML == res.TruthXML
	return res, nil
}

// Run learns the scenario with the given counterexample policy and
// engine options (defaults when none are given) and verifies the
// outcome. Each call prepares over a fresh session-private bundle (see
// Prepare), so concurrent Runs share nothing mutable; the context
// aborts the session when canceled.
func Run(ctx context.Context, s *Scenario, pol teacher.Policy, opts ...core.Option) (*Result, error) {
	return Prepare(s, pol, opts...).Learn(ctx)
}

// MustRun runs with default options and best-case policy, panicking on
// error (for examples over embedded scenarios only).
func MustRun(s *Scenario) *Result {
	return must.Must(Run(context.Background(), s, teacher.BestCase))
}

// ResolveBundle resolves the scenario's artifact bundle — canonical
// document, evaluator index, ground-truth tree, shared truth-extent
// memo — through the store, building everything on the first call for
// the scenario's key and sharing it afterwards.
func ResolveBundle(ctx context.Context, store *artifacts.Store, s *Scenario) (*artifacts.Bundle, error) {
	b, err := store.Bundle(ctx, artifacts.ScenarioKey(s.ID),
		func() (*xmldoc.Document, error) { return s.Doc(), nil },
		func() (*xq.Tree, error) { return s.Truth(), nil })
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.ID, err)
	}
	return b, nil
}

// PrepareIn is Prepare through an artifact store: the document, index,
// ground-truth tree, and the teacher's pinned truth extents come from
// the scenario's shared bundle, so repeated and concurrent runs of one
// scenario — the ablation's four rule configurations, the worst-case
// re-run, a server hammering one spec — pay for the parse, the index
// build, and each distinct extent computation once. The learned
// dialogue and its interaction counts are identical to Prepare's:
// sessions share only immutable artifacts and the teacher-side memo of
// deterministic answers.
func PrepareIn(ctx context.Context, store *artifacts.Store, s *Scenario, pol teacher.Policy, opts ...core.Option) (*Prepared, error) {
	b, err := ResolveBundle(ctx, store, s)
	if err != nil {
		return nil, err
	}
	return PrepareBundle(s, b, pol, opts...), nil
}

// PrepareBundle instantiates the scenario over an already-resolved
// artifact bundle (callers that key bundles themselves — the daemon
// hashes uploaded spec content, for instance — resolve first and
// prepare per session). The bundle must have been built from this
// scenario's Doc/Truth constructors: the teacher answers against
// b.Truth and the session learns over b.Doc, so a foreign bundle would
// silently learn the wrong task.
func PrepareBundle(s *Scenario, b *artifacts.Bundle, pol teacher.Policy, opts ...core.Option) *Prepared {
	sim := teacher.New(b.Doc, b.Truth)
	sim.Accelerate(b.Index, b.Extents, b.Plan)
	sim.Pol = pol
	sim.Boxes = s.Boxes
	sim.Orders = s.Orders
	opts = append(append([]core.Option(nil), opts...),
		core.WithSharedIndex(b.Index), core.WithSharedGraph(b.Graph),
		core.WithSharedSymbols(b.Syms))
	return &Prepared{
		Scenario: s,
		Doc:      b.Doc,
		Truth:    b.Truth,
		Sim:      sim,
		Session:  core.New(b.Doc, sim, opts...),
		Index:    b.Index,
	}
}

// RunIn is Run through an artifact store: like Run, but sharing the
// scenario's immutable artifacts with every other run resolved through
// the same store.
func RunIn(ctx context.Context, store *artifacts.Store, s *Scenario, pol teacher.Policy, opts ...core.Option) (*Result, error) {
	p, err := PrepareIn(ctx, store, s, pol, opts...)
	if err != nil {
		return nil, err
	}
	return p.Learn(ctx)
}
