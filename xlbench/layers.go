package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/angluin"
	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/datagraph"
	"repro/internal/pathre"
	"repro/internal/scenario"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// layerBudget is how long each per-layer timing repeats its inputs;
// every input runs at least once.
const layerBudget = 150 * time.Millisecond

// layerInput is one job's inputs to the per-layer timings: the
// document it learns over, its ground truth, the tree it learned and
// the scenario's drops.
type layerInput struct {
	doc     *xmldoc.Document
	truth   *xq.Tree
	learned *xq.Tree
	scn     *scenario.Scenario
}

// layerTimes are the per-layer timings of a workload's inputs, each a
// mean per call.
type layerTimes struct {
	pathCompileUS, pathMinimizeUS, pathIntersectUS, pathToRegexUS, pathStates float64
	angluinLearnUS, angluinMQ                                                 float64
	indexBuildMS, resultMS, extentUS                                          float64
	graphBuildMS, condUS, vedges                                              float64
	parseMS, bundleBuildMS                                                    float64
}

// storeCounters are an artifact store's counters.
type storeCounters struct {
	hits, misses, evictions uint64
	bytes                   int64
}

// counters are a workload's cumulative store and, for the daemon,
// server-side counters (read from GET /metrics).
type counters struct {
	store  storeCounters
	server bool
	cache  xq.CacheStats
	spec   core.SpeculationStats
}

// repeat runs f over n inputs until layerBudget has passed (at least
// one full pass) and returns the mean time per call.
func repeat(n int, f func(i int) error) (time.Duration, error) {
	if n == 0 {
		return 0, nil
	}
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < layerBudget {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return 0, err
			}
			calls++
		}
	}
	return time.Since(start) / time.Duration(calls), nil
}

// pathInput is one learned binding path compiled over its document's
// alphabet.
type pathInput struct {
	expr     pathre.Expr
	alphabet []string
	realized *pathre.DFA
	dfa, min *pathre.DFA
}

// timeLayers times each layer's public functions on the inputs.
func timeLayers(ctx context.Context, in []layerInput) (layerTimes, error) {
	var lt layerTimes
	var docs []*xmldoc.Document
	seen := map[*xmldoc.Document]*xq.Index{}
	for _, x := range in {
		if _, ok := seen[x.doc]; !ok {
			seen[x.doc] = xq.NewIndex(x.doc)
			docs = append(docs, x.doc)
		}
	}

	// xmldoc and xq index: per document.
	texts := make([]string, len(docs))
	for i, d := range docs {
		texts[i] = xmldoc.XMLString(d.DocNode())
	}
	d, err := repeat(len(docs), func(i int) error {
		_, err := xmldoc.ParseString(texts[i])
		return err
	})
	if err != nil {
		return lt, fmt.Errorf("xmldoc parse: %w", err)
	}
	lt.parseMS = ms(d)
	d, _ = repeat(len(docs), func(i int) error { xq.NewIndex(docs[i]); return nil })
	lt.indexBuildMS = ms(d)

	// datagraph: per document, then cond over each job's drop examples.
	graphs := map[*xmldoc.Document]*datagraph.Graph{}
	d, _ = repeat(len(docs), func(i int) error {
		graphs[docs[i]] = datagraph.New(docs[i], datagraph.DefaultConfig())
		return nil
	})
	lt.graphBuildMS = ms(d)
	for _, doc := range docs {
		lt.vedges += float64(graphs[doc].VEdgeCount())
	}
	lt.vedges /= float64(len(docs))
	type condCall struct {
		g   *datagraph.Graph
		ctx map[string]*xmldoc.Node
		v   string
		e   *xmldoc.Node
	}
	var conds []condCall
	for _, x := range in {
		for i, di := range x.scn.Drops {
			ei := di.Select(x.doc)
			for j, dj := range x.scn.Drops {
				ej := dj.Select(x.doc)
				if i != j && ei != nil && ej != nil {
					conds = append(conds, condCall{graphs[x.doc], map[string]*xmldoc.Node{dj.Var: ej}, di.Var, ei})
				}
			}
		}
	}
	d, _ = repeat(len(conds), func(i int) error { c := conds[i]; c.g.Cond(c.ctx, c.v, c.e); return nil })
	lt.condUS = float64(d.Nanoseconds()) / 1e3

	// pathre and angluin: every learned binding path.
	var paths []*pathInput
	for _, x := range in {
		ix := seen[x.doc]
		if x.learned == nil {
			continue
		}
		for _, n := range x.learned.Nodes() {
			if e := x.learned.ExprStar(n); e != nil {
				dfa := pathre.Compile(e, ix.Alphabet())
				paths = append(paths, &pathInput{expr: e, alphabet: ix.Alphabet(), realized: ix.RealizedPathsDFA(), dfa: dfa, min: dfa.Minimize()})
			}
		}
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	d, _ = repeat(len(paths), func(i int) error { pathre.Compile(paths[i].expr, paths[i].alphabet); return nil })
	lt.pathCompileUS = us(d)
	d, _ = repeat(len(paths), func(i int) error { paths[i].dfa.Minimize(); return nil })
	lt.pathMinimizeUS = us(d)
	d, _ = repeat(len(paths), func(i int) error { paths[i].min.Intersect(paths[i].realized); return nil })
	lt.pathIntersectUS = us(d)
	d, _ = repeat(len(paths), func(i int) error { pathre.FromDFA(paths[i].min); return nil })
	lt.pathToRegexUS = us(d)
	mq := 0
	learns := 0
	d, err = repeat(len(paths), func(i int) error {
		_, st, err := angluin.Learn(paths[i].alphabet, dfaTeacher{paths[i].min})
		mq += st.MembershipQueries
		learns++
		return err
	})
	if err != nil {
		return lt, fmt.Errorf("angluin learn: %w", err)
	}
	lt.angluinLearnUS = us(d)
	for _, p := range paths {
		lt.pathStates += float64(p.min.NumStates())
	}
	if len(paths) > 0 {
		lt.pathStates /= float64(len(paths))
		lt.angluinMQ = float64(mq) / float64(learns)
	}

	// xq: the ground truth's full result and its top-level extents, each
	// on a cold evaluator over the shared index.
	d, err = repeat(len(in), func(i int) error {
		_, err := xq.NewEvaluatorWithIndex(seen[in[i].doc]).Result(ctx, in[i].truth)
		return err
	})
	if err != nil {
		return lt, fmt.Errorf("xq result: %w", err)
	}
	lt.resultMS = ms(d)
	type extentCall struct {
		ix *xq.Index
		t  *xq.Tree
		n  *xq.Node
	}
	var extents []extentCall
	for _, x := range in {
		for _, n := range x.truth.Nodes() {
			// Only nodes whose extent needs no pinned variable: the
			// others are evaluated as part of the result above.
			if n.Var == "" || n.From != "" {
				continue
			}
			if _, err := xq.NewEvaluatorWithIndex(seen[x.doc]).Extent(ctx, x.truth, n, nil); err == nil {
				extents = append(extents, extentCall{seen[x.doc], x.truth, n})
			}
		}
	}
	d, err = repeat(len(extents), func(i int) error {
		c := extents[i]
		_, err := xq.NewEvaluatorWithIndex(c.ix).Extent(ctx, c.t, c.n, nil)
		return err
	})
	if err != nil {
		return lt, fmt.Errorf("xq extent: %w", err)
	}
	lt.extentUS = us(d)

	// artifacts: one bundle build per job into a fresh store.
	d, err = repeat(len(in), func(i int) error {
		x := in[i]
		_, err := artifacts.NewStore(artifacts.DefaultBudget).Bundle(ctx, artifacts.ScenarioKey(x.scn.ID),
			func() (*xmldoc.Document, error) { return x.doc, nil },
			func() (*xq.Tree, error) { return x.truth, nil })
		return err
	})
	if err != nil {
		return lt, fmt.Errorf("artifacts bundle: %w", err)
	}
	lt.bundleBuildMS = ms(d)
	return lt, nil
}

// dfaTeacher answers L* queries from a known target DFA.
type dfaTeacher struct{ target *pathre.DFA }

func (t dfaTeacher) Member(w []string) (bool, error) { return t.target.Accepts(w), nil }

func (t dfaTeacher) Equivalent(h *pathre.DFA) ([]string, bool, error) {
	ce, diff := t.target.Distinguish(h)
	return ce, !diff, nil
}
