package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

// slowTeacherLatency matches the teacher_latency experiment table.
const slowTeacherLatency = 5 * time.Millisecond

// largeScale multiplies every count of xmark.DefaultConfig for the
// xmark-large instance (about 25k nodes).
const largeScale = 8

// registry is the registered scenario set, in the order cmd/xlearnerd
// registers it: 19 XMark, 11 XMP, 8 Use-Case R queries.
func registry() []*scenario.Scenario {
	out := append(xmark.Scenarios(), xmp.Scenarios()...)
	return append(out, ucr.Scenarios()...)
}

var workloads = map[string]*workload{
	"suite": {
		name: "suite",
		why: "all 38 registered scenarios at stock size, default engine options, 2 clients over one warm artifact store: " +
			"the Fig. 16 workload, dominated by learner bookkeeping (angluin, R1/R2 local answering, pathre, GC)",
		clients: maxClients(2),
		setup: func(ctx context.Context, seed int64, golden map[string]string) (runner, error) {
			return newInproc(ctx, registry(), golden, true, false, "stock instance")
		},
	},
	"xmark-large": {
		name: "xmark-large",
		why: "the 19 XMark scenarios rebound to one seeded 8x instance (~25k nodes), 1 client through plain scenario.Run: " +
			"index, plans, extents, data graph and verification are built inside each session, so xq dominates",
		clients: maxClients(1),
		setup: func(ctx context.Context, seed int64, golden map[string]string) (runner, error) {
			cfg := scaled(xmark.DefaultConfig(), largeScale)
			cfg.Seed = seed
			big := xmark.Generate(cfg)
			var scns []*scenario.Scenario
			for _, base := range xmark.Scenarios() {
				s := *base
				s.Doc = func() *xmldoc.Document { return big }
				scns = append(scns, &s)
			}
			return newInproc(ctx, scns, nil, false, false, fmt.Sprintf("%dx instance seed %d", largeScale, seed))
		},
	},
	"slow-teacher": {
		name: "slow-teacher",
		why: "the 30 XMark+XMP scenarios at stock size on a warm store, batched protocol, 5ms simulated teacher round trip, 2 clients: " +
			"wall-clock is waiting on round trips, so round-trip and speculation changes move it and CPU gains should not",
		clients: maxClients(2),
		setup: func(ctx context.Context, seed int64, golden map[string]string) (runner, error) {
			return newInproc(ctx, append(xmark.Scenarios(), xmp.Scenarios()...), golden, true, true, "stock instance")
		},
	},
	"daemon": {
		name: "daemon",
		why: "in-process xlearnerd on a loopback listener, 2 HTTP clients looping create, stream to done, tree, delete; " +
			"most creates name registered scenarios, a fixed share upload specs and some of those carry unseen content: " +
			"the only workload through server/api and artifact-store misses",
		clients: maxClients(2),
		setup:   newDaemon,
	},
}

// scaled multiplies every count of cfg by k.
func scaled(cfg xmark.Config, k int) xmark.Config {
	cfg.Categories *= k
	cfg.ItemsPerRegion *= k
	cfg.People *= k
	cfg.OpenAuctions *= k
	cfg.ClosedAuctions *= k
	return cfg
}

// inproc drives sessions in-process through the scenario API.
type inproc struct {
	scns   []*scenario.Scenario
	golden []string
	labels []string
	// store is the shared artifact store; nil runs the plain
	// scenario.Prepare path, which builds everything per session.
	store   *artifacts.Store
	batched bool
	latency time.Duration
	// learned keeps each job's first learned tree as an input to the
	// per-layer timings.
	mu      sync.Mutex
	learned []*xq.Tree
	// wrap, when set, wraps a serial session's teacher; tests inject
	// teacher failures through it.
	wrap func(core.Teacher) core.Teacher
}

func newInproc(ctx context.Context, scns []*scenario.Scenario, golden map[string]string, useStore, slow bool, instance string) (*inproc, error) {
	w := &inproc{scns: scns, batched: slow, learned: make([]*xq.Tree, len(scns))}
	if slow {
		w.latency = slowTeacherLatency
	}
	for _, s := range scns {
		w.labels = append(w.labels, fmt.Sprintf("%s (%s)", s.ID, instance))
		g := ""
		if golden != nil {
			var ok bool
			if g, ok = golden[s.ID]; !ok {
				return nil, fmt.Errorf("no golden tree for %s", s.ID)
			}
		}
		w.golden = append(w.golden, g)
	}
	if useStore {
		w.store = artifacts.NewStore(artifacts.DefaultBudget)
		for _, s := range scns {
			if _, err := scenario.ResolveBundle(ctx, w.store, s); err != nil {
				return nil, err
			}
		}
	}
	return w, nil
}

func (w *inproc) jobs() int { return len(w.scns) }
func (w *inproc) close()    {}

// prepare builds the session the way the workload's users do: through
// the store (scenario.PrepareIn) or the plain path (scenario.Prepare).
// It also returns the shared-artifact options a re-built session needs.
func (w *inproc) prepare(ctx context.Context, s *scenario.Scenario, opts []core.Option) (*scenario.Prepared, []core.Option, error) {
	if w.store == nil {
		return scenario.Prepare(s, teacher.BestCase, opts...), nil, nil
	}
	b, err := scenario.ResolveBundle(ctx, w.store, s)
	if err != nil {
		return nil, nil, err
	}
	shared := []core.Option{core.WithSharedIndex(b.Index), core.WithSharedGraph(b.Graph), core.WithSharedSymbols(b.Syms)}
	return scenario.PrepareBundle(s, b, teacher.BestCase, opts...), shared, nil
}

func (w *inproc) session(ctx context.Context, j int, tr *sessionTrace) outcome {
	s := w.scns[j]
	o := outcome{kind: s.ID, label: w.labels[j], golden: w.golden[j], firstMS: -1}
	first := &firstMark{}
	var opts []core.Option
	if w.batched || tr != nil {
		opts = append(opts, core.WithObserver(func(ev core.Event) {
			if w.batched && ev.Kind == core.EventMQBatch {
				first.set(time.Now())
			}
			if tr != nil {
				tr.observe(ev)
			}
		}))
	}
	if w.batched {
		opts = append(opts, core.WithBatchedProtocol(true))
	}
	start := time.Now()
	p, shared, err := w.prepare(ctx, s, opts)
	if err != nil {
		o.err = err
		return o
	}
	p.SetTeacherLatency(w.latency)
	if tr != nil {
		return w.traced(ctx, j, o, p, append(opts, shared...), start, first, tr)
	}
	if !w.batched {
		var t core.Teacher = &firstAsk{Teacher: p.Sim, first: first}
		if w.wrap != nil {
			t = w.wrap(t)
		}
		p.Session.Engine().Teacher = t
	}
	res, err := p.Learn(ctx)
	o.ms = ms(time.Since(start))
	o.firstMS = first.since(start)
	if err != nil {
		o.err = err
		return o
	}
	o.finish(res.Tree, res.Stats, res.Verified)
	w.keep(j, res.Tree)
	return o
}

func (w *inproc) keep(j int, tree *xq.Tree) {
	w.mu.Lock()
	if w.learned[j] == nil {
		w.learned[j] = tree
	}
	w.mu.Unlock()
}

// traced runs a prepared session with the timing teacher and times
// prepare, learn and verification separately. The session is re-built
// over the timing teacher outside the timed spans.
func (w *inproc) traced(ctx context.Context, j int, o outcome, p *scenario.Prepared, opts []core.Option, start time.Time, first *firstMark, tr *sessionTrace) outcome {
	prepEnd := time.Now()
	tr.add("scenario.prepare", tr.root, start, prepEnd)
	tt := &timedTeacher{sim: p.Sim, st: tr, latency: w.latency}
	if !w.batched {
		tt.first = first
	}
	p.Session = core.New(p.Doc, tt, opts...)
	s := p.Scenario
	learnStart := time.Now()
	tr.learn = tr.t.ids.Add(1)
	tr.fragAt = learnStart
	tree, stats, err := p.Session.Learn(ctx, &core.TaskSpec{Target: s.Target, Drops: s.Drops})
	learnEnd := time.Now()
	tr.addID(tr.learn, "scenario.learn", tr.root, learnStart, learnEnd)
	prep := prepEnd.Sub(start)
	shift := learnStart.Sub(prepEnd) // the untimed re-build
	o.firstMS = first.since(start.Add(shift))
	l := tr.layer
	l.prepareMS = ms(prep)
	l.learnMS = ms(learnEnd.Sub(learnStart))
	l.coreSelfMS = l.learnMS - unionMS(l.teacherIv, learnStart, learnEnd)
	if err != nil {
		o.err = fmt.Errorf("scenario %s: %w", s.ID, err)
		o.ms = ms(prep + learnEnd.Sub(learnStart))
		tr.close("session", start, learnEnd)
		o.layer = l
		return o
	}
	verified, err := verify(ctx, p, tree)
	end := time.Now()
	tr.add("scenario.verify", tr.root, learnEnd, end)
	l.verifyMS = ms(end.Sub(learnEnd))
	l.stats = stats
	l.cache = p.Session.Engine().CacheStats().Add(p.Sim.CacheStats())
	o.ms = ms(prep + end.Sub(learnStart))
	tr.close("session", start, end)
	o.layer = l
	if err != nil {
		o.err = err
		return o
	}
	o.finish(tree, stats, verified)
	w.keep(j, tree)
	return o
}

// verify evaluates the learned query and the ground truth over the
// session's document, as scenario.Prepared.Learn does, and compares the
// results.
func verify(ctx context.Context, p *scenario.Prepared, tree *xq.Tree) (bool, error) {
	ev := func() *xq.Evaluator {
		if p.Index != nil {
			return xq.NewEvaluatorWithIndex(p.Index)
		}
		return xq.NewEvaluator(p.Doc)
	}
	learned, err := ev().Result(ctx, tree)
	if err != nil {
		return false, fmt.Errorf("scenario %s: evaluate learned query: %w", p.Scenario.ID, err)
	}
	truth, err := ev().Result(ctx, p.Truth)
	if err != nil {
		return false, fmt.Errorf("scenario %s: evaluate ground truth: %w", p.Scenario.ID, err)
	}
	return xmldoc.XMLString(learned.DocNode()) == xmldoc.XMLString(truth.DocNode()), nil
}

// finish fills a completed session's checked output.
func (o *outcome) finish(tree *xq.Tree, stats *core.Stats, verified bool) {
	o.tree = tree.String()
	o.verified = verified
	t := stats.Totals()
	o.questions = t.MQ + t.CE + t.CB + t.OB
	o.fingerprint = dialogueFingerprint(tree, stats)
}

// dialogueFingerprint covers the learned tree and every dialogue
// counter, with the transport-side speculation counters masked: the
// batched protocol and tracing may change who answers, never what.
func dialogueFingerprint(tree *xq.Tree, stats *core.Stats) string {
	st := *stats
	st.Speculation = core.SpeculationStats{}
	return fmt.Sprintf("stats=%+v tree=%q", st, tree.String())
}

func (w *inproc) counters(ctx context.Context) (counters, error) {
	if w.store == nil {
		return counters{}, nil
	}
	st := w.store.Stats()
	return counters{store: storeCounters{hits: st.Lookups.Hits, misses: st.Lookups.Misses, evictions: st.Evictions, bytes: st.Bytes}}, nil
}

// layers times the layers on the workload's documents, truth trees and
// learned trees.
func (w *inproc) layers(ctx context.Context) (layerTimes, error) {
	in := make([]layerInput, len(w.scns))
	for j, s := range w.scns {
		doc := s.Doc()
		if w.store != nil {
			b, err := scenario.ResolveBundle(ctx, w.store, s)
			if err != nil {
				return layerTimes{}, err
			}
			doc = b.Doc
		}
		w.mu.Lock()
		in[j] = layerInput{doc: doc, truth: s.Truth(), learned: w.learned[j], scn: s}
		w.mu.Unlock()
	}
	return timeLayers(ctx, in)
}
