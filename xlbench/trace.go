package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// maxSpans caps the spans a traced run keeps in memory; later spans
// are counted as dropped.
const maxSpans = 400_000

// span is one timed call at a layer boundary. Spans of one session
// share Session; Parent is the id of the span that caused it (0 for a
// session's root span).
type span struct {
	Session int64   `json:"session"`
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer collects the spans of a traced phase.
type tracer struct {
	epoch    time.Time
	ids      atomic.Int64
	sessions atomic.Int64
	mu       sync.Mutex
	spans    []span
	dropped  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// session opens the trace of one session; nil on a nil tracer, which
// is how untraced phases run.
func (t *tracer) session() *sessionTrace {
	if t == nil {
		return nil
	}
	st := &sessionTrace{t: t, id: t.sessions.Add(1), layer: &sessionLayers{}}
	st.root = t.ids.Add(1)
	return st
}

func (t *tracer) finish() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	return t.spans, t.dropped
}

// sessionTrace records one session's spans and layer counters. Teacher
// calls and observer events can arrive from prefetch goroutines, so
// every method locks.
type sessionTrace struct {
	t     *tracer
	id    int64
	root  int64
	mu    sync.Mutex
	spans []span
	layer *sessionLayers
	// learn is the span id of the session's learn call: teacher and
	// protocol spans hang below it.
	learn   int64
	batchAt map[int]time.Time
	fragAt  time.Time
}

// sessionLayers is what one traced session measured per layer.
type sessionLayers struct {
	prepareMS, learnMS, verifyMS float64
	// coreSelfMS is learn minus the union of teacherIv, the intervals
	// spent inside teacher calls (daemon: between an mq_batch frame and
	// its mq_answers).
	coreSelfMS float64
	stats      *core.Stats
	cache      xq.CacheStats
	// teacher counters: calls into the teacher, and the query sets the
	// protocol announced (mq_batch events or frames) with their sizes.
	roundTrips, eqCalls, batches, batchNodes int
	waitMS, busyMS                           float64
	teacherIv                                [][2]time.Time
	// daemon-only counters.
	createMS, streamMS float64
	frames             int
}

// add records a span of the session under a new id.
func (st *sessionTrace) add(name string, parent int64, start, end time.Time) {
	st.addID(st.t.ids.Add(1), name, parent, start, end)
}

// addID records a span whose id was taken before it ended.
func (st *sessionTrace) addID(id int64, name string, parent int64, start, end time.Time) {
	st.mu.Lock()
	st.spans = append(st.spans, span{
		Session: st.id, ID: id, Parent: parent, Name: name,
		StartUS: float64(start.Sub(st.t.epoch).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(st.t.epoch).Nanoseconds()) / 1e3,
	})
	st.mu.Unlock()
}

// close records the session's root span and hands its spans to the
// tracer.
func (st *sessionTrace) close(name string, start, end time.Time) {
	st.addID(st.root, name, 0, start, end)
	st.mu.Lock()
	spans := st.spans
	st.spans = nil
	st.mu.Unlock()
	st.t.mu.Lock()
	room := maxSpans - len(st.t.spans)
	if room < len(spans) {
		st.t.dropped += len(spans) - max(room, 0)
		spans = spans[:max(room, 0)]
	}
	st.t.spans = append(st.t.spans, spans...)
	st.t.mu.Unlock()
}

// observe turns protocol events into spans: an mq_batch/mq_answers pair
// is one "core.mq_round" span, and the stretch up to each hypothesis
// event one "core.fragment" span.
func (st *sessionTrace) observe(ev core.Event) {
	now := time.Now()
	switch ev.Kind {
	case core.EventMQBatch:
		st.mu.Lock()
		st.layer.batches++
		st.layer.batchNodes += len(ev.Queries)
		if st.batchAt == nil {
			st.batchAt = map[int]time.Time{}
		}
		st.batchAt[ev.Seq] = now
		st.mu.Unlock()
	case core.EventMQAnswers:
		st.mu.Lock()
		at, ok := st.batchAt[ev.Seq]
		delete(st.batchAt, ev.Seq)
		st.mu.Unlock()
		if ok {
			st.add("core.mq_round", st.learn, at, now)
		}
	case core.EventHypothesis:
		st.mu.Lock()
		from := st.fragAt
		st.fragAt = now
		st.mu.Unlock()
		st.add("core.fragment", st.learn, from, now)
	}
}

// teacherCall records one call into the simulated teacher; latency is
// the simulated round-trip sleep, subtracted for busy time.
func (st *sessionTrace) teacherCall(name string, start time.Time, latency time.Duration, eq bool) {
	end := time.Now()
	st.add(name, st.learn, start, end)
	d := end.Sub(start)
	st.mu.Lock()
	l := st.layer
	l.roundTrips++
	l.waitMS += ms(d)
	l.busyMS += ms(max(d-latency, 0))
	if eq {
		l.eqCalls++
	}
	l.teacherIv = append(l.teacherIv, [2]time.Time{start, end})
	st.mu.Unlock()
}

// timedTeacher wraps the simulated teacher with spans. It implements
// core.BatchTeacher, so a batched session takes the same protocol path
// as over the bare teacher; a serial session never calls the batch
// methods.
type timedTeacher struct {
	sim     core.BatchTeacher
	st      *sessionTrace
	latency time.Duration
	first   *firstMark // set for serial sessions: the first call is the first question
}

func (t *timedTeacher) mark() time.Time {
	now := time.Now()
	if t.first != nil {
		t.first.set(now)
	}
	return now
}

func (t *timedTeacher) Member(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, n *xmldoc.Node) (bool, error) {
	start := t.mark()
	ok, err := t.sim.Member(ctx, frag, pin, n)
	t.st.teacherCall("teacher.member", start, t.latency, false)
	return ok, err
}

func (t *timedTeacher) Equivalent(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) (*xmldoc.Node, bool, bool, error) {
	start := t.mark()
	ce, pos, ok, err := t.sim.Equivalent(ctx, frag, pin, hyp)
	t.st.teacherCall("teacher.equivalent", start, t.latency, true)
	return ce, pos, ok, err
}

func (t *timedTeacher) ConditionBox(ctx context.Context, frag core.FragmentRef, ce *xmldoc.Node) ([]core.BoxEntry, error) {
	start := t.mark()
	out, err := t.sim.ConditionBox(ctx, frag, ce)
	t.st.teacherCall("teacher.condition_box", start, t.latency, false)
	return out, err
}

func (t *timedTeacher) OrderBy(ctx context.Context, frag core.FragmentRef) ([]xq.SortKey, error) {
	start := t.mark()
	out, err := t.sim.OrderBy(ctx, frag)
	t.st.teacherCall("teacher.order_by", start, t.latency, false)
	return out, err
}

func (t *timedTeacher) MemberBatch(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, nodes []*xmldoc.Node) ([]bool, error) {
	start := t.mark()
	out, err := t.sim.MemberBatch(ctx, frag, pin, nodes)
	t.st.teacherCall("teacher.member_batch", start, t.latency, false)
	return out, err
}

func (t *timedTeacher) EquivalentFull(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) ([]*xmldoc.Node, []*xmldoc.Node, core.CEPolicy, error) {
	start := t.mark()
	add, rm, pol, err := t.sim.EquivalentFull(ctx, frag, pin, hyp)
	t.st.teacherCall("teacher.equivalent_full", start, t.latency, true)
	return add, rm, pol, err
}

// firstAsk passes a serial session's questions to the teacher and
// marks when the first one reached it. It implements core.Teacher
// only: serial sessions never use the batch interface.
type firstAsk struct {
	core.Teacher
	first *firstMark
}

func (f *firstAsk) Member(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, n *xmldoc.Node) (bool, error) {
	f.first.set(time.Now())
	return f.Teacher.Member(ctx, frag, pin, n)
}

func (f *firstAsk) Equivalent(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, hyp []*xmldoc.Node) (*xmldoc.Node, bool, bool, error) {
	f.first.set(time.Now())
	return f.Teacher.Equivalent(ctx, frag, pin, hyp)
}

func (f *firstAsk) ConditionBox(ctx context.Context, frag core.FragmentRef, ce *xmldoc.Node) ([]core.BoxEntry, error) {
	f.first.set(time.Now())
	return f.Teacher.ConditionBox(ctx, frag, ce)
}

func (f *firstAsk) OrderBy(ctx context.Context, frag core.FragmentRef) ([]xq.SortKey, error) {
	f.first.set(time.Now())
	return f.Teacher.OrderBy(ctx, frag)
}

// firstMark keeps the earliest time set on it; safe for concurrent use.
type firstMark struct {
	mu sync.Mutex
	at time.Time
}

func (f *firstMark) set(t time.Time) {
	f.mu.Lock()
	if f.at.IsZero() || t.Before(f.at) {
		f.at = t
	}
	f.mu.Unlock()
}

// since returns the mark relative to start in ms, or -1 when unset.
func (f *firstMark) since(start time.Time) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.at.IsZero() {
		return -1
	}
	return ms(f.at.Sub(start))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// unionMS is the total length of the union of the intervals that falls
// inside [lo, hi].
func unionMS(iv [][2]time.Time, lo, hi time.Time) float64 {
	s := append([][2]time.Time(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0].Before(s[j][0]) })
	var total time.Duration
	var curS, curE time.Time
	for _, v := range s {
		a, b := v[0], v[1]
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if !b.After(a) {
			continue
		}
		if curE.IsZero() || a.After(curE) {
			if !curE.IsZero() {
				total += curE.Sub(curS)
			}
			curS, curE = a, b
		} else if b.After(curE) {
			curE = b
		}
	}
	if !curE.IsZero() {
		total += curE.Sub(curS)
	}
	return ms(total)
}
