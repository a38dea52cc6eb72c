package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// setupReps is how many times a run sets its workload up from scratch;
// setup_s is the median, and the last set-up is the one measured.
const setupReps = 3

// workload is one named traffic mix.
type workload struct {
	name string
	// why records the reason the workload exists: the layers it
	// stresses that the others do not.
	why string
	// clients is the closed-loop client count.
	clients func() int
	// setup builds the workload's instances, stores and server for a
	// seed. It does not run sessions; execute warms the runner with one
	// untimed round afterwards.
	setup func(ctx context.Context, seed int64, golden map[string]string) (runner, error)
}

// runner runs the sessions of one set-up workload.
type runner interface {
	// jobs is the number of distinct sessions in one round.
	jobs() int
	// session runs job j once; tr is nil in untraced phases.
	session(ctx context.Context, j int, tr *sessionTrace) outcome
	// layers times each layer's public functions on the workload's own
	// inputs (traced runs only).
	layers(ctx context.Context) (layerTimes, error)
	// counters reads the workload's cumulative store and server
	// counters.
	counters(ctx context.Context) (counters, error)
	close()
}

// maxClients bounds the closed-loop client count by the host's CPUs.
func maxClients(n int) func() int {
	return func() int { return min(n, runtime.NumCPU()) }
}

// outcome is one session as the client saw it. It lives until the
// checker has seen it; a phase keeps only its sample.
type outcome struct {
	// kind names the job; ref keys the dialogue reference when it is
	// narrower than the job (a fresh upload is its own reference).
	// Sessions sharing a reference must produce byte-identical
	// dialogues.
	kind, ref string
	// label names the session for the unverified list: scenario and
	// instance seed.
	label string
	ms    float64
	// firstMS is the time to the first question, or -1 when the
	// session asked none before failing.
	firstMS   float64
	questions int
	err       error
	// rejected marks a failure that was the daemon refusing admission.
	rejected bool
	verified bool
	// fingerprint covers the learned tree and the dialogue counters.
	fingerprint string
	// tree is the learned tree in XQ-Tree notation; golden is the
	// expected one ("" when the session has no golden file).
	tree, golden string
	layer        *sessionLayers
}

// sample is what a phase keeps of one session. It is small and holds no
// strings, so the benchmark's own bookkeeping barely shows in the heap
// it measures.
type sample struct {
	ms, firstMS                float64
	job, questions             int32
	failed, rejected, verified bool
}

// checker holds the dialogue references, the mismatches found, and the
// sessions that failed or did not verify, by label, over the whole run.
type checker struct {
	mu         sync.Mutex
	refs       map[string]string
	mismatches []string
	attempted  int
	unverified map[string]int
	failures   map[string]int
}

func newChecker() *checker {
	return &checker{refs: map[string]string{}, unverified: map[string]int{}, failures: map[string]int{}}
}

// check compares a completed session against its golden tree and
// against the first completed session of its reference. Mismatches are
// kept; they fail the run.
func (c *checker) check(o *outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if o.err != nil {
		c.failures[o.label+": "+strings.TrimSpace(o.err.Error())]++
		return
	}
	if !o.verified {
		c.unverified[o.label]++
	}
	if o.golden != "" && o.tree != o.golden {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s: learned tree differs from golden\n%s", o.label, o.tree))
	}
	key := o.kind
	if o.ref != "" {
		key = o.ref
	}
	if ref, ok := c.refs[key]; !ok {
		c.refs[key] = o.fingerprint
	} else if ref != o.fingerprint {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%s: dialogue differs from the first session of its kind\n got: %s\nwant: %s", o.label, o.fingerprint, ref))
	}
}

func (c *checker) failed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, k := range c.failures {
		n += k
	}
	return n
}

// unverifiedList and failureList render the labelled counts.
func (c *checker) unverifiedList() []string { return c.list(c.unverified) }
func (c *checker) failureList() []string    { return c.list(c.failures) }

func (c *checker) list(m map[string]int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for l, n := range m {
		out = append(out, fmt.Sprintf("%s ×%d", l, n))
	}
	sort.Strings(out)
	return out
}

// scheduler hands out jobs in seeded order: every round is a fresh
// permutation of all jobs, drawn from one seeded source, so the order
// depends on the seed alone and not on which client asks.
type scheduler struct {
	mu    sync.Mutex
	rng   *rand.Rand
	n     int
	round []int
}

func newScheduler(seed int64, n int) *scheduler {
	return &scheduler{rng: rand.New(rand.NewSource(seed)), n: n}
}

// next returns the next job. A new round starts only before the
// deadline, so a phase always ends on a round boundary and every job
// weighs the same in its metrics.
func (s *scheduler) next(ctx context.Context, deadline time.Time) (int, bool) {
	return s.take(ctx, deadline, false)
}

// begin starts a phase: it opens a round unless one is under way.
func (s *scheduler) begin(ctx context.Context) { s.take(ctx, time.Time{}, true) }

func (s *scheduler) take(ctx context.Context, deadline time.Time, open bool) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.round) == 0 {
		if !open && (!time.Now().Before(deadline) || ctx.Err() != nil) {
			return 0, false
		}
		s.round = s.rng.Perm(s.n)
	}
	if open {
		return 0, true
	}
	j := s.round[0]
	s.round = s.round[1:]
	return j, true
}

// phase is one measured stretch of closed-loop load.
type phase struct {
	samples []sample
	// layers are the traced sessions' per-layer measurements.
	layers []*sessionLayers
	wall   time.Duration
	// mallocs and allocBytes are the process-wide deltas over the
	// phase; heapLive is HeapAlloc after forced GCs at its end.
	mallocs, allocBytes uint64
	heapLive            uint64
	gcCPU, totalCPU     float64
	gcCycles            uint64
}

// measure runs clients closed-loop sessions in whole rounds until dur
// has passed: the round in flight at the deadline completes and counts.
// A zero dur runs exactly one round.
func measure(ctx context.Context, d runner, clients int, sched *scheduler, dur time.Duration, tr *tracer, chk *checker) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r0 := readRuntime()
	sched.begin(ctx)
	start := time.Now()
	deadline := start.Add(dur)
	var (
		mu sync.Mutex
		p  phase
		wg sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := sched.next(ctx, deadline)
				if !ok {
					return
				}
				o := d.session(ctx, j, tr.session())
				chk.check(&o)
				s := sample{ms: o.ms, firstMS: o.firstMS, job: int32(j), questions: int32(o.questions),
					failed: o.err != nil, rejected: o.rejected, verified: o.verified}
				mu.Lock()
				p.samples = append(p.samples, s)
				if o.layer != nil && o.err == nil {
					p.layers = append(p.layers, o.layer)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	r1 := readRuntime()
	// Two collections: the first moves sync.Pool contents to the victim
	// cache and the second frees them, so heap-live reads what the run
	// keeps (stores, documents, indexes) and not which scratch buffers
	// the last sessions happened to pool.
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.heapLive = m2.HeapAlloc
	p.gcCPU = r1.gcCPU - r0.gcCPU
	p.totalCPU = r1.totalCPU - r0.totalCPU
	p.gcCycles = r1.gcCycles - r0.gcCycles
	return p
}

type runtimeSample struct {
	gcCPU, totalCPU float64
	gcCycles        uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		r.gcCycles = s[2].Value.Uint64()
	}
	return r
}

// result is everything one run measured.
type result struct {
	host     hostStamp
	clients  int
	setup    []float64
	measured phase
	untraced *phase // trace runs: the untraced half, for the overhead
	layers   layerTimes
	// before and after bracket the traced phase; after is read at the
	// end of every run.
	before, after counters
	spans         []span
	dropped       int
	chk           *checker
	spanFile      string
	reportErr     error
}

// execute sets the workload up setupReps times, warms the last set-up
// with one untimed round, then measures. A traced run measures half its
// time untraced and half traced, then times the layers.
func execute(ctx context.Context, o options, wl *workload, golden map[string]string) (*result, error) {
	res := &result{host: stampHost(o), clients: wl.clients(), chk: newChecker()}
	var d runner
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.close()
		}
		start := time.Now()
		var err error
		if d, err = wl.setup(ctx, o.seed, golden); err != nil {
			return nil, fmt.Errorf("set up %s: %w", wl.name, err)
		}
		// The warm round fills lazily built shared state (truth-extent
		// memos, pools) and records the dialogue references; it is part
		// of set-up so that work moved into it shows in setup_s.
		measure(ctx, d, res.clients, newScheduler(o.seed, d.jobs()), 0, nil, res.chk)
		res.setup = append(res.setup, time.Since(start).Seconds())
	}
	defer d.close()
	sched := newScheduler(o.seed, d.jobs())
	dur := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		res.measured = measure(ctx, d, res.clients, sched, dur, nil, res.chk)
	} else {
		base := measure(ctx, d, res.clients, sched, dur/2, nil, res.chk)
		res.untraced = &base
		tr := newTracer()
		var err error
		if res.before, err = d.counters(ctx); err != nil {
			return nil, err
		}
		res.measured = measure(ctx, d, res.clients, sched, dur/2, tr, res.chk)
		res.spans, res.dropped = tr.finish()
		if res.layers, err = d.layers(ctx); err != nil {
			return nil, fmt.Errorf("time layers: %w", err)
		}
	}
	var err error
	if res.after, err = d.counters(ctx); err != nil {
		return nil, err
	}
	res.reportErr = writeDump(o, wl, res)
	return res, nil
}

// writeDump writes the run's full report, and a traced run's spans,
// to the output directory.
func writeDump(o options, wl *workload, res *result) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", o.out, err)
	}
	mode := "run"
	if o.trace {
		mode = "trace"
	}
	res.spanFile = filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s.json", wl.name, o.seed, mode))
	f, err := os.Create(res.spanFile)
	if err != nil {
		return fmt.Errorf("create %s: %w", res.spanFile, err)
	}
	if err := writeJSONReport(f, o, wl, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (which it does not
// modify); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}
