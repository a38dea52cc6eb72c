package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

// freshBooks is how many seeded books a fresh upload adds to the XMP
// bibliography: enough that the contents of a run's pool differ from
// each other and from the stock instance, few enough that the instance
// stays at stock size.
const freshBooks = 3

// freshPool bounds the distinct fresh contents of a run. Unbounded, the
// store would grow by one bundle per fresh upload, so heap-live would
// track how many sessions the host managed in the run rather than what
// the daemon keeps per content.
const freshPool = 64

var (
	freshWords = []string{"Query", "Learning", "Schema", "Mapping", "Documents", "Trees", "Automata", "Joins", "Views", "Streams"}
	freshNames = []string{"Angluin", "Kearns", "Vazirani", "Morishima", "Kitagawa", "Matsumoto", "Popa", "Miller", "Haas", "Fagin"}
	freshPubs  = []string{"Addison-Wesley", "Morgan Kaufmann Publishers", "Springer", "Kluwer Academic Publishers"}
)

// freshXMP returns the XMP instance with seeded books added at the
// front of its bibliography: content no store has seen.
func freshXMP(seed int64) (*xmldoc.Document, error) {
	r := rand.New(rand.NewSource(seed))
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	var b strings.Builder
	for i := 0; i < freshBooks; i++ {
		fmt.Fprintf(&b, "<book year=\"%d\"><title>%s %s %d</title><author><last>%s</last><first>%s</first></author><publisher>%s</publisher><price>%d.95</price></book>\n",
			1980+r.Intn(40), pick(freshWords), pick(freshWords), r.Intn(1000), pick(freshNames), pick(freshNames), pick(freshPubs), 20+r.Intn(80))
	}
	doc, err := xmldoc.ParseString(strings.Replace(xmp.Source, "<bib>", "<bib>\n"+b.String(), 1))
	if err != nil {
		return nil, fmt.Errorf("fresh XMP instance: %w", err)
	}
	return doc, nil
}

// daemonJob is one kind of session a daemon client issues.
type daemonJob struct {
	kind, label string
	// create is the request body; nil for a fresh upload, whose body is
	// generated per session.
	create *api.CreateSessionV1
	golden string
	// base is the registered scenario a fresh upload rebinds.
	base *scenario.Scenario
	scn  *scenario.Scenario
}

// daemon drives an in-process xlearnerd over loopback HTTP.
type daemon struct {
	srv     *server.Server
	ts      *httptest.Server
	client  *http.Client
	jobList []daemonJob
	seed    int64
	fresh   atomic.Int64
	// learned keeps each job's first learned tree (parsed back from the
	// tree endpoint) for the per-layer timings.
	mu      sync.Mutex
	learned map[int]*xq.Tree
}

func newDaemon(ctx context.Context, seed int64, golden map[string]string) (runner, error) {
	return startDaemon(seed, golden, registry(), server.Config{})
}

// startDaemon serves reg from a daemon with cfg (whose zero fields take
// the xlearnerd defaults) and lists the jobs its clients issue. Each
// registered scenario is checked against golden when golden has it.
func startDaemon(seed int64, golden map[string]string, reg []*scenario.Scenario, cfg server.Config) (*daemon, error) {
	d := &daemon{seed: seed, learned: map[int]*xq.Tree{}}
	for _, s := range reg {
		d.jobList = append(d.jobList, daemonJob{kind: s.ID, label: s.ID + " (stock instance)",
			create: &api.CreateSessionV1{Scenario: s.ID}, golden: golden[s.ID], scn: s})
	}
	// Uploads: every registered scenario the wire format can carry, over
	// its stock document (content the warm round makes a store hit),
	// plus fresh instances of the XMP ones.
	var freshBases []*scenario.Scenario
	for _, s := range reg {
		spec, err := uploadSpec(s, s.Doc())
		if err != nil {
			continue
		}
		d.jobList = append(d.jobList, daemonJob{kind: "upload " + s.ID, label: s.ID + " upload (stock instance)",
			create: &api.CreateSessionV1{Spec: spec}, golden: golden[s.ID], scn: s})
		if xmp.ScenarioByID(s.ID) != nil {
			freshBases = append(freshBases, s)
		}
	}
	for _, b := range freshBases {
		d.jobList = append(d.jobList, daemonJob{kind: "fresh " + b.ID, base: b, scn: b})
	}
	cfg.Scenarios = reg
	// xlearnerd logs requests at info level to stderr; the benchmark
	// keeps the formatting cost and drops the text.
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	d.srv = server.New(cfg)
	d.ts = httptest.NewServer(d.srv.Handler())
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
	return d, nil
}

func (d *daemon) jobs() int { return len(d.jobList) }

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.srv.Shutdown(ctx) // every session was deleted; nothing left to drain
}

// freshJob generates the next fresh upload for job j: an XMP instance
// whose seed derives from the run seed and a run-wide counter taken
// modulo freshPool, so each of the pool's contents is a store miss on
// its first upload and a hit afterwards.
func (d *daemon) freshJob(j int) (*api.CreateSessionV1, string, error) {
	k := d.fresh.Add(1) % freshPool
	instSeed := d.seed*1_000_003 + k
	doc, err := freshXMP(instSeed)
	if err != nil {
		return nil, "", err
	}
	base := d.jobList[j].base
	s := *base
	s.Doc = func() *xmldoc.Document { return doc }
	spec, err := uploadSpec(&s, doc)
	if err != nil {
		return nil, "", err
	}
	return &api.CreateSessionV1{Spec: spec}, fmt.Sprintf("%s upload (fresh instance seed %d)", base.ID, instSeed), nil
}

// httpError is a non-success response.
type httpError struct {
	op     string
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("%s: HTTP %d: %s", e.op, e.status, e.body) }

func (d *daemon) do(ctx context.Context, method, path string, body any, want int) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.ts.URL+path, rd)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, &httpError{op: method + " " + path, status: resp.StatusCode, body: string(bytes.TrimSpace(msg))}
	}
	return resp, nil
}

func (d *daemon) getJSON(ctx context.Context, path string, v any) error {
	resp, err := d.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: decode: %w", path, err)
	}
	return nil
}

// session runs one job; o is named so that the deferred delete can
// fail it.
func (d *daemon) session(ctx context.Context, j int, tr *sessionTrace) (o outcome) {
	job := d.jobList[j]
	o = outcome{kind: job.kind, label: job.label, golden: job.golden, firstMS: -1}
	create := job.create
	if create == nil {
		var err error
		if create, o.label, err = d.freshJob(j); err != nil {
			o.err = err
			return o
		}
		o.ref = o.label // every fresh content is its own reference
	}
	var l sessionLayers
	start := time.Now()
	resp, err := d.do(ctx, http.MethodPost, "/v1/sessions", create, http.StatusCreated)
	if err != nil {
		o.err, o.rejected = err, isRejected(err)
		return o
	}
	var sess api.SessionV1
	err = json.NewDecoder(resp.Body).Decode(&sess)
	resp.Body.Close()
	if err != nil {
		o.err = fmt.Errorf("create: decode: %w", err)
		return o
	}
	created := time.Now()
	l.createMS = ms(created.Sub(start))
	defer func() {
		// Delete after the timed part; a failed delete fails the session.
		if resp, err := d.do(ctx, http.MethodDelete, "/v1/sessions/"+sess.ID, nil, http.StatusNoContent); err != nil {
			if o.err == nil {
				o.err = err
			}
		} else {
			resp.Body.Close()
		}
	}()
	done, err := d.stream(ctx, sess.ID, start, &o, &l, tr)
	streamed := time.Now()
	l.streamMS = ms(streamed.Sub(created))
	l.waitMS = unionMS(l.teacherIv, created, streamed)
	if err != nil {
		o.err = err
		return o
	}
	var tree api.TreeV1
	if err := d.getJSON(ctx, "/v1/sessions/"+sess.ID+"/tree", &tree); err != nil {
		o.err = err
		return o
	}
	end := time.Now()
	o.ms = ms(end.Sub(start))
	if tr != nil {
		tr.add("server.create", tr.root, start, created)
		tr.add("server.stream", tr.root, created, streamed)
		tr.add("server.tree", tr.root, streamed, end)
		tr.close("session", start, end)
		l.stats = coreStats(done.Stats)
		o.layer = &l
	}
	o.tree = tree.XQI
	o.verified = done.Verified != nil && *done.Verified
	if done.Stats != nil {
		t := done.Stats.Totals
		o.questions = t.MQ + t.CE + t.CB + t.OB
	}
	stats, _ := json.Marshal(done.Stats)
	o.fingerprint = fmt.Sprintf("stats=%s tree=%q", stats, tree.XQI)
	d.keep(j, tree.XQuery)
	return o
}

// stream reads the session's NDJSON frames up to the terminal frame.
func (d *daemon) stream(ctx context.Context, id string, start time.Time, o *outcome, l *sessionLayers, tr *sessionTrace) (*api.SessionV1, error) {
	resp, err := d.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/stream", nil, http.StatusOK)
	if err != nil {
		o.rejected = isRejected(err)
		return nil, err
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	batchAt := map[int]time.Time{}
	for {
		line, err := rd.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			now := time.Now()
			if l.frames == 0 {
				o.firstMS = ms(now.Sub(start))
			}
			l.frames++
			var f api.FrameV1
			if err := json.Unmarshal(line, &f); err != nil {
				return nil, fmt.Errorf("stream: frame %d: %w", l.frames, err)
			}
			switch f.Type {
			case api.FrameDone:
				if f.Session == nil {
					return nil, errors.New("stream: done frame without session")
				}
				return f.Session, nil
			case api.FrameError:
				return nil, fmt.Errorf("stream: error frame: %s", f.Error)
			case api.FrameMQBatch:
				// The teacher runs inside the daemon: a client sees one
				// round trip per announced query set.
				l.roundTrips++
				l.batches++
				if f.Batch != nil {
					l.batchNodes += len(f.Batch.Queries)
				}
				batchAt[f.Seq] = now
			case api.FrameMQAnswers:
				if at, ok := batchAt[f.Seq]; ok {
					l.teacherIv = append(l.teacherIv, [2]time.Time{at, now})
					if tr != nil {
						tr.add("core.mq_round", tr.root, at, now)
					}
				}
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, errors.New("stream: ended without a terminal frame")
			}
			return nil, fmt.Errorf("stream: %w", err)
		}
	}
}

// isRejected reports whether err is the daemon refusing admission.
func isRejected(err error) bool {
	var he *httpError
	return errors.As(err, &he) && he.status == http.StatusTooManyRequests
}

// coreStats rebuilds the dialogue counters the per-layer metrics read
// from the wire form.
func coreStats(s *api.StatsV1) *core.Stats {
	if s == nil {
		return nil
	}
	out := &core.Stats{DnD: s.DnD, DnDTerms: s.DnDTerms}
	for _, f := range s.Fragments {
		out.Fragments = append(out.Fragments, core.FragmentStats{
			Var: f.Var, MQ: f.MQ, CE: f.CE, CB: f.CB, OB: f.OB,
			ReducedTotal: f.ReducedTotal, Restarts: f.Restarts,
		})
	}
	return out
}

func (d *daemon) keep(j int, xquery string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.learned[j]; ok || d.jobList[j].create == nil {
		return
	}
	if t, err := xq.ParseQuery(xquery); err == nil {
		d.learned[j] = t
	}
}

// counters reads the daemon's cumulative server-side counters.
func (d *daemon) counters(ctx context.Context) (counters, error) {
	var m api.MetricsV1
	if err := d.getJSON(ctx, "/metrics", &m); err != nil {
		return counters{}, err
	}
	a := m.Artifacts
	c := counters{
		store:  storeCounters{hits: a.Lookups.Hits, misses: a.Lookups.Misses, evictions: a.Evictions, bytes: a.Bytes},
		server: true,
		spec: core.SpeculationStats{
			Prefetches: m.Speculation.Prefetches, MirrorAnswers: m.Speculation.MirrorAnswers,
			BatchRounds: m.Speculation.BatchRounds, BatchedMQ: m.Speculation.BatchedMQ,
			Kept: m.Speculation.Kept, Discarded: m.Speculation.Discarded,
		},
	}
	conv := func(v api.CacheCounterV1) xq.CacheCounter { return xq.CacheCounter{Hits: v.Hits, Misses: v.Misses} }
	x := m.XQCache
	c.cache = xq.CacheStats{Path: conv(x.Path), Simple: conv(x.Simple), Value: conv(x.Value), Extent: conv(x.Extent),
		Relay: conv(x.Relay), Plan: conv(x.Plan), Arena: conv(x.Arena), Compile: conv(x.Compile)}
	return c, nil
}

// layers times the layers on the registry's and the stock uploads'
// documents, truth trees and learned trees.
func (d *daemon) layers(ctx context.Context) (layerTimes, error) {
	var in []layerInput
	d.mu.Lock()
	for j, job := range d.jobList {
		if job.create == nil || job.create.Scenario == "" {
			continue
		}
		s := job.scn
		in = append(in, layerInput{doc: s.Doc(), truth: s.Truth(), learned: d.learned[j], scn: s})
	}
	d.mu.Unlock()
	return timeLayers(ctx, in)
}
