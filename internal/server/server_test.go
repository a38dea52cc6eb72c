package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// newTestServer builds a Server plus an httptest front end; the server
// is drained at test end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = testLogger()
	}
	if cfg.Scenarios == nil {
		cfg.Scenarios = xmp.Scenarios()
	}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, ts
}

// doJSON performs one request and decodes the response body into out
// (when non-nil), returning the status and response headers.
func doJSON(t *testing.T, method, url string, body, out any) (int, http.Header) {
	t.Helper()
	var buf io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		buf = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, buf)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// awaitState polls the session until it reaches a terminal or wanted
// state.
func awaitState(t *testing.T, base, id, want string) api.SessionV1 {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var sess api.SessionV1
		status, _ := doJSON(t, http.MethodGet, base+"/v1/sessions/"+id, nil, &sess)
		if status != http.StatusOK {
			t.Fatalf("GET session %s: status %d", id, status)
		}
		if sess.State == want {
			return sess
		}
		if sess.State == "done" || sess.State == "failed" {
			t.Fatalf("session %s reached terminal state %q (err %q) awaiting %q", id, sess.State, sess.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %q", id, want)
	return api.SessionV1{}
}

// TestEndToEndScenario drives the full client flow — create, learn,
// poll, fetch tree and result — and checks the daemon learns exactly
// what a direct core session learns.
func TestEndToEndScenario(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var sess api.SessionV1
	status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions",
		api.CreateSessionV1{Scenario: "XMP-Q1"}, &sess)
	if status != http.StatusCreated {
		t.Fatalf("create: status %d", status)
	}
	if sess.State != "idle" || sess.ID == "" || sess.SchemaVersion != api.SchemaVersion {
		t.Fatalf("create snapshot: %+v", sess)
	}

	status, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sess.ID+"/learn", nil, &sess)
	if status != http.StatusAccepted {
		t.Fatalf("learn: status %d", status)
	}

	done := awaitState(t, ts.URL, sess.ID, "done")
	if done.Verified == nil || !*done.Verified {
		t.Fatalf("session not verified: %+v", done)
	}
	if done.Stats == nil || done.Stats.Totals.MQ == 0 {
		t.Fatalf("missing stats: %+v", done.Stats)
	}

	var tree api.TreeV1
	if status, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sess.ID+"/tree", nil, &tree); status != http.StatusOK {
		t.Fatalf("tree: status %d", status)
	}
	var result api.ResultV1
	if status, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sess.ID+"/result", nil, &result); status != http.StatusOK {
		t.Fatalf("result: status %d", status)
	}

	direct, err := scenario.Run(context.Background(), xmp.ScenarioByID("Q1"), teacher.BestCase)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if tree.XQI != direct.Tree.String() {
		t.Errorf("daemon tree differs from direct session:\n%s\nvs\n%s", tree.XQI, direct.Tree.String())
	}
	if tree.XQuery != direct.Tree.XQueryString() {
		t.Errorf("daemon xquery rendering differs from direct session")
	}
	if !result.Verified || result.Scenario != "XMP-Q1" {
		t.Errorf("result document: %+v", result)
	}
	if got, want := result.Stats.Totals.MQ, direct.Stats.Totals().MQ; got != want {
		t.Errorf("daemon MQ %d != direct MQ %d", got, want)
	}

	// Cleanup path: delete, then the session is gone.
	if status, _ = doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+sess.ID, nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	var apiErr api.ErrorV1
	if status, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sess.ID, nil, &apiErr); status != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", status)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Error == "" {
		t.Fatalf("error envelope: %+v", apiErr)
	}
}

// TestEndToEndUploadedSpec learns from a posted SpecV1 instead of a
// registered scenario.
func TestEndToEndUploadedSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	truth := scenario.RootHolder("out",
		scenario.AnchorFor("b", "/lib/shelf/book", "entry",
			scenario.LeafFor("tv", "b", "title", "t"),
			[]*xq.Node{scenario.PlainFor("yv", "b", "year", "y")}))
	spec := &api.SpecV1{
		SourceXML: `<lib><shelf>` +
			`<book><title>A</title><year>1994</year></book>` +
			`<book><title>B</title><year>2000</year></book>` +
			`</shelf></lib>`,
		TargetDTD: `<!ELEMENT out (entry*)>
<!ELEMENT entry (t, y)>
<!ELEMENT t (#PCDATA)> <!ELEMENT y (#PCDATA)>`,
		TruthXQuery: truth.XQueryString(),
		Drops: []api.DropV1{
			{Path: "out/entry/t", Var: "tv", AnchorVar: "b",
				Select: api.SelectV1{Label: "title", Text: "A"}},
			{Path: "out/entry/y", Var: "yv",
				Select: api.SelectV1{Label: "year", Text: "1994"}},
		},
	}

	var sess api.SessionV1
	status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", api.CreateSessionV1{Spec: spec}, &sess)
	if status != http.StatusCreated {
		t.Fatalf("create from spec: status %d", status)
	}
	if sess.Scenario != "upload" {
		t.Fatalf("scenario id = %q", sess.Scenario)
	}
	if status, _ = doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+sess.ID+"/learn", nil, nil); status != http.StatusAccepted {
		t.Fatalf("learn: status %d", status)
	}
	done := awaitState(t, ts.URL, sess.ID, "done")
	if done.Verified == nil || !*done.Verified {
		t.Fatalf("uploaded spec did not verify: %+v", done)
	}

	var tree api.TreeV1
	if status, _ = doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+sess.ID+"/tree", nil, &tree); status != http.StatusOK {
		t.Fatalf("tree: status %d", status)
	}
	back, err := xq.ParseQuery(tree.XQuery)
	if err != nil {
		t.Fatalf("learned query does not reparse: %v\n%s", err, tree.XQuery)
	}
	doc := xmldoc.MustParse(spec.SourceXML)
	res, err := xq.NewEvaluator(doc).Result(context.Background(), back)
	if err != nil {
		t.Fatalf("evaluate learned query: %v", err)
	}
	if got := xmldoc.XMLString(res.DocNode()); got == "" {
		t.Fatal("empty result")
	}
}

// TestCreateRejections covers the create endpoint's taxonomy.
func TestCreateRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		body   any
		status int
	}{
		{"unknown scenario", api.CreateSessionV1{Scenario: "nope"}, http.StatusNotFound},
		{"empty", api.CreateSessionV1{}, http.StatusBadRequest},
		{"both", api.CreateSessionV1{Scenario: "XMP-Q1", Spec: &api.SpecV1{}}, http.StatusBadRequest},
		{"bad policy", api.CreateSessionV1{Scenario: "XMP-Q1", Policy: "median"}, http.StatusBadRequest},
		{"bad spec xml", api.CreateSessionV1{Spec: &api.SpecV1{SourceXML: "<unclosed"}}, http.StatusBadRequest},
		{"not json", "]", http.StatusBadRequest},
	}
	for _, c := range cases {
		var apiErr api.ErrorV1
		status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions", c.body, &apiErr)
		if status != c.status {
			t.Errorf("%s: status %d, want %d", c.name, status, c.status)
		}
		if apiErr.Status != c.status || apiErr.Error == "" {
			t.Errorf("%s: envelope %+v", c.name, apiErr)
		}
	}
}

// TestCreateBodyCap sends a create body one byte over maxCreateBody:
// the daemon answers 413 with the JSON error envelope, and every
// goroutine serving the request exits afterwards.
func TestCreateBodyCap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := runtime.NumGoroutine()

	head, tail := `{"scenario":"`, `"}`
	pad := maxCreateBody + 1 - len(head) - len(tail)
	body := io.MultiReader(strings.NewReader(head),
		io.LimitReader(repeatByte('a'), int64(pad)), strings.NewReader(tail))
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, ts.URL+"/v1/sessions", body)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.ContentLength = maxCreateBody + 1
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, raw)
	}
	var apiErr api.ErrorV1
	if err := json.Unmarshal(raw, &apiErr); err != nil {
		t.Fatalf("decode error envelope %q: %v", raw, err)
	}
	if apiErr.Status != http.StatusRequestEntityTooLarge || apiErr.Error == "" {
		t.Fatalf("envelope %+v", apiErr)
	}

	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline: %d now vs %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// repeatByte is an endless reader of one byte value.
type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// blockingLearn substitutes the manager's learn function with one that
// parks until release is closed (or the session is canceled).
func blockingLearn(release <-chan struct{}) learnFunc {
	return func(ctx context.Context, s *session, extra []core.Option) (*scenario.Result, xq.CacheStats, error) {
		select {
		case <-release:
			return &scenario.Result{Stats: &core.Stats{}, Verified: true}, xq.CacheStats{}, nil
		case <-ctx.Done():
			return nil, xq.CacheStats{}, ctx.Err()
		}
	}
}

func createSessions(t *testing.T, base string, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		var sess api.SessionV1
		status, _ := doJSON(t, http.MethodPost, base+"/v1/sessions", api.CreateSessionV1{Scenario: "XMP-Q1"}, &sess)
		if status != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, status)
		}
		ids[i] = sess.ID
	}
	return ids
}

// TestBackpressure: with one learn slot and one queue slot, the third
// concurrent learn is refused with 429 + Retry-After, and succeeds once
// the pipeline drains.
func TestBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxLearning: 1, QueueDepth: 1})
	release := make(chan struct{})
	srv.mgr.learn = blockingLearn(release)

	ids := createSessions(t, ts.URL, 3)
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[0]+"/learn", nil, nil); status != http.StatusAccepted {
		t.Fatalf("learn 0: status %d", status)
	}
	awaitState(t, ts.URL, ids[0], "learning")
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[1]+"/learn", nil, nil); status != http.StatusAccepted {
		t.Fatalf("learn 1: status %d", status)
	}

	var apiErr api.ErrorV1
	status, hdr := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[2]+"/learn", nil, &apiErr)
	if status != http.StatusTooManyRequests {
		t.Fatalf("learn 2: status %d, want 429", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("error envelope: %+v", apiErr)
	}

	// Re-POSTing a queued/learning session is busy, not re-admitted.
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[0]+"/learn", nil, nil); status != http.StatusConflict {
		t.Fatalf("learn while learning: status %d, want 409", status)
	}

	close(release)
	awaitState(t, ts.URL, ids[0], "done")
	awaitState(t, ts.URL, ids[1], "done")
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[2]+"/learn", nil, nil); status != http.StatusAccepted {
		t.Fatalf("learn 2 after drain: status %d", status)
	}
	awaitState(t, ts.URL, ids[2], "done")
}

// TestDeleteCancelsLearning: deleting a session mid-learn cancels its
// context and frees its slot.
func TestDeleteCancelsLearning(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxLearning: 1, QueueDepth: 1})
	srv.mgr.learn = blockingLearn(nil) // parks until canceled

	ids := createSessions(t, ts.URL, 2)
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[0]+"/learn", nil, nil); status != http.StatusAccepted {
		t.Fatalf("learn: status %d", status)
	}
	awaitState(t, ts.URL, ids[0], "learning")
	if status, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+ids[0], nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete: status %d", status)
	}
	// The slot frees up: the next session reaches the learning state.
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[1]+"/learn", nil, nil); status != http.StatusAccepted {
		t.Fatalf("learn 1: status %d", status)
	}
	awaitState(t, ts.URL, ids[1], "learning")
	if status, _ := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+ids[1], nil, nil); status != http.StatusNoContent {
		t.Fatalf("delete 1: status %d", status)
	}
}

// TestTreeBeforeDone: the tree endpoint classifies not-yet-done and
// failed sessions distinctly.
func TestTreeBeforeDone(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	srv.mgr.learn = func(ctx context.Context, s *session, extra []core.Option) (*scenario.Result, xq.CacheStats, error) {
		return nil, xq.CacheStats{}, errors.New("deliberate failure")
	}
	ids := createSessions(t, ts.URL, 1)

	var apiErr api.ErrorV1
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+ids[0]+"/tree", nil, &apiErr); status != http.StatusConflict {
		t.Fatalf("tree while idle: status %d, want 409", status)
	}
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[0]+"/learn", nil, nil); status != http.StatusAccepted {
		t.Fatal("learn not accepted")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var sess api.SessionV1
		doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+ids[0], nil, &sess)
		if sess.State == "failed" {
			if sess.Error == "" {
				t.Fatal("failed session without error")
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+ids[0]+"/tree", nil, &apiErr)
	if status != http.StatusConflict {
		t.Fatalf("tree after failure: status %d, want 409", status)
	}
}

// TestShutdownDrains: active learns finish inside the drain window and
// Shutdown reports a clean drain.
func TestShutdownDrains(t *testing.T) {
	srv := New(Config{Logger: testLogger(), Scenarios: xmp.Scenarios()})
	release := make(chan struct{})
	srv.mgr.learn = blockingLearn(release)
	sess, err := srv.mgr.Create("XMP-Q1", xmp.ScenarioByID("Q1"), nil, teacher.BestCase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.mgr.StartLearn(sess.ID); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain should be clean: %v", err)
	}
	got, err := srv.mgr.Get(sess.ID)
	if err != nil || got.State != "done" {
		t.Fatalf("session after drain: %+v, %v", got, err)
	}
	// A drained manager accepts nothing new.
	if _, err := srv.mgr.Create("XMP-Q1", xmp.ScenarioByID("Q1"), nil, teacher.BestCase, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after shutdown = %v, want ErrDraining", err)
	}
}

// TestShutdownCancelsStragglers: a learn that outlives the drain window
// is canceled, and Shutdown reports it.
func TestShutdownCancelsStragglers(t *testing.T) {
	srv := New(Config{Logger: testLogger(), Scenarios: xmp.Scenarios()})
	srv.mgr.learn = blockingLearn(nil) // never finishes on its own
	sess, err := srv.mgr.Create("XMP-Q1", xmp.ScenarioByID("Q1"), nil, teacher.BestCase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.mgr.StartLearn(sess.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err = srv.Shutdown(ctx)
	if err == nil {
		t.Fatal("shutdown with a stuck learn must report the forced cancel")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown error = %v", err)
	}
	got, err := srv.mgr.Get(sess.ID)
	if err != nil || got.State != "failed" {
		t.Fatalf("straggler after shutdown: %+v, %v", got, err)
	}
}

// TestTTLEviction: idle and finished sessions expire; queued/learning
// ones never do.
func TestTTLEviction(t *testing.T) {
	m := newManager(1, 1, time.Minute, 0, newMetrics(), testLogger())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	m.learn = blockingLearn(nil)

	// The fake clock is installed once, before any session goroutine can
	// read it; the test advances time through the atomic offset.
	base := time.Now()
	var offset atomic.Int64
	m.now = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	idle, err := m.Create("XMP-Q1", xmp.ScenarioByID("Q1"), nil, teacher.BestCase, nil)
	if err != nil {
		t.Fatal(err)
	}
	active, err := m.Create("XMP-Q1", xmp.ScenarioByID("Q1"), nil, teacher.BestCase, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartLearn(active.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s, err := m.Get(active.ID); err == nil && s.State == "learning" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("session never started learning")
		}
		time.Sleep(time.Millisecond)
	}

	offset.Store(int64(2 * time.Minute))
	m.evictExpired()
	if _, err := m.Get(idle.ID); !errors.Is(err, core.ErrSessionNotFound) {
		t.Fatalf("idle session survived TTL: %v", err)
	}
	if _, err := m.Get(active.ID); err != nil {
		t.Fatalf("learning session evicted: %v", err)
	}
	if err := m.Delete(active.ID); err != nil {
		t.Fatal(err)
	}
}

// TestHealthAndMetrics exercises the observability endpoints after a
// real learn.
func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var health api.HealthV1
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	if health.Status != "ok" || health.SchemaVersion != api.SchemaVersion {
		t.Fatalf("health: %+v", health)
	}

	ids := createSessions(t, ts.URL, 1)
	if status, _ := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+ids[0]+"/learn", nil, nil); status != http.StatusAccepted {
		t.Fatal("learn not accepted")
	}
	awaitState(t, ts.URL, ids[0], "done")

	var m api.MetricsV1
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m); status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	if m.SessionsCreated != 1 || m.Learn.Completed != 1 || m.Learn.Started != 1 {
		t.Fatalf("counters: %+v", m)
	}
	if m.SessionsByState["done"] != 1 {
		t.Fatalf("by-state gauge: %v", m.SessionsByState)
	}
	if m.Learn.LatencyMS.Count != 1 || len(m.Learn.LatencyMS.Counts) != len(m.Learn.LatencyMS.UpperBounds)+1 {
		t.Fatalf("latency histogram: %+v", m.Learn.LatencyMS)
	}
	if m.Interactions.MQ == 0 {
		t.Fatal("no MQ interactions aggregated")
	}
	if m.XQCache.Extent.Hits+m.XQCache.Extent.Misses == 0 {
		t.Fatal("no extent-cache traffic aggregated")
	}
	var list api.SessionListV1
	if status, _ := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions", nil, &list); status != http.StatusOK || len(list.Sessions) != 1 {
		t.Fatalf("list: status %d, %d sessions", status, len(list.Sessions))
	}
}

// TestStatusTable pins the sentinel → status classification, including
// wrapped chains.
func TestStatusTable(t *testing.T) {
	cases := []struct {
		err    error
		status int
	}{
		{core.ErrSessionNotFound, http.StatusNotFound},
		{fmt.Errorf("wrap: %w", core.ErrSessionNotFound), http.StatusNotFound},
		{core.ErrSessionBusy, http.StatusConflict},
		{core.ErrSessionNotDone, http.StatusConflict},
		{fmt.Errorf("%w: last learn: %w", core.ErrSessionFailed, errors.New("x")), http.StatusConflict},
		{ErrQueueFull, http.StatusTooManyRequests},
		{ErrDraining, http.StatusServiceUnavailable},
		{ErrUnknownScenario, http.StatusNotFound},
		{fmt.Errorf("%w: no drops", ErrBadRequest), http.StatusBadRequest},
		{errors.New("anything else"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.status {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.status)
		}
	}
}

// TestPprofGate: the profiling endpoints exist only when EnablePprof is
// set — off by default, since they expose goroutine stacks and heap
// contents.
func TestPprofGate(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET /debug/pprof/cmdline: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("GET /debug/pprof/cmdline: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on: status %d, want 200", resp.StatusCode)
	}
}
