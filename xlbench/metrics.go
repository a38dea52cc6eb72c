package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metric is one named, unit-carrying number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics in report order. The ones
// marked gated are the BENCHMARK.json end_to_end set and appear in the
// untraced run's final JSON line. The others are printed only:
// failed_share and unverified_share are zero at a healthy commit, so no
// relative bound can gate them (failures also reach the final line as
// the failed count), and first_question_ms_p50, a fraction of a
// millisecond of CPU and goroutine wake-up on most workloads, spreads
// wider across seeds than the largest bound allows.
var endToEnd = []struct {
	name, unit, better string
	gated              bool
}{
	{"session_ms_p50", "ms", "lower", true},
	{"session_ms_p90", "ms", "lower", true},
	{"sessions_per_s", "1/s", "higher", true},
	{"first_question_ms_p50", "ms", "lower", false},
	{"questions_per_session", "count", "lower", true},
	{"failed_share", "ratio", "lower", false},
	{"unverified_share", "ratio", "lower", false},
	{"allocs_per_session", "count", "lower", true},
	{"alloc_mb_per_session", "MB", "lower", true},
	{"heap_live_mb", "MB", "lower", true},
	{"setup_s", "s", "lower", true},
}

// untracedPhase is the phase the end-to-end metrics come from: the
// whole measured phase of an untraced run, the untraced half of a
// traced one.
func (r *result) untracedPhase() *phase {
	if r.untraced != nil {
		return r.untraced
	}
	return &r.measured
}

// e2e computes the end-to-end metrics of phase p.
func (r *result) e2e(p *phase) map[string]metric {
	var times, first []float64
	completed, unverified, failed := 0, 0, 0
	// questions_per_session weights every job equally, so a run that
	// ends inside a round reads the same as one that ends on a round
	// boundary.
	qsum := map[int32]float64{}
	qn := map[int32]float64{}
	for _, s := range p.samples {
		if s.failed {
			failed++
			// A failed session misses any latency limit.
			times = append(times, inf)
			continue
		}
		completed++
		times = append(times, s.ms)
		if s.firstMS >= 0 {
			first = append(first, s.firstMS)
		}
		if !s.verified {
			unverified++
		}
		qsum[s.job] += float64(s.questions)
		qn[s.job]++
	}
	var q float64
	for k := range qsum {
		q += qsum[k] / qn[k]
	}
	n := float64(max(len(p.samples), 1))
	return map[string]metric{
		"session_ms_p50":        {quantile(times, 0.5), "ms"},
		"session_ms_p90":        {quantile(times, 0.9), "ms"},
		"sessions_per_s":        {float64(completed) / p.wall.Seconds(), "1/s"},
		"first_question_ms_p50": {quantile(first, 0.5), "ms"},
		"questions_per_session": {q / float64(max(len(qsum), 1)), "count"},
		"failed_share":          {float64(failed) / n, "ratio"},
		"unverified_share":      {float64(unverified) / float64(max(completed, 1)), "ratio"},
		"allocs_per_session":    {float64(p.mallocs) / n, "count"},
		"alloc_mb_per_session":  {float64(p.allocBytes) / n / mb, "MB"},
		"heap_live_mb":          {float64(p.heapLive) / mb, "MB"},
		"setup_s":               {median(r.setup), "s"},
	}
}

const mb = 1 << 20

var inf = 1e300

// summary is the final JSON line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) summary(trace bool) summary {
	s := summary{
		Correct:   len(r.chk.mismatches) == 0 && r.reportErr == nil,
		Attempted: r.chk.attempted,
		Failed:    r.chk.failed(),
		Metrics:   map[string]metric{},
	}
	if trace {
		for name, m := range r.perLayer() {
			s.Metrics[name] = m
		}
		return s
	}
	all := r.e2e(r.untracedPhase())
	for _, e := range endToEnd {
		if e.gated {
			s.Metrics[e.name] = all[e.name]
		}
	}
	return s
}

// hostStamp identifies where and from what a result was measured.
type hostStamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func stampHost(o options) hostStamp {
	wl := workloads[o.workload]
	return hostStamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Commit:     o.commit,
		Seed:       o.seed,
		Workload:   o.workload,
		Clients:    wl.clients(),
		Seconds:    o.seconds,
		Trace:      o.trace,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where the
// kernel provides one.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReport writes the human-readable report that precedes the JSON
// line.
func printReport(w io.Writer, o options, wl *workload, r *result) {
	h := r.host
	fmt.Fprintf(w, "xlbench %s  seed=%d  seconds=%g  trace=%v  clients=%d\n", wl.name, o.seed, o.seconds, o.trace, r.clients)
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q commit=%s\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH, h.CPUModel, h.Commit)
	fmt.Fprintf(w, "workload: %s\n", wl.why)
	fmt.Fprintf(w, "set-up: %d repetitions %v s (median reported)\n", len(r.setup), roundAll(r.setup))
	p := r.untracedPhase()
	samples := len(p.samples)
	fmt.Fprintf(w, "measured: %d sessions in %.2f s; %d samples beyond p90", samples, p.wall.Seconds(), samples-int(0.9*float64(samples)+0.999999999))
	if samples < 100 {
		fmt.Fprint(w, " (fewer than 10: p90 is not resolved)")
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "end-to-end metrics:")
	m := r.e2e(p)
	for _, e := range endToEnd {
		gate := ""
		if !e.gated {
			gate = "  (reported, not gated)"
		}
		fmt.Fprintf(w, "  %-24s %14.4f %-6s %s is better%s\n", e.name, m[e.name].Value, e.unit, e.better, gate)
	}
	if un := r.chk.unverifiedList(); len(un) > 0 {
		fmt.Fprintln(w, "unverified sessions (learned query's result differs from the ground truth's):")
		for _, l := range un {
			fmt.Fprintln(w, "  "+l)
		}
	}
	if fl := r.chk.failureList(); len(fl) > 0 {
		fmt.Fprintln(w, "failed sessions:")
		for _, l := range fl {
			fmt.Fprintln(w, "  "+l)
		}
	}
	if o.trace {
		fmt.Fprintf(w, "per-layer metrics (traced half; %d spans kept, %d dropped):\n", len(r.spans), r.dropped)
		pl := r.perLayer()
		for _, l := range perLayerMetrics {
			fmt.Fprintf(w, "  %-30s %14.4f %-6s moves %s\n", l.name, pl[l.name].Value, l.unit, l.moves)
		}
	}
	for _, mm := range r.chk.mismatches {
		fmt.Fprintln(w, "MISMATCH "+mm)
	}
	if r.reportErr != nil {
		fmt.Fprintln(w, "report dump failed:", r.reportErr)
	} else {
		fmt.Fprintln(w, "full report:", r.spanFile)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int64(x*1000+0.5)) / 1000
	}
	return out
}

// writeJSONReport dumps the full result: host stamp, every metric,
// unverified and failed sessions, mismatches and, for a traced run,
// the spans.
func writeJSONReport(w io.Writer, o options, wl *workload, r *result) error {
	doc := struct {
		Host         hostStamp         `json:"host"`
		Why          string            `json:"why"`
		SetupS       []float64         `json:"setup_s_repetitions"`
		Sessions     int               `json:"measured_sessions"`
		EndToEnd     map[string]metric `json:"end_to_end"`
		PerLayer     map[string]metric `json:"per_layer,omitempty"`
		Unverified   []string          `json:"unverified"`
		Failed       []string          `json:"failed"`
		Mismatches   []string          `json:"mismatches"`
		Spans        []span            `json:"spans,omitempty"`
		SpansDropped int               `json:"spans_dropped,omitempty"`
	}{
		Host:         r.host,
		Why:          wl.why,
		SetupS:       r.setup,
		Sessions:     len(r.untracedPhase().samples),
		EndToEnd:     r.e2e(r.untracedPhase()),
		Unverified:   r.chk.unverifiedList(),
		Failed:       r.chk.failureList(),
		Mismatches:   r.chk.mismatches,
		Spans:        r.spans,
		SpansDropped: r.dropped,
	}
	if o.trace {
		doc.PerLayer = r.perLayer()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
