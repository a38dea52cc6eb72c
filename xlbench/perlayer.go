package main

import (
	"repro/internal/xq"
)

// perLayerMetrics lists the traced run's metrics with their units and
// the end-to-end metric each should move (and on which workload); see
// README.md for the reasoning.
var perLayerMetrics = []struct{ name, unit, moves string }{
	{"scenario.prepare_ms", "ms", "session_ms_p50 (all)"},
	{"scenario.learn_ms", "ms", "session_ms_p50 (all)"},
	{"scenario.verify_ms", "ms", "session_ms_p50 (all; heaviest on xmark-large)"},
	{"core.self_ms", "ms", "session_ms_p50, sessions_per_s (suite)"},
	{"core.auto_answered", "count", "session_ms_p50, sessions_per_s (suite)"},
	{"core.auto_share", "ratio", "session_ms_p50, sessions_per_s (suite)"},
	{"core.fragments", "count", "session_ms_p50, sessions_per_s (suite)"},
	{"core.restarts", "count", "session_ms_p50, sessions_per_s (suite)"},
	{"core.spec.prefetches", "count", "session_ms_p50, first_question_ms_p50 (slow-teacher, daemon)"},
	{"core.spec.mirror_answers", "count", "session_ms_p50, first_question_ms_p50 (slow-teacher, daemon)"},
	{"core.spec.batch_rounds", "count", "session_ms_p50, first_question_ms_p50 (slow-teacher, daemon)"},
	{"core.spec.kept", "count", "session_ms_p50, first_question_ms_p50 (slow-teacher, daemon)"},
	{"core.spec.discarded", "count", "session_ms_p50, first_question_ms_p50 (slow-teacher, daemon)"},
	{"core.spec.kept_share", "ratio", "session_ms_p50, first_question_ms_p50 (slow-teacher, daemon)"},
	{"teacher.round_trips", "count", "session_ms_p50, first_question_ms_p50 (slow-teacher)"},
	{"teacher.wait_ms", "ms", "session_ms_p50, first_question_ms_p50 (slow-teacher)"},
	{"teacher.busy_ms", "ms", "session_ms_p50 (slow-teacher; xmark-large)"},
	{"teacher.batch_size_mean", "count", "session_ms_p50, first_question_ms_p50 (slow-teacher)"},
	{"teacher.eq_calls", "count", "session_ms_p50 (slow-teacher)"},
	{"angluin.learn_us", "us", "session_ms_p50, allocs_per_session (suite)"},
	{"angluin.mq_per_learn", "count", "session_ms_p50, allocs_per_session (suite)"},
	{"pathre.compile_us", "us", "session_ms_p50 (suite)"},
	{"pathre.minimize_us", "us", "session_ms_p50 (suite)"},
	{"pathre.intersect_us", "us", "session_ms_p50 (suite)"},
	{"pathre.to_regex_us", "us", "session_ms_p50 (suite)"},
	{"pathre.states", "count", "session_ms_p50 (suite)"},
	{"xq.index_build_ms", "ms", "session_ms_p90, session_ms_p50 (xmark-large)"},
	{"xq.result_ms", "ms", "session_ms_p90, session_ms_p50 (xmark-large)"},
	{"xq.extent_us", "us", "session_ms_p90, session_ms_p50 (xmark-large)"},
	{"xq.plan_hit_share", "ratio", "session_ms_p90, session_ms_p50 (xmark-large)"},
	{"xq.extent_hit_share", "ratio", "session_ms_p90, session_ms_p50 (xmark-large)"},
	{"xq.path_hit_share", "ratio", "session_ms_p90, session_ms_p50 (xmark-large)"},
	{"xq.relay_hit_share", "ratio", "session_ms_p90, session_ms_p50 (xmark-large)"},
	{"xq.arena_hit_share", "ratio", "session_ms_p90, session_ms_p50 (xmark-large)"},
	{"xq.compile_hit_share", "ratio", "session_ms_p90, session_ms_p50 (xmark-large)"},
	{"datagraph.build_ms", "ms", "session_ms_p50 (xmark-large)"},
	{"datagraph.cond_us", "us", "session_ms_p50 (xmark-large)"},
	{"datagraph.vedges", "count", "session_ms_p50 (xmark-large)"},
	{"xmldoc.parse_ms", "ms", "session_ms_p90, heap_live_mb (daemon)"},
	{"artifacts.hit_share", "ratio", "session_ms_p90, heap_live_mb (daemon; hits on suite)"},
	{"artifacts.build_ms", "ms", "session_ms_p90, heap_live_mb (daemon)"},
	{"artifacts.evictions", "count", "session_ms_p90, heap_live_mb (daemon)"},
	{"artifacts.resident_mb", "MB", "session_ms_p90, heap_live_mb (daemon)"},
	{"server.create_ms", "ms", "session_ms_p50, failed_share (daemon)"},
	{"server.stream_ms", "ms", "session_ms_p50, failed_share (daemon)"},
	{"server.frames", "count", "session_ms_p50, failed_share (daemon)"},
	{"server.rejected", "count", "session_ms_p50, failed_share (daemon)"},
	{"runtime.gc_cpu_share", "ratio", "sessions_per_s, alloc_mb_per_session (suite)"},
	{"runtime.gc_cycles_per_session", "count", "sessions_per_s, alloc_mb_per_session (suite)"},
	{"trace.overhead_share", "ratio", "none: traced session_ms_p50 over the untraced half's, minus 1"},
}

// perLayer computes the traced run's per-layer metrics. Per-session
// quantities are means over the traced half's completed sessions.
func (r *result) perLayer() map[string]metric {
	p := &r.measured
	var (
		n                         float64
		prep, learn, verify, self float64
		auto, mq, frags, restarts float64
		rt, wait, busy, eq        float64
		batches, batchNodes       float64
		create, stream, frames    float64
		sp                        [5]float64
		cache                     xq.CacheStats
		traced                    []float64
	)
	for _, s := range p.samples {
		if !s.failed {
			traced = append(traced, s.ms)
		}
	}
	for _, l := range p.layers {
		n++
		prep += l.prepareMS
		learn += l.learnMS
		verify += l.verifyMS
		self += l.coreSelfMS
		rt += float64(l.roundTrips)
		wait += l.waitMS
		busy += l.busyMS
		eq += float64(l.eqCalls)
		batches += float64(l.batches)
		batchNodes += float64(l.batchNodes)
		create += l.createMS
		stream += l.streamMS
		frames += float64(l.frames)
		cache = cache.Add(l.cache)
		if st := l.stats; st != nil {
			t := st.Totals()
			auto += float64(t.ReducedTotal)
			mq += float64(t.MQ)
			frags += float64(len(st.Fragments))
			restarts += float64(t.Restarts)
			s := st.Speculation
			for i, v := range []int{s.Prefetches, s.MirrorAnswers, s.BatchRounds, s.Kept, s.Discarded} {
				sp[i] += float64(v)
			}
		}
	}
	per := func(x float64) float64 { return x / max(n, 1) }
	share := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	overhead := 0.0
	if r.untraced != nil {
		if base := r.e2e(r.untraced)["session_ms_p50"].Value; base > 0 {
			overhead = quantile(traced, 0.5)/base - 1
		}
	}
	if a, b := r.after, r.before; a.server {
		// The daemon's sessions run inside the server: its cache and
		// speculation counters come from GET /metrics around the
		// traced half.
		cache = subCache(a.cache, b.cache)
		s := []int{a.spec.Prefetches - b.spec.Prefetches, a.spec.MirrorAnswers - b.spec.MirrorAnswers,
			a.spec.BatchRounds - b.spec.BatchRounds, a.spec.Kept - b.spec.Kept, a.spec.Discarded - b.spec.Discarded}
		for i, v := range s {
			sp[i] = float64(v)
		}
	}
	lt := r.layers
	st := r.after.store
	m := map[string]float64{
		"scenario.prepare_ms":           per(prep),
		"scenario.learn_ms":             per(learn),
		"scenario.verify_ms":            per(verify),
		"core.self_ms":                  per(self),
		"core.auto_answered":            per(auto),
		"core.auto_share":               share(auto, mq),
		"core.fragments":                per(frags),
		"core.restarts":                 per(restarts),
		"core.spec.prefetches":          per(sp[0]),
		"core.spec.mirror_answers":      per(sp[1]),
		"core.spec.batch_rounds":        per(sp[2]),
		"core.spec.kept":                per(sp[3]),
		"core.spec.discarded":           per(sp[4]),
		"core.spec.kept_share":          share(sp[3], sp[4]),
		"teacher.round_trips":           per(rt),
		"teacher.wait_ms":               per(wait),
		"teacher.busy_ms":               per(busy),
		"teacher.batch_size_mean":       batchNodes / max(batches, 1),
		"teacher.eq_calls":              per(eq),
		"angluin.learn_us":              lt.angluinLearnUS,
		"angluin.mq_per_learn":          lt.angluinMQ,
		"pathre.compile_us":             lt.pathCompileUS,
		"pathre.minimize_us":            lt.pathMinimizeUS,
		"pathre.intersect_us":           lt.pathIntersectUS,
		"pathre.to_regex_us":            lt.pathToRegexUS,
		"pathre.states":                 lt.pathStates,
		"xq.index_build_ms":             lt.indexBuildMS,
		"xq.result_ms":                  lt.resultMS,
		"xq.extent_us":                  lt.extentUS,
		"xq.plan_hit_share":             cache.Plan.HitRate(),
		"xq.extent_hit_share":           cache.Extent.HitRate(),
		"xq.path_hit_share":             cache.Path.HitRate(),
		"xq.relay_hit_share":            cache.Relay.HitRate(),
		"xq.arena_hit_share":            cache.Arena.HitRate(),
		"xq.compile_hit_share":          cache.Compile.HitRate(),
		"datagraph.build_ms":            lt.graphBuildMS,
		"datagraph.cond_us":             lt.condUS,
		"datagraph.vedges":              lt.vedges,
		"xmldoc.parse_ms":               lt.parseMS,
		"artifacts.hit_share":           share(float64(st.hits), float64(st.misses)),
		"artifacts.build_ms":            lt.bundleBuildMS,
		"artifacts.evictions":           float64(st.evictions),
		"artifacts.resident_mb":         float64(st.bytes) / mb,
		"server.create_ms":              per(create),
		"server.stream_ms":              per(stream),
		"server.frames":                 per(frames),
		"server.rejected":               float64(rejected(p.samples)),
		"runtime.gc_cpu_share":          p.gcCPU / max(p.totalCPU, 1e-9),
		"runtime.gc_cycles_per_session": float64(p.gcCycles) / float64(max(len(p.samples), 1)),
		"trace.overhead_share":          overhead,
	}
	out := make(map[string]metric, len(perLayerMetrics))
	for _, l := range perLayerMetrics {
		out[l.name] = metric{m[l.name], l.unit}
	}
	return out
}

func rejected(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.rejected {
			n++
		}
	}
	return n
}

func subCache(a, b xq.CacheStats) xq.CacheStats {
	sub := func(x, y xq.CacheCounter) xq.CacheCounter {
		return xq.CacheCounter{Hits: x.Hits - y.Hits, Misses: x.Misses - y.Misses}
	}
	return xq.CacheStats{Path: sub(a.Path, b.Path), Simple: sub(a.Simple, b.Simple), Value: sub(a.Value, b.Value),
		Extent: sub(a.Extent, b.Extent), Relay: sub(a.Relay, b.Relay), Plan: sub(a.Plan, b.Plan),
		Arena: sub(a.Arena, b.Arena), Compile: sub(a.Compile, b.Compile)}
}
