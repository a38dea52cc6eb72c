package api

import (
	"repro/internal/artifacts"
	"repro/internal/xq"
)

// HealthV1 is the GET /healthz body.
type HealthV1 struct {
	SchemaVersion int    `json:"schema_version"`
	Status        string `json:"status"` // "ok" or "draining"
	Sessions      int    `json:"sessions"`
	Learning      int    `json:"learning"`
	UptimeMS      int64  `json:"uptime_ms"`
}

// MetricsV1 is the GET /metrics body: expvar-style counters, all
// monotonic since process start except the by-state gauge.
type MetricsV1 struct {
	SchemaVersion int `json:"schema_version"`
	// SessionsByState is the current gauge: idle/queued/learning/
	// done/failed → count (absent states omitted).
	SessionsByState map[string]int `json:"sessions_by_state"`
	SessionsCreated uint64         `json:"sessions_created"`
	SessionsDeleted uint64         `json:"sessions_deleted"`
	SessionsEvicted uint64         `json:"sessions_evicted"`
	Learn           LearnMetricsV1 `json:"learn"`
	// Interactions aggregates the teacher dialogue across every
	// completed learn.
	Interactions InteractionTotalsV1 `json:"interactions"`
	// XQCache aggregates the evaluation acceleration caches (engine and
	// teacher evaluators) across every completed learn.
	XQCache CacheStatsV1 `json:"xq_cache"`
	// Artifacts is the current state of the daemon's cross-session
	// artifact store (bundle lookups, per-document index reuse,
	// eviction pressure).
	Artifacts ArtifactStoreV1 `json:"artifact_store"`
	// Speculation (schema version 4) aggregates the transport counters
	// (see SpeculationV1) across every completed learn.
	Speculation SpeculationV1 `json:"speculation"`
}

// LearnMetricsV1 counts learn runs and their wall-clock.
type LearnMetricsV1 struct {
	Started   uint64      `json:"started"`
	Completed uint64      `json:"completed"`
	Failed    uint64      `json:"failed"`
	Canceled  uint64      `json:"canceled"`
	LatencyMS HistogramV1 `json:"latency_ms"`
}

// HistogramV1 is a fixed-bucket histogram. Counts[i] tallies samples
// <= UpperBounds[i]; Counts has one extra final entry for the unbounded
// overflow bucket, so len(Counts) == len(UpperBounds)+1.
type HistogramV1 struct {
	UpperBounds []float64 `json:"upper_bounds"`
	Counts      []uint64  `json:"counts"`
	Sum         float64   `json:"sum"`
	Count       uint64    `json:"count"`
}

// CacheCounterV1 is one cache's tally with the derived rate.
type CacheCounterV1 struct {
	Hits    uint64  `json:"hits"`
	Misses  uint64  `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// CacheStatsV1 mirrors xq.CacheStats on the wire. Plan and Arena
// (schema version 3) report the compiled plan/execute layer: plan
// compilations vs reuses and executor arena reuse. Compile (schema
// version 5) reports the plan compiler's scratch arena: carves served
// from the current chunk vs fresh chunk allocations. Extent counts
// lookups in a shared extent store (xq.SharedExtents), the only extent
// memo; only the teacher's evaluator attaches one, so engine sessions
// report zero.
type CacheStatsV1 struct {
	Path    CacheCounterV1 `json:"path"`
	Simple  CacheCounterV1 `json:"simple"`
	Value   CacheCounterV1 `json:"value"`
	Extent  CacheCounterV1 `json:"extent"`
	Relay   CacheCounterV1 `json:"relay"`
	Plan    CacheCounterV1 `json:"plan"`
	Arena   CacheCounterV1 `json:"arena"`
	Compile CacheCounterV1 `json:"compile"`
}

// ArtifactStoreV1 mirrors artifacts.Stats on the wire: Lookups tallies
// bundle resolutions by content hash, Indexes tallies per-document
// index reuse, and Evictions/Entries/Bytes describe the store's LRU
// occupancy.
type ArtifactStoreV1 struct {
	Lookups   CacheCounterV1 `json:"lookups"`
	Indexes   CacheCounterV1 `json:"indexes"`
	Evictions uint64         `json:"evictions"`
	Entries   int            `json:"entries"`
	Bytes     int64          `json:"bytes"`
	// Plans (schema version 3) tallies bundle resolutions by
	// compiled-plan reuse.
	Plans CacheCounterV1 `json:"plans"`
	// Symtabs (schema version 5) tallies bundle resolutions by learner
	// symbol-table reuse.
	Symtabs CacheCounterV1 `json:"symtabs"`
}

// InteractionTotalsV1 sums the user-facing interaction counters.
type InteractionTotalsV1 struct {
	MQ uint64 `json:"mq"`
	CE uint64 `json:"ce"`
	CB uint64 `json:"cb"`
	OB uint64 `json:"ob"`
}

// NewArtifactStoreV1 converts a store snapshot.
func NewArtifactStoreV1(s artifacts.Stats) ArtifactStoreV1 {
	conv := func(c xq.CacheCounter) CacheCounterV1 {
		return CacheCounterV1{Hits: c.Hits, Misses: c.Misses, HitRate: c.HitRate()}
	}
	return ArtifactStoreV1{
		Lookups:   conv(s.Lookups),
		Indexes:   conv(s.Indexes),
		Evictions: s.Evictions,
		Entries:   s.Entries,
		Bytes:     s.Bytes,
		Plans:     conv(s.Plans),
		Symtabs:   conv(s.Symtabs),
	}
}

// NewCacheStatsV1 converts an aggregated counter snapshot.
func NewCacheStatsV1(s xq.CacheStats) CacheStatsV1 {
	conv := func(c xq.CacheCounter) CacheCounterV1 {
		return CacheCounterV1{Hits: c.Hits, Misses: c.Misses, HitRate: c.HitRate()}
	}
	return CacheStatsV1{
		Path:    conv(s.Path),
		Simple:  conv(s.Simple),
		Value:   conv(s.Value),
		Extent:  conv(s.Extent),
		Relay:   conv(s.Relay),
		Plan:    conv(s.Plan),
		Arena:   conv(s.Arena),
		Compile: conv(s.Compile),
	}
}
