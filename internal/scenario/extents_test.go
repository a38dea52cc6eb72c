package scenario_test

import (
	"context"
	"testing"

	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmp"
	"repro/internal/xq"
)

// TestExtentMemoOnlyOnTeacher pins where extents are memoized. The
// engine rewrites its hypothesis trees, so its evaluator never attaches
// an extent store and never counts an extent lookup; the teacher
// answers against the immutable ground truth through the bundle's
// SharedExtents store, and across every registered scenario that store
// must serve hits.
func TestExtentMemoOnlyOnTeacher(t *testing.T) {
	ctx := context.Background()
	scns := append(append(xmark.Scenarios(), xmp.Scenarios()...), ucr.Scenarios()...)
	if len(scns) != 38 {
		t.Fatalf("%d registered scenarios, want 38", len(scns))
	}
	var teacherHits uint64
	for _, s := range scns {
		p := scenario.Prepare(s, teacher.BestCase)
		res, err := p.Learn(ctx)
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if !res.Verified {
			t.Errorf("%s: learned query not verified", s.ID)
		}
		if got := p.Session.Engine().CacheStats().Extent; got != (xq.CacheCounter{}) {
			t.Errorf("%s: engine Extent = %+v, want no lookups", s.ID, got)
		}
		teacherHits += p.Sim.CacheStats().Extent.Hits
	}
	if teacherHits == 0 {
		t.Fatal("teacher Extent.Hits summed over all scenarios = 0, want store hits")
	}
}
