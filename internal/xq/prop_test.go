// Property test for the acceleration layer: on every scenario truth
// tree, three evaluators must be node-for-node identical — the naive
// interpreter (acceleration off, the oracle), the compiled plan/execute
// path with a SharedExtents store attached (the teacher's production
// setup), and the bare compiled path (the engine's) — including
// repeated calls (store hits) and pinned environments (distinct store
// keys). External test package because xmark/xmp pull in core, which
// imports xq.
package xq_test

import (
	"context"
	"testing"

	"repro/internal/scenario"
	"repro/internal/xmark"
	"repro/internal/xmldoc"
	"repro/internal/xmp"
	"repro/internal/xq"
)

func sameNodes(a, b []*xmldoc.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// extentModes builds the three evaluators over one document.
func extentModes(doc *xmldoc.Document) (naive, shared, comp *xq.Evaluator) {
	naive = xq.NewEvaluator(doc)
	naive.SetAcceleration(false)
	shared = xq.NewEvaluator(doc)
	shared.ShareExtents(xq.NewSharedExtents())
	comp = xq.NewEvaluator(doc)
	return naive, shared, comp
}

// checkExtents compares all three evaluators on every bound variable of
// the tree, twice per pinned environment so the second call is served
// from the shared mode's extent store.
func checkExtents(t *testing.T, doc *xmldoc.Document, tree *xq.Tree, naive, shared, comp *xq.Evaluator) {
	t.Helper()
	ctx := context.Background()
	for _, n := range tree.Nodes() {
		if n.Var == "" {
			continue
		}
		want, err := naive.Extent(ctx, tree, n, nil)
		if err != nil {
			t.Fatalf("naive Extent($%s): %v", n.Var, err)
		}
		pins := []xq.Env{nil}
		if len(want) > 0 {
			// Pin the variable to a member (restricts the extent) and to
			// a node outside it (usually empties it): two more cache keys.
			pins = append(pins, xq.Env{n.Var: want[0]}, xq.Env{n.Var: doc.DocNode()})
		}
		for _, pin := range pins {
			want, err := naive.Extent(ctx, tree, n, pin)
			if err != nil {
				t.Fatalf("naive Extent($%s, pin): %v", n.Var, err)
			}
			for _, m := range []struct {
				mode string
				ev   *xq.Evaluator
			}{{"shared", shared}, {"compiled", comp}} {
				mode, ev := m.mode, m.ev
				for round := 0; round < 2; round++ {
					got, err := ev.Extent(ctx, tree, n, pin)
					if err != nil {
						t.Fatalf("%s Extent($%s) round %d: %v", mode, n.Var, round, err)
					}
					if !sameNodes(want, got) {
						t.Errorf("extent($%s) pin=%v round %d: %s %d nodes != naive %d nodes",
							n.Var, pin, round, mode, len(got), len(want))
					}
				}
			}
		}
	}
}

func TestAcceleratedExtentMatchesNaive(t *testing.T) {
	var scens []*scenario.Scenario
	scens = append(scens, xmark.Scenarios()...)
	scens = append(scens, xmp.Scenarios()...)
	for _, s := range scens {
		t.Run(s.ID, func(t *testing.T) {
			doc := s.Doc()
			naive, shared, comp := extentModes(doc)
			checkExtents(t, doc, s.Truth(), naive, shared, comp)
			if hits := shared.CacheStats().Extent.Hits; hits == 0 {
				t.Errorf("shared mode: Extent.Hits = 0, want round-two store hits")
			}
		})
	}
}

// TestAcceleratedExtentMatchesNaiveReseeded re-checks the XMark truth
// trees against a differently seeded, differently sized instance, so
// the comparison is not specific to the one document the experiment
// tables use.
func TestAcceleratedExtentMatchesNaiveReseeded(t *testing.T) {
	cfg := xmark.DefaultConfig()
	cfg.Seed = 7
	cfg.People = 13
	cfg.OpenAuctions = 9
	cfg.ClosedAuctions = 11
	doc := xmark.Generate(cfg)
	for _, s := range xmark.Scenarios() {
		t.Run(s.ID, func(t *testing.T) {
			naive, shared, comp := extentModes(doc)
			checkExtents(t, doc, s.Truth(), naive, shared, comp)
		})
	}
}

// TestThreeWayExtentInvalidation pins the invalidation contract across
// the three evaluators of extentModes: mutate a truth tree's
// predicates, invalidate all three, and require agreement again — the
// compiled path must recompile, not serve the plan it baked the old
// predicate into, and the shared mode must detach its store, not serve
// extents published for the old tree.
func TestThreeWayExtentInvalidation(t *testing.T) {
	var scens []*scenario.Scenario
	scens = append(scens, xmark.Scenarios()...)
	scens = append(scens, xmp.Scenarios()...)
	for _, s := range scens {
		t.Run(s.ID, func(t *testing.T) {
			doc := s.Doc()
			tree := s.Truth() // a fresh parse, safe to mutate
			var target *xq.Node
			for _, n := range tree.Nodes() {
				if n.Var != "" && len(n.Where) > 0 {
					target = n
					break
				}
			}
			if target == nil {
				t.Skip("truth tree has no predicated variable")
			}
			naive, shared, comp := extentModes(doc)
			// Warm every cache on the original tree first.
			checkExtents(t, doc, tree, naive, shared, comp)
			saved := target.Where
			target.Where = nil
			naive.InvalidateExtents()
			shared.InvalidateExtents()
			comp.InvalidateExtents()
			checkExtents(t, doc, tree, naive, shared, comp)
			target.Where = saved
			naive.InvalidateExtents()
			shared.InvalidateExtents()
			comp.InvalidateExtents()
			checkExtents(t, doc, tree, naive, shared, comp)
		})
	}
}
