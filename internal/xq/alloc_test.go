//go:build !race

package xq

import (
	"context"
	"strings"
	"testing"

	"repro/internal/xmldoc"
)

// allocDoc is a fixed instance large enough that a regression on the
// per-node or per-extent allocation paths shows up in the bounds below.
func allocDoc() (*xmldoc.Document, string) {
	var b strings.Builder
	b.WriteString("<site><regions><europe>")
	for i := 0; i < 200; i++ {
		b.WriteString("<item id=\"a\"><name>x</name><payment>Cash</payment></item>")
	}
	b.WriteString("</europe></regions></site>")
	return xmldoc.MustParse(b.String()), b.String()
}

// TestExtentHotPathAllocs pins the steady-state allocation cost of the
// evaluator's uncached Extent path: after the first call compiles the
// plan and warms the path caches, a repeat extent question runs the
// compiled executor again and allocates only the caller-owned result
// copy. Extent is asked once per membership query the rules cannot
// prune, so any allocation here multiplies across the whole benchmark
// table. (Build-tagged out under -race: the detector's instrumentation
// allocates.)
func TestExtentHotPathAllocs(t *testing.T) {
	doc, _ := allocDoc()
	tree := MustParseQuery(`for $i in /site/regions/europe/item return <r>$i</r>`)
	n := tree.VarNode("i")
	if n == nil {
		t.Fatal("no var node")
	}
	ev := NewEvaluator(doc)
	ctx := context.Background()
	if _, err := ev.Extent(ctx, tree, n, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ev.Extent(ctx, tree, n, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("compiled Extent allocates %.1f objects per call, want <= 1", allocs)
	}
}

// TestCompiledExecAllocs pins the compiled executor's steady state: a
// warm plan run must complete entirely inside the arena — candidates
// stream from the path caches, operand values from the dense value
// cache, bindings and output through the reused scratch — with zero
// heap allocations. This is the budget the ablation table's >=2x
// allocation reduction rests on; any object born here multiplies by
// every membership query of every dialogue.
func TestCompiledExecAllocs(t *testing.T) {
	doc, _ := allocDoc()
	tree := MustParseQuery(`for $i in /site/regions/europe/item where data($i/payment) = "Cash" return <r>$i</r>`)
	n := tree.VarNode("i")
	if n == nil {
		t.Fatal("no var node")
	}
	ev := NewEvaluator(doc)
	ctx := context.Background()
	// First Extent compiles the plan and warms the path/value caches and
	// the arena; afterwards the raw executor must be allocation-free.
	if _, err := ev.Extent(ctx, tree, n, nil); err != nil {
		t.Fatal(err)
	}
	p, err := ev.planFor(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.execExtent(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ev.execExtent(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm compiled execExtent allocates %.1f objects per run, want 0", allocs)
	}
}

// TestSharedExtentHitAllocs pins the cross-session variant: a hit in a
// published SharedExtents store must stay allocation-free too, since
// every concurrent server session funnels through it.
func TestSharedExtentHitAllocs(t *testing.T) {
	doc, _ := allocDoc()
	tree := MustParseQuery(`for $i in /site/regions/europe/item return <r>$i</r>`)
	n := tree.VarNode("i")
	shared := NewSharedExtents()
	ev := NewEvaluator(doc)
	ev.ShareExtents(shared)
	ctx := context.Background()
	if _, err := ev.Extent(ctx, tree, n, nil); err != nil {
		t.Fatal(err)
	}
	// A second evaluator sharing the store answers from the published
	// extent without recomputing.
	ev2 := NewEvaluatorWithIndex(ev.Index())
	ev2.ShareExtents(shared)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ev2.Extent(ctx, tree, n, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("shared-extent hit allocates %.1f objects per call, want <= 1", allocs)
	}
}
