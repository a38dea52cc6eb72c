package xq

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/must"
	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

// TestOrderByNumericMixed is the regression test for the numeric-sort
// misorder: a Numeric sort key used to force Num comparison even for
// values that failed to parse (their Num stayed 0), interleaving them
// with the real zeros. The documented rule is NaN-last: numbers first
// in numeric order — in both directions — then unparseable values in
// string order.
func TestOrderByNumericMixed(t *testing.T) {
	doc := xmldoc.MustParse(`<r><p><n>10</n></p><p><n>9</n></p><p><n>abc</n></p><p><n>zz</n></p></r>`)
	tree := NewTree(&Node{
		Var: "p", Path: pathre.MustParsePath("/r/p"),
		OrderBy: []SortKey{{Var: "p", Path: MustParseSimplePath("n"), Numeric: true}},
		Ret:     RElem{Tag: "o", Kids: []RetExpr{RPath{Var: "p", Path: MustParseSimplePath("n")}}},
	})
	ev := NewEvaluator(doc)
	order := func() string {
		res := must.Must(ev.Result(context.Background(), tree))
		var got []string
		for _, o := range res.NodesWithLabel("o") {
			got = append(got, o.Text())
		}
		return strings.Join(got, ",")
	}
	if got := order(); got != "9,10,abc,zz" {
		t.Fatalf("ascending numeric order = %s, want 9,10,abc,zz", got)
	}
	tree.Root.OrderBy[0].Descending = true
	if got := order(); got != "10,9,zz,abc" {
		t.Fatalf("descending numeric order = %s, want 10,9,zz,abc (non-numbers stay last)", got)
	}
}

// TestFormatNumRoundTrip pins the formatting symmetry: a computed
// number must print identically whether it flows through NumValue or
// straight out of an RNum literal, and the printed form must parse back
// to the same float.
func TestFormatNumRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.1, 65.95, 2.5e-3, 1e6, 1e21, -123456.789, 1.0 / 3.0} {
		s := formatNum(f)
		if got := NumValue(f).Str; got != s {
			t.Errorf("formatNum(%v) = %q but NumValue(%v).Str = %q", f, s, f, got)
		}
		back, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Errorf("ParseFloat(formatNum(%v) = %q): %v", f, s, err)
			continue
		}
		if back != f {
			t.Errorf("round trip %v -> %q -> %v", f, s, back)
		}
	}
}

// TestExtentCacheInvalidation pins the invalidation contract: mutating
// a query node's Where leaves the compiled plan, which baked in the old
// predicate, stale until InvalidateExtents, and invalidation alone (no
// other cache flush) restores correctness.
func TestExtentCacheInvalidation(t *testing.T) {
	doc := xmldoc.MustParse(`<r><i><v>1</v></i><i><v>2</v></i></r>`)
	n := &Node{
		Var: "i", Path: pathre.MustParsePath("/r/i"),
		Where: []*Pred{{Atoms: []Cmp{{Op: OpEq, L: VarOp("i", MustParseSimplePath("v")), R: ConstOp("1")}}}},
	}
	tree := NewTree(n)
	ev := NewEvaluator(doc)
	ctx := context.Background()

	if got := must.Must(ev.Extent(ctx, tree, n, nil)); len(got) != 1 {
		t.Fatalf("filtered extent = %d nodes, want 1", len(got))
	}
	n.Where = nil
	// The evaluator has not been told: its plan still filters.
	if got := must.Must(ev.Extent(ctx, tree, n, nil)); len(got) != 1 {
		t.Fatalf("stale extent = %d nodes, want 1 (plan stale until invalidated)", len(got))
	}
	ev.InvalidateExtents()
	if got := must.Must(ev.Extent(ctx, tree, n, nil)); len(got) != 2 {
		t.Fatalf("extent after InvalidateExtents = %d nodes, want 2", len(got))
	}
}

// TestRelayCandidatesIndexed drives the equality-join value index (the
// relay set is larger than relayIndexMinSize) and checks the indexed
// predicate agrees with the naive evaluator, including on repeated
// calls that hit the built index.
func TestRelayCandidatesIndexed(t *testing.T) {
	var b strings.Builder
	b.WriteString(`<r><x><id>k5</id></x><y><id>nope</id></y><ppl>`)
	for i := 1; i <= relayIndexMinSize+2; i++ {
		b.WriteString(`<p><pid>k` + strconv.Itoa(i) + `</pid></p>`)
	}
	b.WriteString(`</ppl></r>`)
	doc := xmldoc.MustParse(b.String())

	pred := &Pred{
		RelayVar: "w", RelayPath: MustParseSimplePath("r/ppl/p"),
		Atoms: []Cmp{{Op: OpEq, L: VarOp("w", MustParseSimplePath("pid")), R: VarOp("q", MustParseSimplePath("id"))}},
	}
	naive := NewEvaluator(doc)
	naive.SetAcceleration(false)
	accel := NewEvaluator(doc)
	for _, tc := range []struct {
		label string
		want  bool
	}{{"x", true}, {"y", false}} {
		env := Env{"q": doc.NodesWithLabel(tc.label)[0]}
		for round := 0; round < 2; round++ {
			if got := naive.PredHolds(pred, env); got != tc.want {
				t.Fatalf("naive PredHolds($q=%s) = %v, want %v", tc.label, got, tc.want)
			}
			if got := accel.PredHolds(pred, env); got != tc.want {
				t.Fatalf("indexed PredHolds($q=%s) round %d = %v, want %v", tc.label, round, got, tc.want)
			}
		}
	}
}
