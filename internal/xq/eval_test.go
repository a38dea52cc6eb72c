package xq

import (
	"context"
	"errors"
	"repro/internal/must"
	"strings"
	"testing"

	"repro/internal/pathre"
	"repro/internal/xmldoc"
)

func findCategory(t *testing.T, doc *xmldoc.Document, name string) *xmldoc.Node {
	t.Helper()
	for _, c := range doc.NodesWithLabel("category") {
		if n := c.FirstChildNamed("name"); n != nil && n.Text() == name {
			return c
		}
	}
	t.Fatalf("no category named %q", name)
	return nil
}

func texts(nodes []*xmldoc.Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = strings.TrimSpace(n.Text())
	}
	return out
}

func TestExtentOfBook(t *testing.T) {
	// EXT_book,∅: all category name nodes (paper Section 2).
	doc := figure4Doc()
	q1 := buildQ1()
	ev := NewEvaluator(doc)
	n111 := q1.NodeByName("N1.1.1")
	if n111 == nil {
		t.Fatal("N1.1.1 not found")
	}
	got := texts(must.Must(ev.Extent(context.Background(), q1, n111, nil)))
	if len(got) != 2 || got[0] != "computer" || got[1] != "book" {
		t.Fatalf("EXT_book = %v", got)
	}
}

func TestExtentOfHPotterInContext(t *testing.T) {
	// EXT_{H.Potter,{(c,book)}}: item names in africa|europe, category
	// book, sold for < 300 — only "H. Potter" (Encyclopedia costs 700,
	// XML book is in asia).
	doc := figure4Doc()
	q1 := buildQ1()
	ev := NewEvaluator(doc)
	n1121 := q1.NodeByName("N1.1.2.1")
	book := findCategory(t, doc, "book")
	got := texts(must.Must(ev.Extent(context.Background(), q1, n1121, Env{"c": book})))
	if len(got) != 1 || got[0] != "H. Potter" {
		t.Fatalf("EXT_HPotter = %v", got)
	}
	// In the computer category the extent is empty.
	computer := findCategory(t, doc, "computer")
	if got := must.Must(ev.Extent(context.Background(), q1, n1121, Env{"c": computer})); len(got) != 0 {
		t.Fatalf("computer-category extent = %v", texts(got))
	}
}

func TestExtentItemNode(t *testing.T) {
	// EXT for the item node itself in the book context.
	doc := figure4Doc()
	q1 := buildQ1()
	ev := NewEvaluator(doc)
	n112 := q1.NodeByName("N1.1.2")
	book := findCategory(t, doc, "book")
	got := must.Must(ev.Extent(context.Background(), q1, n112, Env{"c": book}))
	if len(got) != 1 {
		t.Fatalf("item extent size = %d", len(got))
	}
	if id, _ := got[0].Attr("id"); id != "i7" {
		t.Fatalf("item extent = %s", id)
	}
}

func TestExtentPinnedOwnVar(t *testing.T) {
	// Pinning the extent variable itself restricts to that node if it
	// qualifies, else empty.
	doc := figure4Doc()
	q1 := buildQ1()
	ev := NewEvaluator(doc)
	n112 := q1.NodeByName("N1.1.2")
	book := findCategory(t, doc, "book")
	var i6, i7 *xmldoc.Node
	for _, it := range doc.NodesWithLabel("item") {
		switch id, _ := it.Attr("id"); id {
		case "i6":
			i6 = it
		case "i7":
			i7 = it
		}
	}
	if got := must.Must(ev.Extent(context.Background(), q1, n112, Env{"c": book, "i": i7})); len(got) != 1 {
		t.Fatalf("pin i7: %v", texts(got))
	}
	if got := must.Must(ev.Extent(context.Background(), q1, n112, Env{"c": book, "i": i6})); len(got) != 0 {
		t.Fatalf("pin i6 (price 700) should be empty: %v", texts(got))
	}
}

func TestFullResult(t *testing.T) {
	doc := figure4Doc()
	q1 := buildQ1()
	ev := NewEvaluator(doc)
	res := must.Must(ev.Result(context.Background(), q1))
	root := res.Root()
	if root == nil || root.Name != "i_list" {
		t.Fatalf("result root = %v", root)
	}
	cats := root.ChildElementsNamed("category")
	if len(cats) != 2 {
		t.Fatalf("categories = %d", len(cats))
	}
	// First category (computer): empty item list.
	if cname := cats[0].FirstChildNamed("cname"); cname.Text() != "computer" {
		t.Fatalf("first cname = %q", cname.Text())
	}
	if items := cats[0].ChildElementsNamed("item"); len(items) != 0 {
		t.Fatalf("computer items = %d", len(items))
	}
	// Second category (book): exactly H. Potter.
	if cname := cats[1].FirstChildNamed("cname"); cname.Text() != "book" {
		t.Fatalf("second cname = %q", cname.Text())
	}
	items := cats[1].ChildElementsNamed("item")
	if len(items) != 1 {
		t.Fatalf("book items = %d", len(items))
	}
	iname := items[0].FirstChildNamed("iname")
	if iname == nil || !strings.Contains(iname.Text(), "H. Potter") {
		t.Fatalf("iname = %v", iname)
	}
	desc := items[0].FirstChildNamed("desc")
	if desc == nil || !strings.Contains(desc.Text(), "Best Seller") {
		t.Fatalf("desc = %v", desc)
	}
}

func TestResultSerializes(t *testing.T) {
	ev := NewEvaluator(figure4Doc())
	res := must.Must(ev.Result(context.Background(), buildQ1()))
	s := xmldoc.XMLString(res.Root())
	if _, err := xmldoc.ParseString(s); err != nil {
		t.Fatalf("result does not reparse: %v\n%s", err, s)
	}
}

func TestSimplePathPositions(t *testing.T) {
	doc := xmldoc.MustParse(`<a><b>1</b><b>2</b><b>3</b><c k="v"><b>9</b></c></a>`)
	root := doc.Root()
	cases := []struct {
		path string
		want []string
	}{
		{"b", []string{"1", "2", "3"}},
		{"b[1]", []string{"1"}},
		{"b[2]", []string{"2"}},
		{"b[last()]", []string{"3"}},
		{"b[4]", nil},
		{"c/b", []string{"9"}},
		{"c/@k", []string{"v"}},
		{"zzz", nil},
	}
	for _, c := range cases {
		got := texts(EvalSimplePath(root, MustParseSimplePath(c.path)))
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.path, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: got %v, want %v", c.path, got, c.want)
				break
			}
		}
	}
	// Empty path = context node.
	if got := EvalSimplePath(root, nil); len(got) != 1 || got[0] != root {
		t.Error("empty simple path should yield the context node")
	}
}

func TestSimplePathParseErrors(t *testing.T) {
	for _, bad := range []string{"a[", "a[0]", "a[x]", "a//b", "a[1"} {
		if _, err := ParseSimplePath(bad); err == nil {
			t.Errorf("ParseSimplePath(%q) should fail", bad)
		}
	}
}

func TestPredicateEvaluation(t *testing.T) {
	doc := xmldoc.MustParse(`<r>
	  <x id="1"><v>10</v></x>
	  <y ref="1"><w>10</w></y>
	  <y ref="2"><w>99</w></y>
	</r>`)
	ev := NewEvaluator(doc)
	x := doc.NodesWithLabel("x")[0]
	y1 := doc.NodesWithLabel("y")[0]
	y2 := doc.NodesWithLabel("y")[1]
	env := Env{"x": x, "y": y1}

	eq := EqJoin("x", MustParseSimplePath("@id"), "y", MustParseSimplePath("@ref"))
	if !ev.PredHolds(eq, env) {
		t.Error("join on matching ids should hold")
	}
	if ev.PredHolds(eq, Env{"x": x, "y": y2}) {
		t.Error("join on mismatched ids should fail")
	}

	lt := &Pred{Atoms: []Cmp{{Op: OpLt, L: VarOp("y", MustParseSimplePath("w")), R: ConstOp("50")}}}
	if !ev.PredHolds(lt, env) {
		t.Error("10 < 50")
	}
	if ev.PredHolds(lt, Env{"y": y2}) {
		t.Error("99 < 50 should fail")
	}

	neg := &Pred{Negated: true, Atoms: lt.Atoms}
	if ev.PredHolds(neg, env) != !ev.PredHolds(lt, env) {
		t.Error("negation should invert")
	}

	empty := &Pred{Atoms: []Cmp{{Op: OpEmpty, L: VarOp("x", MustParseSimplePath("nothing"))}}}
	if !ev.PredHolds(empty, env) {
		t.Error("empty(x/nothing) should hold")
	}
	nonEmpty := &Pred{Atoms: []Cmp{{Op: OpEmpty, L: VarOp("x", MustParseSimplePath("v"))}}}
	if ev.PredHolds(nonEmpty, env) {
		t.Error("empty(x/v) should fail")
	}
}

func TestRelayFromVariable(t *testing.T) {
	// Rel2: some w in $x/q satisfies data(w) = data($y).
	doc := xmldoc.MustParse(`<r><x><k>7</k><k>8</k></x><y>8</y><z>1</z></r>`)
	ev := NewEvaluator(doc)
	x := doc.NodesWithLabel("x")[0]
	y := doc.NodesWithLabel("y")[0]
	z := doc.NodesWithLabel("z")[0]
	p := &Pred{
		RelayVar: "w", RelayFrom: "x", RelayPath: MustParseSimplePath("k"),
		Atoms: []Cmp{{Op: OpEq, L: VarOp("w", nil), R: VarOp("y", nil)}},
	}
	if !ev.PredHolds(p, Env{"x": x, "y": y}) {
		t.Error("some k = 8 should hold")
	}
	if ev.PredHolds(p, Env{"x": x, "y": z}) {
		t.Error("no k = 1")
	}
}

func TestStringComparison(t *testing.T) {
	doc := xmldoc.MustParse(`<r><a>apple</a><b>banana</b></r>`)
	ev := NewEvaluator(doc)
	env := Env{"a": doc.NodesWithLabel("a")[0], "b": doc.NodesWithLabel("b")[0]}
	lt := &Pred{Atoms: []Cmp{{Op: OpLt, L: VarOp("a", nil), R: VarOp("b", nil)}}}
	if !ev.PredHolds(lt, env) {
		t.Error("apple < banana lexicographically")
	}
}

func TestOrderBy(t *testing.T) {
	doc := xmldoc.MustParse(`<r><p><n>30</n></p><p><n>10</n></p><p><n>20</n></p></r>`)
	tree := NewTree(&Node{
		Var: "p", Path: pathre.MustParsePath("/r/p"),
		OrderBy: []SortKey{{Var: "p", Path: MustParseSimplePath("n")}},
		Ret:     RElem{Tag: "o", Kids: []RetExpr{RPath{Var: "p", Path: MustParseSimplePath("n")}}},
	})
	ev := NewEvaluator(doc)
	res := must.Must(ev.Result(context.Background(), tree))
	var got []string
	for _, o := range res.NodesWithLabel("o") {
		got = append(got, o.Text())
	}
	if strings.Join(got, ",") != "10,20,30" {
		t.Fatalf("ascending order = %v", got)
	}
	tree.Root.OrderBy[0].Descending = true
	res = must.Must(ev.Result(context.Background(), tree))
	got = nil
	for _, o := range res.NodesWithLabel("o") {
		got = append(got, o.Text())
	}
	if strings.Join(got, ",") != "30,20,10" {
		t.Fatalf("descending order = %v", got)
	}
}

func TestFunctionsFigure14(t *testing.T) {
	// Figure 14: Nx returns count(distinct(values)) * 10.
	doc := xmldoc.MustParse(`<r><v>1</v><v>2</v><v>2</v><v>3</v></r>`)
	inner := &Node{Var: "w", Path: pathre.MustParsePath("/r/v"), Ret: RVar{Name: "w"}}
	root := &Node{
		Ret: RElem{Tag: "amount", Kids: []RetExpr{
			RBin{Op: "*",
				L: RFunc{Name: "count", Args: []RetExpr{RFunc{Name: "distinct", Args: []RetExpr{RChild{Node: inner}}}}},
				R: RNum{Value: 10}},
		}},
		Children: []*Node{inner},
	}
	ev := NewEvaluator(doc)
	res := must.Must(ev.Result(context.Background(), NewTree(root)))
	amount := res.NodesWithLabel("amount")[0]
	if amount.Text() != "30" { // 3 distinct values * 10
		t.Fatalf("amount = %q, want 30", amount.Text())
	}
}

func TestAggregates(t *testing.T) {
	doc := xmldoc.MustParse(`<r><v>1</v><v>5</v><v>3</v></r>`)
	ev := NewEvaluator(doc)
	inner := &Node{Var: "w", Path: pathre.MustParsePath("/r/v"), Ret: RVar{Name: "w"}}
	for _, c := range []struct {
		fn   string
		want string
	}{
		{"count", "3"}, {"sum", "9"}, {"avg", "3"}, {"min", "1"}, {"max", "5"},
	} {
		root := &Node{
			Ret:      RElem{Tag: "out", Kids: []RetExpr{RFunc{Name: c.fn, Args: []RetExpr{RChild{Node: inner}}}}},
			Children: []*Node{inner},
		}
		res := must.Must(ev.Result(context.Background(), NewTree(root)))
		if got := res.NodesWithLabel("out")[0].Text(); got != c.want {
			t.Errorf("%s = %q, want %q", c.fn, got, c.want)
		}
	}
}

func TestMatches(t *testing.T) {
	doc := figure4Doc()
	ev := NewEvaluator(doc)
	p := pathre.MustParsePath("/site/regions/(europe|africa)/item/name")
	for _, n := range doc.NodesWithLabel("name") {
		want := strings.Contains(n.PathString(), "europe") || strings.Contains(n.PathString(), "africa")
		want = want && strings.Contains(n.PathString(), "item")
		if got := ev.Matches(nil, p, n); got != want {
			t.Errorf("Matches(%s) = %v, want %v", n.PathString(), got, want)
		}
	}
	// Relative match.
	item := doc.NodesWithLabel("item")[0]
	if !ev.Matches(item, pathre.MustParsePath("name"), item.FirstChildNamed("name")) {
		t.Error("relative match item->name failed")
	}
	// Target not under start.
	cat := doc.NodesWithLabel("category")[0]
	if ev.Matches(item, pathre.MustParsePath("name"), cat.FirstChildNamed("name")) {
		t.Error("node outside the start subtree must not match")
	}
}

func TestPathNodesAttributes(t *testing.T) {
	doc := figure4Doc()
	ev := NewEvaluator(doc)
	ids := ev.PathNodes(nil, pathre.MustParsePath("/site/regions/europe/item/@id"))
	if len(ids) != 2 {
		t.Fatalf("europe item ids = %d", len(ids))
	}
	for _, n := range ids {
		if n.Kind != xmldoc.AttributeNode {
			t.Fatalf("expected attribute node, got %v", n.Kind)
		}
	}
}

func TestExtentErrNoVariable(t *testing.T) {
	q1 := buildQ1()
	ev := NewEvaluator(figure4Doc())
	_, err := ev.Extent(context.Background(), q1, q1.Root, nil)
	if !errors.Is(err, ErrNoVariable) {
		t.Fatalf("Extent of a var-less node: err = %v, want errors.Is(..., ErrNoVariable)", err)
	}
	if !strings.Contains(err.Error(), q1.Root.Name()) {
		t.Errorf("error %q does not name the offending node %s", err, q1.Root.Name())
	}
}

// TestExtentNoBindingPath pins the compiler's totality: a binding
// chain whose anchor has no Path is an ErrNoBindingPath on both the
// compiled and the naive path, never a nil dereference.
func TestExtentNoBindingPath(t *testing.T) {
	leaf := &Node{Var: "j", From: "i", Path: pathre.MustParsePath("name"), Ret: RVar{Name: "j"}}
	anchor := &Node{Var: "i", Children: []*Node{leaf}, Ret: RElem{Tag: "o", Kids: []RetExpr{RChild{Node: leaf}}}}
	tree := NewTree(anchor)
	for _, accel := range []bool{true, false} {
		ev := NewEvaluator(figure4Doc())
		ev.SetAcceleration(accel)
		for _, n := range []*Node{anchor, leaf} {
			_, err := ev.Extent(context.Background(), tree, n, nil)
			if !errors.Is(err, ErrNoBindingPath) {
				t.Errorf("acceleration %v: Extent($%s) err = %v, want errors.Is(..., ErrNoBindingPath)", accel, n.Var, err)
			}
		}
	}
}

func TestContainsAndScale(t *testing.T) {
	doc := xmldoc.MustParse(`<r><d>golden ring</d><a>10</a><b>25</b></r>`)
	ev := NewEvaluator(doc)
	env := Env{
		"d": doc.NodesWithLabel("d")[0],
		"a": doc.NodesWithLabel("a")[0],
		"b": doc.NodesWithLabel("b")[0],
	}
	contains := &Pred{Atoms: []Cmp{{Op: OpContains, L: VarOp("d", nil), R: ConstOp("gold")}}}
	if !ev.PredHolds(contains, env) {
		t.Error("contains(golden ring, gold)")
	}
	notContains := &Pred{Atoms: []Cmp{{Op: OpContains, L: VarOp("d", nil), R: ConstOp("silver")}}}
	if ev.PredHolds(notContains, env) {
		t.Error("contains(golden ring, silver) must fail")
	}
	// a*2 <= b : 20 <= 25
	scaled := &Pred{Atoms: []Cmp{{Op: OpLe,
		L: Operand{Var: "a", Mul: 2}, R: VarOp("b", nil)}}}
	if !ev.PredHolds(scaled, env) {
		t.Error("10*2 <= 25")
	}
	// a*3 <= b : 30 <= 25 fails
	scaled3 := &Pred{Atoms: []Cmp{{Op: OpLe,
		L: Operand{Var: "a", Mul: 3}, R: VarOp("b", nil)}}}
	if ev.PredHolds(scaled3, env) {
		t.Error("10*3 <= 25 must fail")
	}
	if got := (Operand{Var: "a", Mul: 2}).String(); got != "data($a) * 2" {
		t.Errorf("scaled operand renders %q", got)
	}
}
