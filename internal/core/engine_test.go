package core_test

import (
	"context"
	"repro/internal/must"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/pathre"
	"repro/internal/teacher"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// The paper's running example: source instance (Figure 4a plus the
// Figure 5b Encyclopedia), target schema (Figure 1b), ground truth q1
// (Figures 2/6).

const sourceXML = `<site>
  <regions>
    <africa></africa>
    <europe>
      <item id="i6"><name>Encyclopedia</name>
        <incategory category="c2"/>
        <description>Heavy</description>
      </item>
      <item id="i7"><name>H. Potter</name>
        <incategory category="c2"/>
        <description>Best Seller</description>
      </item>
    </europe>
    <asia>
      <item id="i10"><name>XML book</name>
        <incategory category="c2"/>
        <description>how-to book</description>
      </item>
    </asia>
  </regions>
  <categories>
    <category id="c1"><name>computer</name></category>
    <category id="c2"><name>book</name></category>
  </categories>
  <closed_auctions>
    <closed_auction><price>700</price><itemref item="i6"/></closed_auction>
    <closed_auction><price>50</price><itemref item="i7"/></closed_auction>
    <closed_auction><price>100</price><itemref item="i10"/></closed_auction>
  </closed_auctions>
</site>`

const targetDTD = `
<!ELEMENT i_list (category*)>
<!ELEMENT category (cname, item*)>
<!ELEMENT cname (#PCDATA)>
<!ELEMENT item (iname, desc)>
<!ELEMENT iname (#PCDATA)>
<!ELEMENT desc (#PCDATA)>
`

// truthQ1 is the ground-truth XQ-Tree for q1, using the engine's
// variable names.
func truthQ1() *xq.Tree {
	n1121 := &xq.Node{
		Var: "in", From: "i", Path: pathre.MustParsePath("name"),
		Ret: xq.RVar{Name: "in"}, OneLabeled: true,
	}
	n1122 := &xq.Node{
		Var: "d", From: "i", Path: pathre.MustParsePath("description"),
		Ret: xq.RVar{Name: "d"},
	}
	n112 := &xq.Node{
		Var:  "i",
		Path: pathre.MustParsePath("/site/regions/(europe|africa)/item"),
		Where: []*xq.Pred{
			xq.EqJoin("i", xq.MustParseSimplePath("incategory/@category"), "c", xq.MustParseSimplePath("@id")),
			{
				RelayVar:  "o",
				RelayPath: xq.MustParseSimplePath("site/closed_auctions/closed_auction"),
				Atoms: []xq.Cmp{
					{Op: xq.OpEq, L: xq.VarOp("o", xq.MustParseSimplePath("itemref/@item")), R: xq.VarOp("i", xq.MustParseSimplePath("@id"))},
					{Op: xq.OpLt, L: xq.VarOp("o", xq.MustParseSimplePath("price")), R: xq.ConstOp("300")},
				},
			},
		},
		Ret: xq.RElem{Tag: "item", Kids: []xq.RetExpr{
			xq.RElem{Tag: "iname", Kids: []xq.RetExpr{xq.RChild{Node: n1121}}},
			xq.RElem{Tag: "desc", Kids: []xq.RetExpr{xq.RChild{Node: n1122}}},
		}},
		Children: []*xq.Node{n1121, n1122},
	}
	n111 := &xq.Node{
		Var: "cn", From: "c", Path: pathre.MustParsePath("name"),
		Ret: xq.RVar{Name: "cn"}, OneLabeled: true,
	}
	n11 := &xq.Node{
		Var:  "c",
		Path: pathre.MustParsePath("/site/categories/category"),
		Ret: xq.RElem{Tag: "category", Kids: []xq.RetExpr{
			xq.RElem{Tag: "cname", Kids: []xq.RetExpr{xq.RChild{Node: n111}}},
			xq.RChild{Node: n112},
		}},
		Children: []*xq.Node{n111, n112},
	}
	return xq.NewTree(&xq.Node{
		Ret:      xq.RElem{Tag: "i_list", Kids: []xq.RetExpr{xq.RChild{Node: n11}}},
		Children: []*xq.Node{n11},
	})
}

func runningExample(t *testing.T, opts core.Options, pol teacher.Policy) (*xq.Tree, *core.Stats, *teacher.Sim, *xmldoc.Document) {
	t.Helper()
	doc := xmldoc.MustParse(sourceXML)
	sim := runningExampleTeacher(doc, pol)
	eng := core.NewEngine(doc, sim, opts)
	tree, stats, err := eng.Learn(context.Background(), runningExampleSpec())
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	return tree, stats, sim, doc
}

// runningExampleTeacher is the simulated user of the running example
// over doc, answering from truthQ1.
func runningExampleTeacher(doc *xmldoc.Document, pol teacher.Policy) *teacher.Sim {
	sim := teacher.New(doc, truthQ1())
	sim.Pol = pol
	sim.Boxes = map[string][]core.BoxEntry{
		// Learning the item fragment needs the <300 price condition: the
		// user drops H. Potter's price value into a PCB and types "<300"
		// (Section 2, Figure 5c).
		"in": {{
			Select: func(d *xmldoc.Document, ce *xmldoc.Node) *xmldoc.Node {
				for _, p := range d.NodesWithLabel("price") {
					if p.Text() == "50" {
						return p
					}
				}
				return nil
			},
			Op: xq.OpLt, Const: "300",
		}},
	}
	return sim
}

// runningExampleSpec is the running example's target schema and drops.
func runningExampleSpec() *core.TaskSpec {
	return &core.TaskSpec{
		Target: dtd.MustParse(targetDTD),
		Drops: []core.Drop{
			{Path: "i_list/category/cname", Var: "cn", AnchorVar: "c",
				Select: teacher.SelectByText("name", "book")},
			{Path: "i_list/category/item/iname", Var: "in", AnchorVar: "i",
				Select: teacher.SelectByText("name", "H. Potter")},
			{Path: "i_list/category/item/desc", Var: "d",
				Select: teacher.SelectByText("description", "Best Seller")},
		},
	}
}

// resultEqual compares the evaluated results of two trees on a document.
func resultEqual(doc *xmldoc.Document, a, b *xq.Tree) (string, string, bool) {
	ev := xq.NewEvaluator(doc)
	sa := xmldoc.XMLString(must.Must(ev.Result(context.Background(), a)).DocNode())
	ev2 := xq.NewEvaluator(doc)
	sb := xmldoc.XMLString(must.Must(ev2.Result(context.Background(), b)).DocNode())
	return sa, sb, sa == sb
}

func TestLearnRunningExample(t *testing.T) {
	tree, stats, _, doc := runningExample(t, core.DefaultOptions(), teacher.BestCase)
	got, want, eq := resultEqual(doc, tree, truthQ1())
	if !eq {
		t.Fatalf("learned query result differs\nlearned: %s\ntruth:   %s\nquery:\n%s",
			got, want, tree.String())
	}
	// The three drops.
	if stats.DnD != 3 || stats.DnDTerms != 3 {
		t.Errorf("DnD = %d(%d), want 3(3)", stats.DnD, stats.DnDTerms)
	}
	tot := stats.Totals()
	// The Condition Box must have been used exactly once, with the
	// standard 3 terminals.
	if tot.CB != 1 || tot.CBTerms != 3 {
		t.Errorf("CB = %d(%d), want 1(3)", tot.CB, tot.CBTerms)
	}
	// Interactions stay small (the paper's headline claim).
	if tot.MQ > 30 {
		t.Errorf("MQ = %d, too many for the running example", tot.MQ)
	}
	if tot.CE > 15 {
		t.Errorf("CE = %d, too many", tot.CE)
	}
	// The rules must have auto-answered a nontrivial number of queries.
	if tot.ReducedTotal == 0 {
		t.Error("rules reduced nothing")
	}
	if tot.ReducedTotal != tot.ReducedR1+tot.ReducedR2-tot.ReducedBoth {
		t.Errorf("Reduced bookkeeping: total %d != R1 %d + R2 %d - Both %d",
			tot.ReducedTotal, tot.ReducedR1, tot.ReducedR2, tot.ReducedBoth)
	}
}

func TestLearnedQueryShape(t *testing.T) {
	tree, _, _, _ := runningExample(t, core.DefaultOptions(), teacher.BestCase)
	s := tree.String()
	for _, want := range []string{
		"for $c in /site/categories/category",
		"for $in in $i/name",
		"< 300",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("learned query missing %q:\n%s", want, s)
		}
	}
	// The item binding must cover europe (africa is empty in the
	// instance, so the learned instance-relative path may omit it).
	if !strings.Contains(s, "europe") {
		t.Errorf("learned item path lost europe:\n%s", s)
	}
}

func TestLearnWorstCasePolicy(t *testing.T) {
	tree, stats, _, doc := runningExample(t, core.DefaultOptions(), teacher.WorstCase)
	_, _, eq := resultEqual(doc, tree, truthQ1())
	if !eq {
		t.Fatal("worst-case policy must still converge to the right query")
	}
	if stats.Totals().CE == 0 {
		t.Error("expected counterexamples under worst-case policy")
	}
}

func TestLearnWithoutRules(t *testing.T) {
	opts := core.DefaultOptions()
	opts.R1, opts.R2 = false, false
	tree, stats, _, doc := runningExample(t, opts, teacher.BestCase)
	_, _, eq := resultEqual(doc, tree, truthQ1())
	if !eq {
		t.Fatal("learning must succeed without rules")
	}
	tot := stats.Totals()
	if tot.ReducedTotal != 0 {
		t.Errorf("rules disabled but ReducedTotal = %d", tot.ReducedTotal)
	}
	// Without the rules, every one of those queries lands on the user.
	withRules, _, _, _ := func() (*xq.Tree, *core.Stats, *teacher.Sim, *xmldoc.Document) {
		return runningExample(t, core.DefaultOptions(), teacher.BestCase)
	}()
	_ = withRules
	rulesStats := func() *core.Stats {
		_, s, _, _ := runningExample(t, core.DefaultOptions(), teacher.BestCase)
		return s
	}()
	if tot.MQ <= rulesStats.Totals().MQ {
		t.Errorf("MQ without rules (%d) should exceed MQ with rules (%d)",
			tot.MQ, rulesStats.Totals().MQ)
	}
}

func TestLearnR1Only(t *testing.T) {
	opts := core.DefaultOptions()
	opts.R2 = false
	tree, stats, _, doc := runningExample(t, opts, teacher.BestCase)
	if _, _, eq := resultEqual(doc, tree, truthQ1()); !eq {
		t.Fatal("R1-only learning must converge")
	}
	tot := stats.Totals()
	if tot.ReducedR2 != 0 || tot.ReducedR1 == 0 {
		t.Errorf("R1-only: R1=%d R2=%d", tot.ReducedR1, tot.ReducedR2)
	}
}

func TestLearnWithDTDFilter(t *testing.T) {
	opts := core.DefaultOptions()
	opts.SourceDTD = dtd.MustParse(`
<!ELEMENT site (regions, categories, closed_auctions)>
<!ELEMENT regions (africa, europe, asia)>
<!ELEMENT africa (item*)> <!ELEMENT europe (item*)> <!ELEMENT asia (item*)>
<!ELEMENT item (name, incategory, description)>
<!ATTLIST item id ID #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT incategory EMPTY>
<!ATTLIST incategory category IDREF #REQUIRED>
<!ELEMENT description (#PCDATA)>
<!ELEMENT categories (category*)>
<!ELEMENT category (name)>
<!ATTLIST category id ID #REQUIRED>
<!ELEMENT closed_auctions (closed_auction*)>
<!ELEMENT closed_auction (price, itemref)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT itemref EMPTY>
<!ATTLIST itemref item IDREF #REQUIRED>
`)
	tree, stats, _, doc := runningExample(t, opts, teacher.BestCase)
	if _, _, eq := resultEqual(doc, tree, truthQ1()); !eq {
		t.Fatal("DTD-filtered R1 must converge")
	}
	if stats.Totals().ReducedR1 == 0 {
		t.Error("DTD filter reduced nothing")
	}
}

func TestTemplateGeneration(t *testing.T) {
	d := dtd.MustParse(targetDTD)
	tmpl, err := core.BuildTemplate(d)
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.Elem != "i_list" {
		t.Fatalf("root = %s", tmpl.Elem)
	}
	cname := tmpl.Find("i_list/category/cname")
	if cname == nil || !cname.OneLabeled {
		t.Fatal("cname must be the category's 1-labeled child")
	}
	item := tmpl.Find("i_list/category/item")
	if item == nil || item.OneLabeled {
		t.Fatal("item is starred, not 1-labeled")
	}
	iname := tmpl.Find("i_list/category/item/iname")
	if iname == nil || !iname.OneLabeled {
		t.Fatal("iname must be the item's 1-labeled child")
	}
	desc := tmpl.Find("i_list/category/item/desc")
	if desc == nil || desc.OneLabeled {
		t.Fatal("desc is 1:1 but the slot is taken by iname (at most one 1-labeled child)")
	}
	if tmpl.Find("i_list/nonsense") != nil {
		t.Fatal("Find on missing path must be nil")
	}
	if got := iname.Path(); got != "i_list/category/item/iname" {
		t.Fatalf("Path = %q", got)
	}
}

func TestTemplateRecursionGuard(t *testing.T) {
	d := dtd.MustParse(`<!ELEMENT part (name, part*)> <!ELEMENT name (#PCDATA)>`)
	tmpl, err := core.BuildTemplate(d)
	if err != nil {
		t.Fatal(err)
	}
	// One recursive instantiation: part/part exists but bottoms out.
	inner := tmpl.Find("part/part")
	if inner == nil {
		t.Fatal("first recursive instance must exist")
	}
	if len(inner.Children) != 0 {
		t.Fatal("recursive instance must not expand further")
	}
}

func TestLearnErrorPaths(t *testing.T) {
	doc := xmldoc.MustParse(sourceXML)
	sim := teacher.New(doc, truthQ1())
	eng := core.NewEngine(doc, sim, core.DefaultOptions())
	target := dtd.MustParse(targetDTD)

	if _, _, err := eng.Learn(context.Background(), &core.TaskSpec{Target: target}); err == nil {
		t.Error("no drops must fail")
	}
	if _, _, err := eng.Learn(context.Background(), &core.TaskSpec{Target: target, Drops: []core.Drop{
		{Path: "i_list/zzz", Var: "x", Select: teacher.SelectNth("name", 0)},
	}}); err == nil {
		t.Error("unknown box must fail")
	}
	if _, _, err := eng.Learn(context.Background(), &core.TaskSpec{Target: target, Drops: []core.Drop{
		{Path: "i_list/category/cname", Var: "x",
			Select: func(*xmldoc.Document) *xmldoc.Node { return nil }},
	}}); err == nil {
		t.Error("empty selection must fail")
	}
	if _, _, err := eng.Learn(context.Background(), &core.TaskSpec{Target: target, Drops: []core.Drop{
		{Path: "i_list/category/cname", Var: "", Select: teacher.SelectNth("name", 0)},
	}}); err == nil {
		t.Error("missing variable name must fail")
	}
	if _, _, err := eng.Learn(context.Background(), &core.TaskSpec{Target: target, Drops: []core.Drop{
		{Path: "i_list/category/cname", Var: "a", Select: teacher.SelectNth("name", 0)},
		{Path: "i_list/category/cname", Var: "b", Select: teacher.SelectNth("name", 1)},
	}}); err == nil {
		t.Error("double drop into one box must fail")
	}
}

func TestMissingConditionBoxFails(t *testing.T) {
	doc := xmldoc.MustParse(sourceXML)
	sim := teacher.New(doc, truthQ1()) // no Boxes configured
	eng := core.NewEngine(doc, sim, core.DefaultOptions())
	spec := &core.TaskSpec{
		Target: dtd.MustParse(targetDTD),
		Drops: []core.Drop{
			{Path: "i_list/category/cname", Var: "cn", AnchorVar: "c",
				Select: teacher.SelectByText("name", "book")},
			{Path: "i_list/category/item/iname", Var: "in", AnchorVar: "i",
				Select: teacher.SelectByText("name", "H. Potter")},
		},
	}
	if _, _, err := eng.Learn(context.Background(), spec); err == nil {
		t.Fatal("learning must fail when the needed Condition Box is not provided")
	} else if !strings.Contains(err.Error(), "Condition Box") {
		t.Fatalf("unexpected error: %v", err)
	}
}
