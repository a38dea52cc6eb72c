package main

import (
	"fmt"
	"strings"

	"repro/internal/api"
	"repro/internal/dtd"
	"repro/internal/scenario"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// uploadSpec converts a registered scenario, rebound to doc, into the
// SpecV1 a client would post to xlearnerd. Only scenarios that need no
// code beyond their drops convert: no Condition or OrderBy boxes, no
// Drop Box functions (the wire format cannot carry them), a target DTD
// without attributes, and a ground truth whose XQuery rendering parses
// back to the same tree.
func uploadSpec(s *scenario.Scenario, doc *xmldoc.Document) (*api.SpecV1, error) {
	if len(s.Boxes) > 0 || len(s.Orders) > 0 {
		return nil, fmt.Errorf("%s: uses condition or order-by boxes", s.ID)
	}
	target, err := renderDTD(s.Target)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.ID, err)
	}
	truth := s.Truth()
	text := truth.XQueryString()
	back, err := xq.ParseQuery(text)
	if err != nil {
		return nil, fmt.Errorf("%s: truth does not parse back: %w", s.ID, err)
	}
	if back.String() != truth.String() {
		return nil, fmt.Errorf("%s: truth does not round-trip through XQuery", s.ID)
	}
	spec := &api.SpecV1{SourceXML: xmldoc.XMLString(doc.DocNode()), TargetDTD: target, TruthXQuery: text}
	for _, d := range s.Drops {
		if d.Wrap != nil || d.Terms != 0 || len(d.Alternates) > 0 {
			return nil, fmt.Errorf("%s: drop %s needs code", s.ID, d.Path)
		}
		sel, err := selectOf(doc, d.Select(doc))
		if err != nil {
			return nil, fmt.Errorf("%s: drop %s: %w", s.ID, d.Path, err)
		}
		spec.Drops = append(spec.Drops, api.DropV1{Path: d.Path, Var: d.Var, AnchorVar: d.AnchorVar, Select: sel})
	}
	return spec, nil
}

// selectOf addresses n the way SelectV1 does: its position among the
// document's nodes with the same label, in document order.
func selectOf(doc *xmldoc.Document, n *xmldoc.Node) (api.SelectV1, error) {
	if n == nil {
		return api.SelectV1{}, fmt.Errorf("selector matches no node")
	}
	for i, m := range doc.NodesWithLabel(n.Label()) {
		if m == n {
			return api.SelectV1{Label: n.Label(), Nth: i}, nil
		}
	}
	return api.SelectV1{}, fmt.Errorf("node %s not found by label", n.PathString())
}

// renderDTD writes d back in the DTD subset internal/dtd parses and
// checks that the text parses to the same content models.
func renderDTD(d *dtd.DTD) (string, error) {
	var b strings.Builder
	for _, name := range d.ElementNames() {
		e := d.Element(name)
		if len(e.Attrs) > 0 {
			return "", fmt.Errorf("target element %s declares attributes", name)
		}
		fmt.Fprintf(&b, "<!ELEMENT %s %s>\n", name, contentModel(e.Content))
	}
	back, err := dtd.Parse(b.String())
	if err != nil {
		return "", fmt.Errorf("rendered target DTD does not parse: %w", err)
	}
	if back.RootName != d.RootName {
		return "", fmt.Errorf("rendered target DTD changes the root %s to %s", d.RootName, back.RootName)
	}
	for _, name := range d.ElementNames() {
		if contentModel(back.Element(name).Content) != contentModel(d.Element(name).Content) {
			return "", fmt.Errorf("rendered target DTD changes element %s", name)
		}
	}
	return b.String(), nil
}

func contentModel(c *dtd.ContentModel) string {
	if c == nil {
		return "EMPTY"
	}
	switch c.Kind {
	case dtd.CMSeq, dtd.CMChoice, dtd.CMEmpty, dtd.CMAny:
		return c.String()
	}
	return "(" + c.String() + ")"
}
