//go:build !race

package xmldoc

import (
	"strings"
	"testing"
)

// TestParseStringAllocs pins the per-node allocation budget of the
// parser on a fixed instance shaped like the XMark fragments the
// suites parse. Interning keeps labels and attribute symbols shared
// across nodes, so the remaining allocations are the node structs, the
// child/attribute slices, and the decoder's own buffers; the budget
// below (~12 allocations per node) holds a wide margin over the
// measured cost so only a real regression — say, a per-node string
// copy sneaking back into the label path — trips it. (Build-tagged out
// under -race: the detector's instrumentation allocates.)
func TestParseStringAllocs(t *testing.T) {
	var b strings.Builder
	b.WriteString("<site><people>")
	for i := 0; i < 100; i++ {
		b.WriteString(`<person id="p"><name>n</name><emailaddress>e</emailaddress></person>`)
	}
	b.WriteString("</people></site>")
	src := b.String()
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	nodes := doc.NumNodes()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ParseString(src); err != nil {
			t.Fatal(err)
		}
	})
	perNode := allocs / float64(nodes)
	if perNode > 12 {
		t.Errorf("ParseString allocates %.1f objects per node (%0.f total over %d nodes), want <= 12",
			perNode, allocs, nodes)
	}
}

// TestEscapeAllocs pins the escapers: a string with nothing to escape
// is returned as is, and one that needs escaping costs only its result
// (the replacer's byte buffer and the string made from it) — no
// replacer is built per call.
func TestEscapeAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		escape func(string) string
		in     string
		want   float64
	}{
		{"text plain", escapeText, "plain text", 0},
		{"text escaped", escapeText, `a<b & c>d "q"`, 2},
		{"attr plain", escapeAttr, "plain value", 0},
		{"attr escaped", escapeAttr, `a<b & "c">`, 2},
	} {
		if got := testing.AllocsPerRun(100, func() { tc.escape(tc.in) }); got > tc.want {
			t.Errorf("%s: %.0f allocs, want <= %.0f", tc.name, got, tc.want)
		}
	}
}
