package teacher

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/xmldoc"
)

// bigDoc builds an instance with n <a id><n>text</n></a> records, for
// large candidate sets.
func bigDoc(n int) *xmldoc.Document {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<a id="%d"><n>v%d</n></a>`, i, i)
	}
	b.WriteString("</r>")
	return xmldoc.MustParse(b.String())
}

// TestMemberBatchPoolPath pins Sim.MemberBatch on a large interleaved
// candidate set: every answer must land at its candidate's index,
// agreeing with one Member call per node on a fresh teacher.
func TestMemberBatchPoolPath(t *testing.T) {
	d := bigDoc(64)
	// Interleave in-extent (<n>) and out-of-extent (<a>) candidates so
	// a misaligned commit cannot pass by accident.
	var nodes []*xmldoc.Node
	for i, n := range d.NodesWithLabel("n") {
		nodes = append(nodes, n)
		if i%2 == 0 {
			nodes = append(nodes, d.NodesWithLabel("a")[i])
		}
	}
	s := New(d, truth())
	ans, err := s.MemberBatch(ctx(), frag(), nil, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != len(nodes) {
		t.Fatalf("got %d answers for %d candidates", len(ans), len(nodes))
	}
	serial := New(d, truth())
	for i, n := range nodes {
		want, err := serial.Member(ctx(), frag(), nil, n)
		if err != nil {
			t.Fatal(err)
		}
		if ans[i] != want {
			t.Errorf("answer[%d] (%s) = %v, want %v", i, n.Label(), ans[i], want)
		}
	}
	// One round trip charges one interaction per candidate — the batch
	// is a transport optimization, not a dialogue discount.
	if got := s.Interactions; got != len(nodes) {
		t.Errorf("batch charged %d interactions, want %d", got, len(nodes))
	}
}

// TestMemberBatchBelowThreshold covers a two-candidate set.
func TestMemberBatchBelowThreshold(t *testing.T) {
	d := xmldoc.MustParse(doc)
	s := New(d, truth())
	nodes := []*xmldoc.Node{d.NodesWithLabel("n")[0], d.NodesWithLabel("a")[0]}
	ans, err := s.MemberBatch(ctx(), frag(), nil, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !ans[0] || ans[1] {
		t.Fatalf("answers = %v, want [true false]", ans)
	}
}

// TestMemberBatchCanceled: a canceled session context aborts the round
// trip before any answers are produced.
func TestMemberBatchCanceled(t *testing.T) {
	d := xmldoc.MustParse(doc)
	s := New(d, truth())
	s.Latency = time.Minute // park in the cancellable sleep
	c, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.MemberBatch(c, frag(), nil, d.NodesWithLabel("n")); err == nil {
		t.Fatal("canceled batch returned answers")
	}
}
