package core_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/teacher"
	"repro/internal/xmldoc"
	"repro/internal/xq"
)

// cancelingTeacher forwards to the simulated teacher but fires cancel
// after a fixed number of membership queries — a user who walks away
// mid-dialogue.
type cancelingTeacher struct {
	*teacher.Sim
	after  int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelingTeacher) Member(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, n *xmldoc.Node) (bool, error) {
	c.seen++
	if c.seen == c.after {
		c.cancel()
	}
	return c.Sim.Member(ctx, frag, pin, n)
}

// sessionSim builds the running example's simulated teacher with the
// <300 price Condition Box configured.
func sessionSim(doc *xmldoc.Document) *teacher.Sim {
	sim := teacher.New(doc, truthQ1())
	sim.Boxes = map[string][]core.BoxEntry{
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

func sessionSpec() *core.TaskSpec {
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

func TestSessionLifecycle(t *testing.T) {
	doc := xmldoc.MustParse(sourceXML)
	sim := sessionSim(doc)
	sess := core.NewSession(doc, sim, core.DefaultOptions())
	if got := sess.State(); got != core.SessionIdle {
		t.Fatalf("new session state = %v", got)
	}
	tree, stats, err := sess.Learn(context.Background(), sessionSpec())
	if err != nil {
		t.Fatalf("Learn: %v", err)
	}
	if tree == nil || stats == nil {
		t.Fatal("Learn returned nil tree/stats")
	}
	if got := sess.State(); got != core.SessionDone {
		t.Fatalf("state after Learn = %v", got)
	}
	rtree, rstats, rerr := sess.Result()
	if rtree != tree || rstats != stats || rerr != nil {
		t.Fatal("Result must return the last Learn outcome")
	}
}

func TestSessionBusy(t *testing.T) {
	doc := xmldoc.MustParse(sourceXML)
	sim := sessionSim(doc)

	// Hold the session "learning" by blocking the teacher on a channel.
	block := make(chan struct{})
	entered := make(chan struct{})
	bt := &blockingTeacher{Sim: sim, entered: entered, block: block}
	sess := core.NewSession(doc, bt, core.DefaultOptions())

	done := make(chan error, 1)
	go func() {
		_, _, err := sess.Learn(context.Background(), sessionSpec())
		done <- err
	}()
	<-entered
	if _, _, err := sess.Learn(context.Background(), sessionSpec()); !errors.Is(err, core.ErrSessionBusy) {
		t.Fatalf("second Learn = %v, want ErrSessionBusy", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("first Learn: %v", err)
	}
	if got := sess.State(); got != core.SessionDone {
		t.Fatalf("state = %v", got)
	}
}

// blockingTeacher parks the first membership query until block closes.
type blockingTeacher struct {
	*teacher.Sim
	entered chan struct{}
	block   chan struct{}
	once    bool
}

func (b *blockingTeacher) Member(ctx context.Context, frag core.FragmentRef, pin map[string]*xmldoc.Node, n *xmldoc.Node) (bool, error) {
	if !b.once {
		b.once = true
		close(b.entered)
		<-b.block
	}
	return b.Sim.Member(ctx, frag, pin, n)
}

// TestSessionCancelMidLearning: the session is canceled in the middle
// of the dialogue — serially by the teacher after its second membership
// query, batched from the observer as the first answer-set prefetch
// leaves for a slow teacher. Learn must return promptly with an error
// wrapping context.Canceled, leave the session failed, and leak no
// goroutines (under the batched protocol the prefetch goroutines must
// be drained too).
func TestSessionCancelMidLearning(t *testing.T) {
	cases := []struct {
		name  string
		setup func(sim *teacher.Sim, opts *core.Options, cancel context.CancelFunc) core.Teacher
	}{
		{"serial", func(sim *teacher.Sim, _ *core.Options, cancel context.CancelFunc) core.Teacher {
			return &cancelingTeacher{Sim: sim, after: 2, cancel: cancel}
		}},
		{"batched", func(sim *teacher.Sim, opts *core.Options, cancel context.CancelFunc) core.Teacher {
			sim.Latency = 5 * time.Millisecond
			opts.Batched = true
			var once sync.Once
			opts.Observe = func(ev core.Event) {
				if ev.Kind == core.EventMQBatch {
					once.Do(cancel)
				}
			}
			return sim
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()

			doc := xmldoc.MustParse(sourceXML)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts := core.DefaultOptions()
			teach := tc.setup(sessionSim(doc), &opts, cancel)
			sess := core.NewSession(doc, teach, opts)

			start := time.Now()
			_, _, err := sess.Learn(ctx, sessionSpec())
			if err == nil {
				t.Fatal("Learn must fail after mid-session cancellation")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want a wrapped context.Canceled", err)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Fatalf("Learn took %v after cancellation; must return promptly", d)
			}
			if got := sess.State(); got != core.SessionFailed {
				t.Fatalf("state = %v, want failed", got)
			}
			if _, _, rerr := sess.Result(); !errors.Is(rerr, context.Canceled) {
				t.Fatalf("Result err = %v", rerr)
			}

			// The engine runs on the caller's goroutine and must not leave
			// stragglers behind; allow the runtime a moment to settle.
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				if runtime.NumGoroutine() <= before {
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("goroutines leaked: %d before, %d after", before, after)
			}
		})
	}
}

// TestSessionCancelMethod: Session.Cancel aborts an in-flight Learn
// from another goroutine.
func TestSessionCancelMethod(t *testing.T) {
	doc := xmldoc.MustParse(sourceXML)
	sim := sessionSim(doc)
	block := make(chan struct{})
	entered := make(chan struct{})
	bt := &blockingTeacher{Sim: sim, entered: entered, block: block}
	sess := core.NewSession(doc, bt, core.DefaultOptions())

	done := make(chan error, 1)
	go func() {
		_, _, err := sess.Learn(context.Background(), sessionSpec())
		done <- err
	}()
	<-entered
	sess.Cancel()
	close(block)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Learn after Cancel = %v, want wrapped context.Canceled", err)
	}
	// Cancel on an idle session is a no-op, and the session is reusable.
	sess.Cancel()
	if _, _, err := sess.Learn(context.Background(), sessionSpec()); err != nil {
		t.Fatalf("re-Learn after cancel: %v", err)
	}
}

func TestSessionPreCanceledContext(t *testing.T) {
	doc := xmldoc.MustParse(sourceXML)
	sim := sessionSim(doc)
	sess := core.NewSession(doc, sim, core.DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sess.Learn(ctx, sessionSpec()); !errors.Is(err, context.Canceled) {
		t.Fatalf("Learn with canceled ctx = %v", err)
	}
}
