package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
)

// statsFingerprint renders every counter of a session's stats for exact
// comparison across protocol variants.
func statsFingerprint(s *core.Stats) string { return fmt.Sprintf("%+v", *s) }

// TestBatchedMatchesSerial is the batched-protocol correctness
// property: for every benchmark scenario and both path learners, the
// batched, mirrored protocol must produce the same learned query, the
// same verification outcome, and byte-identical interaction counters as
// the serial protocol — only the transport (who answers: mirror or
// wire) may differ, which is exactly what Stats.Speculation isolates.
func TestBatchedMatchesSerial(t *testing.T) {
	// L* asks multi-query table-fill waves, KV adaptive single probes.
	learners := []struct {
		name string
		kv   bool
	}{{"lstar", false}, {"kv", true}}
	scns := append(append([]*scenario.Scenario{}, XMarkScenarios()...), XMPScenarios()...)
	for _, s := range scns {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			for _, l := range learners {
				serial, err := scenario.Run(context.Background(), s, teacher.BestCase, core.WithKVLearner(l.kv))
				if err != nil {
					t.Fatalf("%s serial run: %v", l.name, err)
				}
				p := scenario.Prepare(s, teacher.BestCase, core.WithKVLearner(l.kv), core.WithBatchedProtocol(true))
				p.SetTeacherLatency(200 * time.Microsecond)
				batched, err := p.Learn(context.Background())
				if err != nil {
					t.Fatalf("%s batched run: %v", l.name, err)
				}
				if got, want := batched.Tree.String(), serial.Tree.String(); got != want {
					t.Errorf("%s: learned tree diverged\nbatched:\n%s\nserial:\n%s", l.name, got, want)
				}
				if batched.Verified != serial.Verified {
					t.Errorf("%s: Verified = %v, serial %v", l.name, batched.Verified, serial.Verified)
				}
				bs, ss := *batched.Stats, *serial.Stats
				if bs.Speculation.Prefetches == 0 {
					t.Errorf("%s: batched run dispatched no prefetches", l.name)
				}
				if bs.Speculation.MirrorAnswers == 0 {
					t.Errorf("%s: batched run answered no questions from the mirror", l.name)
				}
				// Both protocols emit the same query-set waves and answer
				// them locally.
				if bs.Speculation.BatchRounds != ss.Speculation.BatchRounds ||
					bs.Speculation.BatchedMQ != ss.Speculation.BatchedMQ {
					t.Errorf("%s: waves diverged\nbatched: %+v\nserial:  %+v", l.name, bs.Speculation, ss.Speculation)
				}
				// The dialogue counters must match exactly once the transport
				// bookkeeping is masked out.
				bs.Speculation = core.SpeculationStats{}
				ss.Speculation = core.SpeculationStats{}
				if got, want := statsFingerprint(&bs), statsFingerprint(&ss); got != want {
					t.Errorf("%s: dialogue counters diverged\nbatched: %s\nserial:  %s", l.name, got, want)
				}
			}
		})
	}
}

// TestBatchedMatchesSerialKV pins the Kearns-Vazirani side of the
// transport counters: KV asks its adaptive sift probes one at a time,
// so a batched KV session, like a serial one, reports no query-set
// waves and answers every question from the mirror.
func TestBatchedMatchesSerialKV(t *testing.T) {
	for _, s := range XMPScenarios() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			res, err := scenario.Run(context.Background(), s, teacher.BestCase,
				core.WithKVLearner(true), core.WithBatchedProtocol(true))
			if err != nil {
				t.Fatalf("batched run: %v", err)
			}
			sp := res.Stats.Speculation
			if sp.BatchRounds != 0 || sp.BatchedMQ != 0 || sp.Kept != 0 || sp.Discarded != 0 {
				t.Errorf("KV session reported waves or speculation: %+v", sp)
			}
			if sp.MirrorAnswers == 0 {
				t.Error("KV session answered no questions from the mirror")
			}
		})
	}
}
