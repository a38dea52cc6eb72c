package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
)

// LatencySweep runs every scenario's learning session once under
// simulated teacher latency (teacher.Sim.Latency), with either the
// serial or the batched, mirrored protocol, over a shared artifact
// store so repeated sweeps pay for parses, indexes, and truth extents
// once. It measures the session dialogue only — Session.Learn, not the
// result-verification evaluation, which is protocol-independent and
// covered by TestBatchedMatchesSerial. It returns a fingerprint
// covering each run's learned tree and dialogue counters (with the
// transport-side Speculation counters masked), so a caller timing two
// sweeps can also assert that the protocol variants produced
// byte-identical dialogues. The sweep itself takes no clock readings —
// wall-clock measurement belongs to the cmd/experiments layer.
func LatencySweep(ctx context.Context, store *artifacts.Store, scns []*scenario.Scenario,
	latency time.Duration, batched bool) (string, error) {
	var b strings.Builder
	for _, s := range scns {
		var opts []core.Option
		if batched {
			opts = append(opts, core.WithBatchedProtocol(true))
		}
		p, err := scenario.PrepareIn(ctx, store, s, teacher.BestCase, opts...)
		if err != nil {
			return "", err
		}
		p.SetTeacherLatency(latency)
		tree, stats, err := p.Session.Learn(ctx, &core.TaskSpec{Target: s.Target, Drops: s.Drops})
		if err != nil {
			return "", fmt.Errorf("scenario %s: %w", s.ID, err)
		}
		st := *stats
		st.Speculation = core.SpeculationStats{}
		fmt.Fprintf(&b, "%s stats=%+v tree=%q\n", s.ID, st, tree.String())
	}
	return b.String(), nil
}

// FormatTeacherLatency renders the latency benchmark's summary line
// from durations measured by the caller.
func FormatTeacherLatency(latency time.Duration, serial, batched time.Duration) string {
	speedup := 0.0
	if batched > 0 {
		speedup = float64(serial) / float64(batched)
	}
	return fmt.Sprintf(
		"Teacher latency %v per round trip (XMark suite):\n  serial protocol:  %8.1f ms\n  batched protocol: %8.1f ms\n  speedup:          %8.2fx",
		latency,
		float64(serial.Microseconds())/1000,
		float64(batched.Microseconds())/1000,
		speedup)
}
