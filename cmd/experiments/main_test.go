package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/artifacts"
	"repro/internal/experiments"
)

// TestBatchedProtocolSpeedup is the acceptance benchmark for the
// batched, mirrored teacher protocol: with a simulated 5ms
// round-trip teacher, the batched XMark suite must finish at least 3x
// faster than the serial suite while producing a byte-identical
// dialogue. The warm-up sweep fills the shared artifact store so both
// timed sweeps measure protocol latency, not parsing or indexing.
//
// The serial suite spends most of its wall-clock asleep while the
// batched suite is compute-bound, so CPU contention from concurrently
// running test binaries deflates the measured ratio; the test retries
// a few times (contention is transient) and is skipped entirely under
// the race detector, whose instrumentation slows compute, not sleeps.
func TestBatchedProtocolSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("latency-simulated benchmark; skipped in -short")
	}
	if raceEnabled {
		t.Skip("wall-clock benchmark; skipped under the race detector")
	}
	ctx := context.Background()
	store := artifacts.NewStore(0)
	scns := experiments.XMarkScenarios()
	const lat = 5 * time.Millisecond

	if _, err := experiments.LatencySweep(ctx, store, scns, 0, false); err != nil {
		t.Fatalf("warm-up sweep: %v", err)
	}
	best := 0.0
	for attempt := 1; attempt <= 3; attempt++ {
		t0 := time.Now()
		fpSerial, err := experiments.LatencySweep(ctx, store, scns, lat, false)
		if err != nil {
			t.Fatalf("serial sweep: %v", err)
		}
		serial := time.Since(t0)
		t1 := time.Now()
		fpBatched, err := experiments.LatencySweep(ctx, store, scns, lat, true)
		if err != nil {
			t.Fatalf("batched sweep: %v", err)
		}
		batched := time.Since(t1)

		if fpSerial != fpBatched {
			t.Fatalf("batched dialogue diverged from serial\nserial:\n%s\nbatched:\n%s", fpSerial, fpBatched)
		}
		speedup := float64(serial) / float64(batched)
		t.Logf("attempt %d: serial %v, batched %v, speedup %.2fx", attempt, serial, batched, speedup)
		if speedup > best {
			best = speedup
		}
		if best >= 3 {
			return
		}
	}
	t.Errorf("batched protocol speedup %.2fx, want >= 3x", best)
}
