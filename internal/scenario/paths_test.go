package scenario_test

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/artifacts"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/ucr"
	"repro/internal/xmark"
	"repro/internal/xmp"
)

// TestPlainMatchesStorePath runs every registered scenario through the
// plain path (Run, over a session-private bundle) and the store path
// (RunIn, over a published one) and requires the same learned tree,
// interaction counts and verdict. A plain Prepare must expose the one
// index its session shares.
func TestPlainMatchesStorePath(t *testing.T) {
	ctx := context.Background()
	store := artifacts.NewStore(0)
	scns := append(append(xmark.Scenarios(), xmp.Scenarios()...), ucr.Scenarios()...)
	if len(scns) != 38 {
		t.Fatalf("%d registered scenarios, want 38", len(scns))
	}
	for _, s := range scns {
		t.Run(s.ID, func(t *testing.T) {
			p := scenario.Prepare(s, teacher.BestCase)
			if p.Index == nil || p.Index.Doc() != p.Doc {
				t.Fatal("plain Prepare has no index over its document")
			}
			plain, err := scenario.Run(ctx, s, teacher.BestCase)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := scenario.RunIn(ctx, store, s, teacher.BestCase)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Tree.String() != shared.Tree.String() {
				t.Fatalf("learned trees differ:\nplain:\n%s\nstore:\n%s", plain.Tree, shared.Tree)
			}
			if !reflect.DeepEqual(plain.Stats, shared.Stats) {
				t.Fatalf("stats differ:\nplain: %+v\nstore: %+v", plain.Stats, shared.Stats)
			}
			if plain.Verified != shared.Verified {
				t.Fatalf("verified plain=%v store=%v", plain.Verified, shared.Verified)
			}
		})
	}
}
