package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataguide"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/xmark"
)

// TestR1SourceStatsGolden pins every XMark scenario's Stats under the
// two metadata-backed R1 modes: `dtd` (the XMark DTD as
// Options.SourceDTD) and `guide` (a strong DataGuide behind
// Options.R1Filter). Both modes check a word's labels with AcceptsPath,
// so they are the engine's one membership path that still builds a word
// from its trie ID; the default instance mode never does. Every counter
// of every fragment, the transport counters and the verification
// verdict must stay as recorded. Regenerate with -update.
func TestR1SourceStatsGolden(t *testing.T) {
	var b strings.Builder
	for _, mode := range []string{"dtd", "guide"} {
		for _, s := range XMarkScenarios() {
			var opt core.Option
			if mode == "dtd" {
				opt = core.WithSourceDTD(xmark.DTD())
			} else {
				opt = core.WithR1Filter(dataguide.Build(s.Doc()))
			}
			res, err := scenario.Run(context.Background(), s, teacher.BestCase, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", mode, s.ID, err)
			}
			fmt.Fprintf(&b, "%s %s verified=%v dnd=%d/%d %+v\n", mode, s.ID, res.Verified,
				res.Stats.DnD, res.Stats.DnDTerms, res.Stats.Speculation)
			for _, f := range res.Stats.Fragments {
				fmt.Fprintf(&b, "  %+v\n", f)
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "r1source_stats.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("R1-source stats drifted from golden\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
