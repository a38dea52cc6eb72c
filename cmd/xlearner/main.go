// Command xlearner runs benchmark learning sessions end to end against
// the simulated teacher and prints the learned query, the interaction
// counts, and the verification verdict.
//
//	xlearner -scenario XMark-Q9
//	xlearner -scenario XMP-Q5 -xquery       (nested XQuery-style rendering)
//	xlearner -scenario XMark-Q1,XMark-Q2    (several sessions)
//	xlearner -scenario all -parallel 8      (every scenario, 8 sessions at a time)
//	xlearner -scenario XMP-Q3 -json       (machine-readable api.ResultV1)
//	xlearner -list
//	xlearner -scenario XMark-Q1 -worst -no-r1
//
// Ctrl-C cancels the running sessions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"

	"repro/internal/api"
	"repro/internal/artifacts"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/teacher"
	"repro/internal/xmark"
	"repro/internal/xmp"
)

func all() []*scenario.Scenario {
	return append(xmark.Scenarios(), xmp.Scenarios()...)
}

func main() {
	name := flag.String("scenario", "", "scenario id(s), e.g. XMark-Q9, a comma-separated list, or \"all\"")
	list := flag.Bool("list", false, "list available scenarios")
	worst := flag.Bool("worst", false, "use the worst-case counterexample policy")
	noR1 := flag.Bool("no-r1", false, "disable reduction rule R1")
	noR2 := flag.Bool("no-r2", false, "disable reduction rule R2")
	useKV := flag.Bool("kv", false, "use the Kearns-Vazirani learner instead of L*")
	xquery := flag.Bool("xquery", false, "print the nested XQuery-style rendering")
	jsonOut := flag.Bool("json", false, "emit api.ResultV1 JSON instead of the text report")
	showResult := flag.Bool("result", false, "print the learned query's evaluated result")
	record := flag.String("record", "", "record the session's interactions to this JSON file")
	replayFrom := flag.String("replay", "", "answer from a recorded session instead of the teacher")
	parallel := flag.Int("parallel", 1, "number of concurrent sessions when learning several scenarios")
	flag.Parse()

	if *list {
		for _, s := range all() {
			fmt.Printf("%-12s %s\n", s.ID, s.Description)
		}
		return
	}
	targets, err := selectScenarios(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xlearner:", err)
		os.Exit(1)
	}
	if len(targets) > 1 && (*record != "" || *replayFrom != "") {
		fmt.Fprintln(os.Stderr, "xlearner: -record/-replay need a single -scenario")
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []core.Option{
		core.WithR1(!*noR1),
		core.WithR2(!*noR2),
		core.WithKVLearner(*useKV),
	}
	pol := teacher.BestCase
	if *worst {
		pol = teacher.WorstCase
	}

	results := make([]*scenario.Result, len(targets))
	errs := make([]error, len(targets))
	if len(targets) == 1 {
		results[0], errs[0] = runSession(ctx, targets[0], opts, pol, *record, *replayFrom)
	} else {
		// One session per goroutine; results land in index order so the
		// report below is deterministic regardless of -parallel. The
		// sessions share one artifact store, so scenarios over a common
		// document (each full suite shares one instance) parse and index
		// it once.
		store := artifacts.NewStore(artifacts.DefaultBudget)
		width := *parallel
		if width < 1 {
			width = 1
		}
		if width > len(targets) {
			width = len(targets)
		}
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < width; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					results[i], errs[i] = scenario.RunIn(ctx, store, targets[i], pol, opts...)
				}
			}()
		}
		for i := range targets {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	failed := false
	var jsonResults []*api.ResultV1
	for i, s := range targets {
		if err := errs[i]; err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "xlearner: interrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, "xlearner:", err)
			failed = true
			continue
		}
		res := results[i]
		if *jsonOut {
			jsonResults = append(jsonResults, api.NewResultV1(s.ID, res.Verified, res.Tree, res.Stats))
		} else {
			report(s, res, *xquery, *showResult)
		}
		if !res.Verified {
			failed = true
		}
	}
	if *jsonOut {
		if err := emitJSON(jsonResults); err != nil {
			fmt.Fprintln(os.Stderr, "xlearner:", err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// emitJSON prints one ResultV1 for a single scenario and an array for
// several, so shell pipelines need no unwrapping in the common case.
func emitJSON(results []*api.ResultV1) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if len(results) == 1 {
		return enc.Encode(results[0])
	}
	return enc.Encode(results)
}

func selectScenarios(spec string) ([]*scenario.Scenario, error) {
	if spec == "all" {
		return all(), nil
	}
	byID := map[string]*scenario.Scenario{}
	for _, s := range all() {
		byID[s.ID] = s
	}
	var targets []*scenario.Scenario
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		s, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q (use -list)", id)
		}
		targets = append(targets, s)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no scenario given (use -scenario, or -list)")
	}
	return targets, nil
}

func report(s *scenario.Scenario, res *scenario.Result, xquery, showResult bool) {
	fmt.Printf("== %s: %s ==\n\n", s.ID, s.Description)
	if xquery {
		fmt.Println(res.Tree.XQueryString())
	} else {
		fmt.Println(res.Tree.String())
	}
	// Render through the wire type so the text table and the -json /
	// daemon output can never disagree about what a counter means.
	stats := api.NewStatsV1(res.Stats)
	tot := stats.Totals
	fmt.Printf("interactions: D&D %d(%d)  MQ %d  CE %d  CB %d(%d)  OB %d\n",
		stats.DnD, stats.DnDTerms, tot.MQ, tot.CE, tot.CB, tot.CBTerms, tot.OB)
	fmt.Printf("reduced by rules: %d (R1 %d, R2 %d, both %d)\n",
		tot.ReducedTotal, tot.ReducedR1, tot.ReducedR2, tot.ReducedBoth)
	if res.Verified {
		fmt.Println("verified: learned query reproduces the ground-truth result")
	} else {
		fmt.Println("VERIFICATION FAILED")
	}
	if showResult {
		fmt.Println("\nresult:")
		fmt.Println(res.LearnedXML)
	}
}

// runSession runs the scenario through scenario.Prepare, so one
// session-private bundle backs the teacher, the engine and the
// verification; when recording or replaying is requested the session's
// teacher is wrapped before learning.
func runSession(ctx context.Context, s *scenario.Scenario, opts []core.Option, pol teacher.Policy, record, replayFrom string) (*scenario.Result, error) {
	p := scenario.Prepare(s, pol, opts...)
	var t core.Teacher = p.Sim
	var rec *replay.Recorder
	if replayFrom != "" {
		f, err := os.Open(replayFrom)
		if err != nil {
			return nil, err
		}
		log, err := replay.Load(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		rep := replay.NewReplayer(p.Doc, log, p.Sim)
		t = rep
		defer func() {
			if rep.Misses > 0 {
				fmt.Fprintf(os.Stderr, "xlearner: replay missed %d answers (teacher consulted)\n", rep.Misses)
			} else {
				fmt.Println("replayed: no user interaction was needed")
			}
		}()
	}
	if record != "" {
		rec = replay.NewRecorder(p.Doc, t)
		t = rec
	}
	p.Session.Engine().Teacher = t
	res, err := p.Learn(ctx)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		f, err := os.Create(record)
		if err != nil {
			return nil, err
		}
		if err := rec.Log.Save(f); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
		fmt.Printf("recorded %d interactions to %s\n", len(rec.Log.Entries), record)
	}
	return res, nil
}
