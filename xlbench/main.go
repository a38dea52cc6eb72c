// Command xlbench is the repository's end-to-end benchmark: it drives
// XLearner learning sessions from outside the program, through the
// public scenario, core, teacher, artifacts and server APIs, on four
// named workloads, checks every session's output, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) by
// name with their units. See README.md in this directory.
//
//	xlbench -workload suite -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything before it is the
// human-readable report (host stamp, every metric, unverified
// sessions).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: golden files are read from here
	out      string // directory the span dump is written to
	commit   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xlbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: fixes the generated instances and the session order")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository checkout holding internal/experiments/testdata/golden")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "xlbench"), "directory for the span dump of a traced run")
	fs.StringVar(&o.commit, "commit", "unknown", "commit the binary was built from (host stamp)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "xlbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	wl, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "xlbench: unknown workload %q (want one of %s)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "xlbench: -seconds must be positive")
		return 2
	}
	golden, err := loadGolden(filepath.Join(o.root, "internal", "experiments", "testdata", "golden"))
	if err != nil {
		fmt.Fprintln(stderr, "xlbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds*float64(time.Second))+150*time.Second)
	defer cancel()
	res, err := execute(ctx, o, wl, golden)
	if err != nil {
		fmt.Fprintln(stderr, "xlbench:", err)
		return 1
	}
	printReport(stdout, o, wl, res)
	line, err := json.Marshal(res.summary(o.trace))
	if err != nil {
		fmt.Fprintln(stderr, "xlbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
