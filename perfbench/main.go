// Command perfbench is the tradenet benchmark: a batch-simulator benchmark
// that builds a trading plant through internal/core, drives it with
// open-loop market-data bursts and reports how much market activity a run
// gets through per host second, what it allocates, how much heap it keeps,
// how long the plant takes to build, and whether the simulated outputs are
// still the recorded ones.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it adds a
// separate traced run and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// --workload all runs every workload in turn, each for --seconds, and
// prefixes each metric in the last line with its workload's name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outDir holds the traced run's span logs and CPU profiles.
var outDir = filepath.Join(".bench_build", "perfbench")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name (see spec.json), or all")
	fs.Int64Var(&o.seed, "seed", 1, "Scenario.Seed: the seed every input is drawn from")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds to measure for")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds the traced run and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ws := spec.Workloads
	if o.workload != "all" {
		w, err := spec.workload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		ws = []Workload{w}
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		res, err := (&bench{spec: spec, w: w, o: o, out: stdout}).execute()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if len(ws) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			total.Metrics[w.Name+"/"+name] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
