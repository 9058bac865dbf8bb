// Command perfbench is the repository's end-to-end benchmark. It runs the
// simulator's workloads through the public exp entry points (the same path
// cmd/iobench takes), checks every workload's simulated output, and prints
// host time, CPU, peak memory and set-up cost. A traced run (-trace 1)
// instead reports per-layer numbers, each measured from outside the layer by
// timing calls into its public functions.
//
// Run it from the repository root through perfbench/run.py, which builds
// this package first:
//
//	python3 perfbench/run.py --workload fig5-16k --seed 1 --seconds 20 --trace 0
//	python3 perfbench/run.py --smoke
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Each workload iteration, the
// set-up timing and the layer drivers run in child processes of this
// binary, so peak RSS and CPU are those of the process that did the work.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// heldOutSeed is the seed no part of this benchmark was tuned on. A change
// that claims a gain must also hold its claim at this seed.
const heldOutSeed = 2011

// runBudget bounds a whole invocation: children still running at the
// deadline are killed and the run fails, so a hung simulation cannot hold
// a run past three minutes.
const runBudget = 170 * time.Second

// outDir holds build outputs, records, span files and CPU profiles; it is
// relative to the repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see -list)")
		seed     = flag.Uint64("seed", 1, "workload seed, passed to the simulator through exp.Seed")
		seconds  = flag.Float64("seconds", 20, "measurement time of one run")
		traced   = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		smoke    = flag.Bool("smoke", false, "run every workload, layer driver and the traced run once at small np, and check the metric names")
		list     = flag.Bool("list", false, "list the workloads and exit")
		printOut = flag.Bool("print", false, "print the workload's simulated output (the seed-1 reference format) and exit")
		np       = flag.Int("np", 0, "override the workload's processor count (child processes and -print)")
		child    = flag.String("child", "", "internal: run one piece of work in this process (iter, traced, setup, layers)")
	)
	flag.Parse()

	if *list {
		for _, w := range workloads {
			fmt.Printf("%-12s np=%-6d %s\n", w.name, w.np, w.why)
		}
		return
	}
	if *smoke {
		if err := runSmoke(); err != nil {
			fail(err)
		}
		fmt.Println("perfbench: smoke ok")
		return
	}
	w, ok := lookupWorkload(*workload)
	if !ok {
		fail(fmt.Errorf("unknown workload %q (try -list)", *workload))
	}
	scale := w.np
	if *np > 0 {
		scale = *np
	}
	if *printOut {
		out, _ := w.simulate(nil, *seed, scale)
		if out.text == "" {
			fail(fmt.Errorf("%s produced no output: %v", w.name, out.problems))
		}
		fmt.Print(out.text)
		return
	}
	if *child != "" {
		res, err := runChild(*child, w, *seed, scale)
		if err != nil {
			fail(err)
		}
		emit(res)
		return
	}
	if *traced != 0 && *traced != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traced))
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	p := plan{w: w, seed: *seed, np: scale, seconds: *seconds, layers: "layers"}
	var rec *record
	var err error
	if *traced == 1 {
		rec, err = p.traced(ctx)
	} else {
		rec, err = p.timed(ctx)
	}
	if err != nil {
		fail(err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traced)
	if err := rec.write(filepath.Join(outDir, name)); err != nil {
		fail(err)
	}
	emit(rec.result())
}

// emit prints v as the final line of standard output.
func emit(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	var ce *childError
	if errors.As(err, &ce) && ce.stderr != "" {
		fmt.Fprint(os.Stderr, ce.stderr)
	}
	os.Exit(1)
}
