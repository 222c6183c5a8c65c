// Command benchmark is this repository's benchmark: it builds the server and
// the evaluation CLI from source, runs them as child processes with default
// flags, drives them through its own wire client, and prints every metric by
// name and unit after checking the outputs. See README.md.
//
//	go run -C benchmark . -workload mixed-sat -seed 7            # end to end
//	go run -C benchmark . -workload mixed-sat -seed 7 -trace 1   # per layer
//	go run -C benchmark . -workload all -repeat 3                # with spread
//	go run -C benchmark . -diff a.json b.json                    # regressions
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "all", "set-paced | mixed-sat | read-text | stamp-eval | all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := flag.Int("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 makes the traced run and reports the per-layer metrics; 0 the end-to-end metrics")
	repeat := flag.Int("repeat", 1, "run each workload this many times, on seeds seed, seed+1, ..., and print each metric's spread")
	diff := flag.Bool("diff", false, "compare two results files: -diff a.json b.json")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *diff {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-diff takes two results files"))
		}
		a, err := readResultsFile(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResultsFile(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if printDiff(os.Stdout, a, b, spec) > 0 {
			return 2
		}
		return 0
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	var names []string
	switch {
	case *name == "all":
		for _, w := range kvWorkloads {
			names = append(names, w.name)
		}
		names = append(names, stampWorkload)
	case *name == stampWorkload || workloadByName(*name) != nil:
		names = []string{*name}
	default:
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 || *repeat < 1 || *trace < 0 || *trace > 1 {
		return fail(fmt.Errorf("-seconds and -repeat must be at least 1, -trace 0 or 1"))
	}
	e, err := newEnv(ctx, root)
	if err != nil {
		return fail(err)
	}

	rf := newResultsFile(e.root)
	for i := 0; i < *repeat; i++ {
		for _, n := range names {
			r, err := runOne(ctx, e, n, *seed+uint64(i), *seconds, *trace == 1)
			if err != nil {
				return fail(fmt.Errorf("%s: %w", n, err))
			}
			rf.Runs = append(rf.Runs, r)
			printRun(os.Stdout, r)
		}
	}
	out := filepath.Join(e.out, fmt.Sprintf("results-%s-seed%d-trace%d-x%d.json", *name, *seed, *trace, *repeat))
	if err := rf.write(out); err != nil {
		return fail(err)
	}
	fmt.Println("\nresults:", out)
	if *repeat > 1 {
		printRepeat(os.Stdout, rf.Runs, spec)
	}
	if len(rf.Runs) == 1 {
		// The line the benchmark's driver reads.
		r := rf.Runs[0]
		ms := r.EndToEnd
		if r.Trace {
			ms = r.PerLayer
		}
		line := map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": contractMetrics(ms)}
		b, err := json.Marshal(line)
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(b))
	}
	return 0
}

// contractMetrics drops the sample counts: the driver's line has exactly
// value and unit.
func contractMetrics(ms map[string]metric) map[string]map[string]any {
	out := map[string]map[string]any{}
	for name, m := range ms {
		out[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	return out
}

// runOne makes one run of one workload: the end-to-end run, or with trace
// the traced run and then the layer ladder and the harness rung.
func runOne(ctx context.Context, e *env, name string, seed uint64, seconds int, trace bool) (*runResult, error) {
	if name == stampWorkload && !trace {
		return runStamp(ctx, e, seed, seconds)
	}
	r := &runResult{Workload: name, Seed: seed, Seconds: seconds, Trace: true, Correct: true, Attempted: 1, PerLayer: map[string]metric{}}
	if w := workloadByName(name); w != nil {
		var err error
		if r, err = runKV(ctx, e, w, seed, seconds, trace); err != nil || !trace {
			return r, err
		}
		ladder, err := runLadder(ctx, e, w, seed)
		if err != nil {
			// The ladder imports the module's packages, so a refactor can
			// break its build. Its metrics then go missing; the rest stands.
			fmt.Println("layer ladder failed, its metrics are missing:", err)
		}
		for k, v := range ladder {
			r.PerLayer[k] = v
		}
		addResiduals(r.PerLayer)
	}
	harness, err := harnessLayer(ctx, e, seed)
	if err != nil {
		return nil, err
	}
	for k, v := range harness {
		r.PerLayer[k] = v
	}
	return r, nil
}
