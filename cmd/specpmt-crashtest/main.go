// Command specpmt-crashtest runs the crash-torture scenarios of
// internal/crashtest: randomized workloads, power failures at random
// points, recovery, and every recovery checker at every power-fail point.
//
//	specpmt-crashtest [-scenario a,b,...] [-engine name|all] [-seeds n]
//	                  [-rounds n] [-profile name] [-summary file] [-v]
//
// -scenario runs the named entries of crashtest.Scenarios in order (default
// basic; an unknown name lists the table). With -engine all each scenario
// runs on its own eligible engines; a named engine ("spec" = SpecSPMT) runs
// in every one. -summary writes the merged checker summary as JSON, with
// reclaim_steps and one entry per scenario under "scenarios". A failing run
// prints its power-fail point index and the exit status is non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specpmt/internal/crashtest"
	"specpmt/internal/recovery"
	"specpmt/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("specpmt-crashtest", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("scenario", "basic", "comma-separated scenarios to run, in order: basic, reclaim, churn, pipeline, replay, migrate")
	engine := fs.String("engine", "all", "engine to torture, or \"all\" (alias: spec = SpecSPMT)")
	seeds := fs.Int("seeds", 10, "number of random seeds per engine")
	rounds := fs.Int("rounds", 5, "crash/recover rounds per run")
	profile := fs.String("profile", "", "media profile to torture on (default optane-adr; \"list\" enumerates the built-ins)")
	summaryPath := fs.String("summary", "", "write the merged recovery-checker summary JSON to this file")
	verbose := fs.Bool("v", false, "print every run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *profile == "list" {
		fmt.Fprint(stdout, sim.ProfileTable())
		return 0
	}
	var scenarios []crashtest.Scenario
	for _, name := range strings.Split(*names, ",") {
		sc, ok := crashtest.Lookup(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(stderr, "specpmt-crashtest: unknown scenario %q; the scenarios are:\n", name)
			for _, sc := range crashtest.Scenarios {
				fmt.Fprintf(stderr, "  %-9s %s\n", sc.Name, sc.Doc)
			}
			return 2
		}
		scenarios = append(scenarios, sc)
	}
	switch *engine {
	case "spec":
		*engine = "SpecSPMT"
	case "spec-hash":
		*engine = "SpecSPMT-Hash"
	}

	total := recovery.Summary{Scenario: "all"}
	var perScenario []recovery.Summary
	var reclaimSteps uint64
	failed := 0
	for _, sc := range scenarios {
		sum := recovery.Summary{Scenario: sc.Name}
		engines := sc.Engines()
		if *engine != "all" {
			engines = []string{*engine}
		}
		for _, eng := range engines {
			for seed := uint64(1); seed <= uint64(*seeds); seed++ {
				rep, err := crashtest.Run(sc, crashtest.Config{Engine: eng, Seed: seed, Rounds: *rounds, Profile: *profile})
				sum.Merge(rep.Checks)
				reclaimSteps += rep.ReclaimSteps
				switch {
				case err != nil:
					failed++
					fmt.Fprintf(stderr, "specpmt-crashtest: %s %s seed %d: %v\n", sc.Name, eng, seed, err)
				case !rep.Ok():
					failed++
					fmt.Fprintln(stdout, rep)
					for _, v := range rep.Violations {
						fmt.Fprintln(stdout, "  ", v)
					}
					fmt.Fprintf(stderr, "specpmt-crashtest: %s %s seed %d: checker failure at power-fail point %d\n",
						sc.Name, eng, seed, rep.FailedAt)
				case *verbose:
					fmt.Fprintln(stdout, rep)
				}
			}
		}
		fmt.Fprintf(stdout, "%-9s %d power-fail points, %d checks, %d failed\n",
			sc.Name+":", sum.Points, sum.Checks, sum.Failed)
		total.Merge(sum)
		perScenario = append(perScenario, sum)
	}

	if *summaryPath != "" {
		out := struct {
			recovery.Summary
			ReclaimSteps uint64             `json:"reclaim_steps"`
			Scenarios    []recovery.Summary `json:"scenarios"`
		}{total, reclaimSteps, perScenario}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(*summaryPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "specpmt-crashtest: writing summary: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "specpmt-crashtest: %d failing runs\n", failed)
		return 1
	}
	return 0
}
