// Command specpmt-crashtest tortures the crash-consistency engines:
// randomized transaction streams, power failures at random points (including
// mid-transaction, with random partial cache eviction), recovery, and
// verification of every power-fail point by the declarative recovery
// checkers (internal/recovery).
//
// Usage:
//
//	specpmt-crashtest [-engine name|all] [-seeds n] [-rounds n] [-profile name]
//	                  [-check] [-pipeline] [-churn] [-replay] [-migrate]
//	                  [-summary file] [-v]
//
// Scenarios:
//
//   - default: the basic torture — random transaction streams against a
//     single pool, crash/recover rounds, all checkers after every round.
//   - -pipeline: speculative group-commit torture — SpecSPMT transactions
//     committed with CommitNoFence in windows retired by one coalescing
//     fence, with the prefix-at-or-past-the-fence-floor checker.
//   - -churn: allocator torture — mixed-size-class alloc/free churn with
//     online compaction, stamps committed transactionally, crash every round.
//   - -replay: replication torture — a primary under client load, replica
//     power failures during replay, full checker pass once caught up.
//   - -migrate: cluster migration-cutover torture — a two-node cluster
//     under routed load with one shard migrating between the nodes, power
//     failures injected mid-pull, post-freeze, at the cutover verify, and
//     after a committed cutover (on both the new owner and the purging old
//     owner), full checker pass after every power-fail point.
//   - -check: the checker matrix — basic, churn AND reclaim (the basic
//     torture on a 4 KiB-block SpecSPMT log that takes reclamation steps as
//     it goes) for the selected engine(s), plus a per-scenario checker
//     summary line.
//
// -summary writes the merged recovery-checker summary as JSON (the CI
// artifact), with reclaim_steps, the number of log reclamation steps the
// runs took. -engine accepts the alias "spec" for SpecSPMT.
//
// A checker violation stops that run at the failing power-fail point; its
// index is printed and the exit status is non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"specpmt/internal/crashtest"
	"specpmt/internal/recovery"
	"specpmt/internal/sim"
)

func main() {
	engine := flag.String("engine", "all", "engine to torture, or \"all\" (alias: spec = SpecSPMT)")
	seeds := flag.Int("seeds", 10, "number of random seeds per engine")
	rounds := flag.Int("rounds", 5, "crash/recover rounds (= power-fail points) per run")
	profile := flag.String("profile", "", "media profile to torture on (default optane-adr; \"list\" enumerates the built-ins)")
	check := flag.Bool("check", false, "run the recovery-checker matrix: basic + allocator-churn scenarios with checker summaries")
	pipeline := flag.Bool("pipeline", false, "torture pipelined speculative commit windows (SpecSPMT only)")
	churn := flag.Bool("churn", false, "torture the logged allocator: mixed-class alloc/free/compaction churn")
	replay := flag.Bool("replay", false, "torture replication replay: replica power failures while tailing a live primary")
	migrate := flag.Bool("migrate", false, "torture cluster migration cutover: node power failures at every phase of a live shard move")
	summaryPath := flag.String("summary", "", "write the merged recovery-checker summary JSON to this file")
	verbose := flag.Bool("v", false, "print every run")
	flag.Parse()

	if *profile == "list" {
		fmt.Print(sim.ProfileTable())
		return
	}
	switch *engine {
	case "spec":
		*engine = "SpecSPMT"
	case "spec-hash":
		*engine = "SpecSPMT-Hash"
	}

	engines := crashtest.Engines()
	if *engine != "all" {
		engines = []string{*engine}
	}

	// The run matrix: scenario runners to execute per engine per seed.
	type runner struct {
		name    string
		perEng  bool // runs once per engine (vs once total, SpecSPMT-only)
		run     func(crashtest.Config) (crashtest.Report, error)
		summary *recovery.Summary
	}
	var matrix []runner
	switch {
	case *pipeline:
		matrix = []runner{{name: "pipeline", run: crashtest.RunSpecPipeline}}
	case *churn:
		matrix = []runner{{name: "churn", perEng: true, run: crashtest.RunAllocChurn}}
	case *replay, *migrate:
		matrix = nil // replay and migrate have their own report types; handled below
	case *check:
		matrix = []runner{
			{name: "basic", perEng: true, run: crashtest.Run},
			{name: "churn", perEng: true, run: crashtest.RunAllocChurn},
			{name: "reclaim", perEng: true, run: crashtest.RunReclaim},
		}
	default:
		matrix = []runner{{name: "basic", perEng: true, run: crashtest.Run}}
	}

	total := recovery.Summary{Scenario: "all"}
	var reclaimSteps uint64
	failed := 0
	for mi := range matrix {
		m := &matrix[mi]
		m.summary = &recovery.Summary{Scenario: m.name}
		engs := engines
		if !m.perEng {
			engs = []string{"SpecSPMT"}
		}
		for _, eng := range engs {
			for seed := uint64(1); seed <= uint64(*seeds); seed++ {
				rep, err := m.run(crashtest.Config{Engine: eng, Seed: seed, Rounds: *rounds, Profile: *profile})
				m.summary.Merge(rep.Checks)
				reclaimSteps += rep.ReclaimSteps
				if err != nil {
					fmt.Fprintf(os.Stderr, "specpmt-crashtest: %s %s seed %d: %v\n", m.name, eng, seed, err)
					failed++
					continue
				}
				if !rep.Ok() {
					failed++
					fmt.Println(rep)
					for _, v := range rep.Violations {
						fmt.Println("  ", v)
					}
					fmt.Fprintf(os.Stderr, "specpmt-crashtest: %s %s seed %d: checker failure at power-fail point %d\n",
						m.name, eng, seed, rep.FailedAt)
				} else if *verbose {
					fmt.Println(rep)
				}
			}
		}
		fmt.Printf("%-9s %d power-fail points, %d checks, %d failed\n",
			m.name+":", m.summary.Points, m.summary.Checks, m.summary.Failed)
		total.Merge(*m.summary)
	}

	if *replay {
		sum := recovery.Summary{Scenario: "replay"}
		rengines := crashtest.ReplayEngines()
		if *engine != "all" {
			rengines = []string{*engine}
		}
		for _, eng := range rengines {
			for seed := uint64(1); seed <= uint64(*seeds); seed++ {
				rep, err := crashtest.ReplicaReplay(crashtest.ReplayConfig{Engine: eng, Seed: seed, Rounds: *rounds, Profile: *profile})
				sum.Merge(rep.Checks)
				if err != nil {
					fmt.Fprintf(os.Stderr, "specpmt-crashtest: replay %s seed %d: %v\n", eng, seed, err)
					failed++
					continue
				}
				if !rep.Ok() {
					failed++
					fmt.Println(rep)
					for _, v := range rep.Violations {
						fmt.Println("  ", v)
					}
					fmt.Fprintf(os.Stderr, "specpmt-crashtest: replay %s seed %d: checker failure at power-fail point %d\n",
						eng, seed, rep.FailedAt)
				} else if *verbose {
					fmt.Println(rep)
				}
			}
		}
		fmt.Printf("%-9s %d power-fail points, %d checks, %d failed\n", "replay:", sum.Points, sum.Checks, sum.Failed)
		total.Merge(sum)
	}

	if *migrate {
		sum := recovery.Summary{Scenario: "migrate"}
		mengines := crashtest.MigrateEngines()
		if *engine != "all" {
			mengines = []string{*engine}
		}
		for _, eng := range mengines {
			for seed := uint64(1); seed <= uint64(*seeds); seed++ {
				rep, err := crashtest.MigrationCutover(crashtest.MigrateConfig{Engine: eng, Seed: seed, Rounds: *rounds, Profile: *profile})
				sum.Merge(rep.Checks)
				if err != nil {
					fmt.Fprintf(os.Stderr, "specpmt-crashtest: migrate %s seed %d: %v\n", eng, seed, err)
					failed++
					continue
				}
				if !rep.Ok() {
					failed++
					fmt.Println(rep)
					for _, v := range rep.Violations {
						fmt.Println("  ", v)
					}
					fmt.Fprintf(os.Stderr, "specpmt-crashtest: migrate %s seed %d: checker failure at power-fail point %d\n",
						eng, seed, rep.FailedAt)
				} else if *verbose {
					fmt.Println(rep)
				}
			}
		}
		fmt.Printf("%-9s %d power-fail points, %d checks, %d failed\n", "migrate:", sum.Points, sum.Checks, sum.Failed)
		total.Merge(sum)
	}

	if *summaryPath != "" {
		out := struct {
			recovery.Summary
			ReclaimSteps uint64 `json:"reclaim_steps"`
		}{total, reclaimSteps}
		buf, err := json.MarshalIndent(out, "", "  ")
		if err == nil {
			err = os.WriteFile(*summaryPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "specpmt-crashtest: writing summary: %v\n", err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "specpmt-crashtest: %d failing runs\n", failed)
		os.Exit(1)
	}
}
