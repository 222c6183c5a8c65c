package crashtest

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"specpmt/internal/recovery"
)

func scenario(t *testing.T, name string) Scenario {
	t.Helper()
	sc, ok := Lookup(name)
	if !ok {
		t.Fatalf("no scenario %q", name)
	}
	return sc
}

func TestAllEnginesSurviveTorture(t *testing.T) {
	basic := scenario(t, "basic")
	for _, engine := range Engines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				rep, err := Run(basic, Config{Engine: engine, Seed: seed, Rounds: 3})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !rep.Ok() {
					t.Fatalf("seed %d: %s\n%v", seed, rep, rep.Violations)
				}
				if rep.Crashes != 3 {
					t.Fatalf("seed %d: crashes=%d", seed, rep.Crashes)
				}
			}
		})
	}
}

// TestReclaimScenarioTakesSteps runs the reclaim scenario on SpecSPMT: it
// must pass every checker and reach reclamation, or its power-fail points
// would only repeat the basic scenario's.
func TestReclaimScenarioTakesSteps(t *testing.T) {
	reclaim := scenario(t, "reclaim")
	var steps uint64
	for seed := uint64(1); seed <= 4; seed++ {
		rep, err := Run(reclaim, Config{Engine: "SpecSPMT", Seed: seed, Rounds: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: %s\n%v", seed, rep, rep.Violations)
		}
		steps += rep.ReclaimSteps
	}
	if steps == 0 {
		t.Fatal("four reclaim-scenario runs took no reclamation step")
	}
}

// TestScenariosAreDeterministic pins reproducibility from the seed alone
// for every scenario whose workload depends on nothing but the seed (the
// server scenarios also race real goroutines and sockets).
func TestScenariosAreDeterministic(t *testing.T) {
	for _, row := range []struct {
		name string
		seed uint64
	}{{"basic", 9}, {"reclaim", 9}, {"churn", 9}, {"pipeline", 13}} {
		t.Run(row.name, func(t *testing.T) {
			sc := scenario(t, row.name)
			var reps [2]Report
			for i := range reps {
				rep, err := Run(sc, Config{Seed: row.seed})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Ok() || rep.Committed == 0 || rep.Checks.Points != rep.Rounds {
					t.Fatalf("run %d: %s %v", i, rep, rep.Violations)
				}
				rep.Checks.DurationNs = 0
				reps[i] = rep
			}
			if !reflect.DeepEqual(reps[0], reps[1]) {
				t.Fatalf("same seed produced different reports:\n%+v\n%+v", reps[0], reps[1])
			}
		})
	}
}

// TestScenarioDefaults pins each table entry's budget: a zero Config field
// takes the scenario's default, a set one is kept.
func TestScenarioDefaults(t *testing.T) {
	for _, row := range []struct {
		name, engine string
		want         Config
	}{
		{"basic", "", Config{Engine: "SpecSPMT", Rounds: 5, TxPerRound: 40, Keys: 32, WritesPerTx: 8, PoolSize: 128 << 20}},
		{"reclaim", "SpecHPMT", Config{Engine: "SpecHPMT", Rounds: 5, TxPerRound: 40, Keys: 32, WritesPerTx: 8, PoolSize: 128 << 20}},
		{"churn", "", Config{Engine: "SpecSPMT", Rounds: 5, TxPerRound: 40, Keys: 32, WritesPerTx: 8, PoolSize: 128 << 20}},
		{"pipeline", "", Config{Engine: "SpecSPMT", Rounds: 5, TxPerRound: 40, Keys: 32, WritesPerTx: 8, PoolSize: 128 << 20}},
		{"replay", "", Config{Engine: "SpecSPMT", Rounds: 4, TxPerRound: 120, Keys: 64, Shards: 4, LogCap: 64, PoolSize: 64 << 20}},
		{"replay", "SpecHPMT", Config{Engine: "SpecHPMT", Rounds: 4, TxPerRound: 120, Keys: 64, Shards: 4, LogCap: 64, PoolSize: 256 << 20}},
		{"migrate", "", Config{Engine: "SpecSPMT", Rounds: 4, TxPerRound: 80, Keys: 64, Shards: 4, PoolSize: 64 << 20}},
		{"migrate", "SpecHPMT", Config{Engine: "SpecHPMT", Rounds: 4, TxPerRound: 80, Keys: 64, Shards: 4, PoolSize: 256 << 20}},
	} {
		if got := scenario(t, row.name).withDefaults(Config{Engine: row.engine}); got != row.want {
			t.Errorf("%s/%s defaults:\n got %+v\nwant %+v", row.name, row.engine, got, row.want)
		}
	}
	got := scenario(t, "replay").withDefaults(Config{Rounds: 2, PoolSize: 1 << 20, Engine: "SpecHPMT"})
	if got.Rounds != 2 || got.PoolSize != 1<<20 {
		t.Fatalf("set fields overridden: %+v", got)
	}
	if len(Scenarios) != 6 {
		t.Fatalf("%d scenarios, want basic, reclaim, churn, pipeline, replay, migrate", len(Scenarios))
	}
}

// fakeSUT is a system under test that only counts power failures and
// recoveries.
type fakeSUT struct{ crashes, recovers int }

func (f *fakeSUT) Crash(uint64) error { f.crashes++; return nil }
func (f *fakeSUT) Recover() error     { f.recovers++; return nil }

// TestDriverStopsAtFirstViolation pins the driver's crash and check sites:
// every power-fail point recovers the pool and runs the registry, and the
// first failing point ends the run cleanly with its index in FailedAt.
func TestDriverStopsAtFirstViolation(t *testing.T) {
	sut := &fakeSUT{}
	sc := Scenario{Name: "fake", Defaults: budget, setup: func(t *torture) (func(int) error, error) {
		t.reg.Register(recovery.Func("fails.at.2", nil, func() error {
			if t.reg.Points() == 3 {
				return errors.New("boom")
			}
			return nil
		}))
		return func(round int) error { return t.powerFail(round, sut) }, nil
	}}
	rep, err := Run(sc, Config{Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ok() || rep.FailedAt != 2 || rep.Crashes != 3 || rep.Checks.Points != 3 || rep.Checks.Failed != 1 {
		t.Fatalf("report %s (FailedAt %d, %+v)", rep, rep.FailedAt, rep.Checks)
	}
	if sut.crashes != 3 || sut.recovers != 3 {
		t.Fatalf("crashes=%d recovers=%d, want 3 each", sut.crashes, sut.recovers)
	}
	if !strings.Contains(rep.Violations[0], "round 2") || !strings.Contains(rep.Violations[0], "boom") {
		t.Fatalf("violation %q", rep.Violations[0])
	}
}

func TestEnginesExcludesNoLog(t *testing.T) {
	for _, e := range Engines() {
		if e == "no-log" {
			t.Fatal("no-log must be excluded from crash testing")
		}
	}
	if len(Engines()) < 8 {
		t.Fatalf("expected at least 8 crash-testable engines, got %v", Engines())
	}
}

func TestReportString(t *testing.T) {
	rep := Report{Scenario: "reclaim", Engine: "X", ReclaimSteps: 3, Violations: []string{"boom"}}
	if rep.Ok() {
		t.Fatal("report with violations cannot be Ok")
	}
	s := rep.String()
	if !strings.HasPrefix(s, "reclaim ") || !strings.Contains(s, "reclaim_steps=3") || !strings.Contains(s, "FAILED") {
		t.Fatalf("report string %q", s)
	}
	if strings.Contains(s, "cutovers") {
		t.Fatalf("report string %q shows a counter the scenario does not drive", s)
	}
}

// TestSoftwareEnginesRecoverUnderEADR is the recovery matrix of the software
// engines on the optane-eadr profile: with an eADR persistence domain every
// accepted store is instantly persistent, which changes what a crash can
// lose — the engines must stay crash consistent anyway.
func TestSoftwareEnginesRecoverUnderEADR(t *testing.T) {
	basic := scenario(t, "basic")
	for _, engine := range []string{"PMDK", "Kamino-Tx", "SPHT", "SpecSPMT-DP", "SpecSPMT"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				rep, err := Run(basic, Config{Engine: engine, Seed: seed, Rounds: 3, Profile: "optane-eadr"})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !rep.Ok() {
					t.Fatalf("seed %d: %s\n%v", seed, rep, rep.Violations)
				}
			}
		})
	}
}

// TestUnknownProfileRejected pins the error path: a bad profile name must
// surface, not silently fall back to the default media.
func TestUnknownProfileRejected(t *testing.T) {
	if _, err := Run(scenario(t, "basic"), Config{Engine: "SpecSPMT", Profile: "no-such-media"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestSpecPipelinePowerFail is the crash-safety half of the server's
// pipelined group commit: power failures with unretired speculative windows
// outstanding (and sometimes an open transaction) must recover to a clean
// prefix that includes everything a retired fence acknowledged.
func TestSpecPipelinePowerFail(t *testing.T) {
	pipeline := scenario(t, "pipeline")
	for seed := uint64(1); seed <= 8; seed++ {
		rep, err := Run(pipeline, Config{Seed: seed, Rounds: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Ok() {
			t.Fatalf("seed %d: %s\n%v", seed, rep, rep.Violations)
		}
		if rep.Crashes != 4 {
			t.Fatalf("seed %d: crashes=%d", seed, rep.Crashes)
		}
		if rep.Committed == 0 {
			t.Fatalf("seed %d: no speculative commits ran", seed)
		}
	}
}
