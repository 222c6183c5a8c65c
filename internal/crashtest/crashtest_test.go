package crashtest

import (
	"fmt"
	"testing"
)

func TestAllEnginesSurviveTorture(t *testing.T) {
	for _, engine := range Engines() {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				rep, err := Run(Config{Engine: engine, Seed: seed, Rounds: 3})
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
	var steps uint64
	for seed := uint64(1); seed <= 4; seed++ {
		rep, err := RunReclaim(Config{Engine: "SpecSPMT", Seed: seed, Rounds: 8})
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

func TestTortureIsDeterministic(t *testing.T) {
	a, err := Run(Config{Engine: "SpecSPMT", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Engine: "SpecSPMT", Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", a, b)
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
	rep := Report{Engine: "X", Violations: []string{"boom"}}
	if rep.Ok() {
		t.Fatal("report with violations cannot be Ok")
	}
	if s := rep.String(); s == "" {
		t.Fatal("empty report string")
	}
}

// TestSoftwareEnginesRecoverUnderEADR is the recovery matrix of the software
// engines on the optane-eadr profile: with an eADR persistence domain every
// accepted store is instantly persistent, which changes what a crash can
// lose — the engines must stay crash consistent anyway.
func TestSoftwareEnginesRecoverUnderEADR(t *testing.T) {
	for _, engine := range []string{"PMDK", "Kamino-Tx", "SPHT", "SpecSPMT-DP", "SpecSPMT"} {
		engine := engine
		t.Run(engine, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				rep, err := Run(Config{Engine: engine, Seed: seed, Rounds: 3, Profile: "optane-eadr"})
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
	if _, err := Run(Config{Engine: "SpecSPMT", Profile: "no-such-media"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}
