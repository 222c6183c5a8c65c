package crashtest

import "testing"

// TestMigrationCutover runs one full injection cycle — mid-pull,
// post-freeze, at-cutover, and a committed cutover crashed on both the new
// owner and the purging old owner — on the default engine.
func TestMigrationCutover(t *testing.T) {
	rep, err := Run(scenario(t, "migrate"), Config{Seed: 1, Rounds: 4, TxPerRound: 60})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if !rep.Ok() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.Cutovers != 1 || rep.Aborted != 3 {
		t.Fatalf("cutovers=%d aborted=%d, want 1 committed and 3 aborted", rep.Cutovers, rep.Aborted)
	}
	// Five power-fail points: one per aborted round, two for the committed
	// cutover (new owner, then purged old owner).
	if rep.Crashes != 5 || rep.Checks.Points != 5 {
		t.Fatalf("crashes=%d points=%d, want 5", rep.Crashes, rep.Checks.Points)
	}
	if rep.Checks.Failed != 0 {
		t.Fatalf("checker summary reports %d failures", rep.Checks.Failed)
	}
}

// TestMigrationCutoverPMDK exercises the scenario on the undo-log engine,
// whose recovery path (write-free undo rollback) differs most from the
// speculative engines.
func TestMigrationCutoverPMDK(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep, err := Run(scenario(t, "migrate"), Config{Engine: "PMDK", Seed: 2, Rounds: 4, TxPerRound: 40})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if !rep.Ok() {
		t.Fatalf("violations: %v", rep.Violations)
	}
}
