package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenarioListRunsEveryNamedScenario pins that -scenario runs every
// named scenario, in order, and that the summary carries one entry per
// scenario with its own power-fail points.
func TestScenarioListRunsEveryNamedScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-scenario", "basic,replay", "-engine", "spec", "-seeds", "1", "-rounds", "1", "-summary", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum struct {
		Points    int `json:"power_fail_points"`
		Scenarios []struct {
			Scenario string `json:"scenario"`
			Points   int    `json:"power_fail_points"`
			Failed   int    `json:"failed"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(buf, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Scenarios) != 2 || sum.Scenarios[0].Scenario != "basic" || sum.Scenarios[1].Scenario != "replay" {
		t.Fatalf("scenarios %+v, want basic then replay", sum.Scenarios)
	}
	for _, s := range sum.Scenarios {
		if s.Points != 1 || s.Failed != 0 {
			t.Fatalf("scenario %+v, want 1 clean power-fail point", s)
		}
	}
	if sum.Points != 2 {
		t.Fatalf("total points %d, want 2", sum.Points)
	}
	if out := stdout.String(); !strings.Contains(out, "basic:") || !strings.Contains(out, "replay:") {
		t.Fatalf("stdout lacks a scenario line:\n%s", out)
	}
}

// TestUnknownScenarioExitsNonZero pins that a typo never runs a subset:
// the run is refused and the table listed.
func TestUnknownScenarioExitsNonZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "basic,replya"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown scenario accepted")
	}
	if stdout.Len() != 0 {
		t.Fatalf("ran something before refusing:\n%s", stdout.String())
	}
	for _, name := range []string{"replya", "basic", "reclaim", "churn", "pipeline", "replay", "migrate"} {
		if !strings.Contains(stderr.String(), name) {
			t.Fatalf("error does not name %q:\n%s", name, stderr.String())
		}
	}
}
