package harness

import (
	"math"
	"strings"
	"testing"

	"specpmt/internal/stamp"
)

// The harness tests assert the qualitative findings of the paper's
// evaluation — who wins, by roughly what factor, where the crossovers are —
// on reduced transaction counts so the suite stays fast.

const testTx = 150

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4, 16})
	if math.Abs(got-4) > 1e-9 {
		t.Fatalf("GeoMean = %v, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("GeoMean(nil) should be 0")
	}
}

func TestRunSoftwareAllEngines(t *testing.T) {
	p, _ := stamp.ByName("genome")
	base, err := RunSoftware(RawEngine, p, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.ModeledNs <= 0 {
		t.Fatal("raw run consumed no time")
	}
	for _, eng := range SoftwareEngines() {
		r, err := RunSoftware(eng, p, 50, 1)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if r.ModeledNs <= base.ModeledNs {
			t.Fatalf("%s should be slower than raw: %d vs %d", eng, r.ModeledNs, base.ModeledNs)
		}
		if r.Stats.TxCommitted != 50 {
			t.Fatalf("%s committed %d txns, want 50", eng, r.Stats.TxCommitted)
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction is slow")
	}
	fig, err := Figure12(testTx, 1, ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		spec := row.Values["SpecSPMT"]
		dp := row.Values["SpecSPMT-DP"]
		kam := row.Values["Kamino-Tx"]
		if spec < dp {
			t.Errorf("%s: SpecSPMT (%.2f) must beat SpecSPMT-DP (%.2f)", row.Workload, spec, dp)
		}
		if spec < kam {
			t.Errorf("%s: SpecSPMT (%.2f) must beat Kamino-Tx (%.2f)", row.Workload, spec, kam)
		}
		if spec < 1 {
			t.Errorf("%s: SpecSPMT slower than PMDK (%.2f)", row.Workload, spec)
		}
	}
	// Headline factors (paper: SpecSPMT 5.1x, SpecSPMT-DP 3.0x geomean).
	if g := fig.GeoMean["SpecSPMT"]; g < 3.5 || g > 10 {
		t.Errorf("SpecSPMT geomean speedup %.2f outside the paper's ballpark", g)
	}
	if g := fig.GeoMean["SpecSPMT-DP"]; g < 1.5 || g > 4.5 {
		t.Errorf("SpecSPMT-DP geomean speedup %.2f outside the paper's ballpark", g)
	}
	// labyrinth is the paper's largest speedup (49.7x).
	var laby, kmeans float64
	for _, row := range fig.Rows {
		if row.Workload == "labyrinth" {
			laby = row.Values["SpecSPMT"]
		}
		if row.Workload == "kmeans-low" {
			kmeans = row.Values["SpecSPMT"]
		}
	}
	if laby < 15 {
		t.Errorf("labyrinth SpecSPMT speedup %.2f; paper reports ~49.7x", laby)
	}
	if kmeans < 6 {
		t.Errorf("kmeans-low SpecSPMT speedup %.2f; paper reports 10.7x", kmeans)
	}
}

func TestWriteIntensiveGainMoreFromDataPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// §7.2: on kmeans/yada (write-intensive, large txns) SpecSPMT gains a
	// lot over SpecSPMT-DP; on intruder/ssca2 (4-byte write sets) only ~10%.
	ratio := func(app string) float64 {
		p, _ := stamp.ByName(app)
		dp, err := RunSoftware("SpecSPMT-DP", p, testTx, 1)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := RunSoftware("SpecSPMT", p, testTx, 1)
		if err != nil {
			t.Fatal(err)
		}
		return Speedup(dp, sp) // note: inverted helper — dp time over spec time
	}
	big := ratio("kmeans-high")
	small := ratio("intruder")
	if big < small {
		t.Fatalf("kmeans (%.2f) should gain more from removing data persistence than intruder (%.2f)", big, small)
	}
	if big < 1.5 {
		t.Fatalf("kmeans SpecSPMT/DP gain %.2f; paper reports 5.4x", big)
	}
}

func TestFigure13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction is slow")
	}
	fig, err := Figure13(testTx, 1, ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range fig.Rows {
		if row.Workload == "kmeans-low" {
			// §7.3: compute between transactions drains the WPQ, so no
			// scheme helps much.
			for eng, v := range row.Values {
				if v < 0.85 || v > 1.25 {
					t.Errorf("kmeans-low %s speedup %.2f; should be ~1 (WPQ drains during compute)", eng, v)
				}
			}
		}
	}
	spec := fig.GeoMean["SpecHPMT"]
	dp := fig.GeoMean["SpecHPMT-DP"]
	nolog := fig.GeoMean["no-log"]
	if spec < 1.2 || spec > 1.9 {
		t.Errorf("SpecHPMT geomean %.2f; paper reports 1.41x", spec)
	}
	if dp < 0.85 || dp > 1.35 {
		t.Errorf("SpecHPMT-DP geomean %.2f; paper: performs nearly the same as EDE", dp)
	}
	if nolog < spec {
		t.Errorf("no-log (%.2f) is the ideal and must beat SpecHPMT (%.2f)", nolog, spec)
	}
}

func TestFigure14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction is slow")
	}
	fig, err := Figure14(testTx, 1, ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// §7.3: EDE and SpecHPMT-DP cause largely the same write traffic.
	if g := fig.GeoMean["SpecHPMT-DP"]; g < -0.2 || g > 0.2 {
		t.Errorf("SpecHPMT-DP traffic reduction %.2f; paper: largely the same as EDE", g)
	}
	// HOOP produces excessive logs on the large-footprint applications.
	for _, row := range fig.Rows {
		switch row.Workload {
		case "ssca2", "vacation-low", "vacation-high", "yada":
			if row.Values["HOOP"] > row.Values["SpecHPMT"]+0.10 {
				t.Errorf("%s: HOOP reduction (%.2f) should not beat SpecHPMT (%.2f) — miss logging inflates its traffic",
					row.Workload, row.Values["HOOP"], row.Values["SpecHPMT"])
			}
		}
	}
	if g := fig.GeoMean["no-log"]; g < 0.4 {
		t.Errorf("no-log reduction %.2f; it writes no logs at all", g)
	}
}

func TestFigure15Monotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("figure reproduction is slow")
	}
	pts, err := Figure15(testTx, 1, ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 3 {
		t.Fatalf("sweep too small: %d points", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.AvgSpeedup <= first.AvgSpeedup {
		t.Errorf("speedup should grow with memory: %.2f -> %.2f", first.AvgSpeedup, last.AvgSpeedup)
	}
	if last.MemOverheadPct <= first.MemOverheadPct {
		t.Errorf("memory overhead should grow with epoch size: %.1f%% -> %.1f%%",
			first.MemOverheadPct, last.MemOverheadPct)
	}
	if last.TrafficReduction <= first.TrafficReduction {
		t.Errorf("traffic reduction should grow with epoch size: %.2f -> %.2f",
			first.TrafficReduction, last.TrafficReduction)
	}
}

func TestTable2RowsMatchPaper(t *testing.T) {
	rows := Table2(200, 1)
	if len(rows) != 9 {
		t.Fatalf("Table 2 has 9 applications, got %d", len(rows))
	}
	for _, r := range rows {
		if ratio := r.GeneratedAvgSize / r.PaperAvgSize; ratio < 0.6 || ratio > 1.4 {
			t.Errorf("%s: generated avg size %.1f vs paper %.1f", r.App, r.GeneratedAvgSize, r.PaperAvgSize)
		}
	}
}

func TestSpecOverheadHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	per, geo, err := SpecOverhead(testTx, 1, ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline: 10% overhead. The transparent cost model cannot
	// honour both labyrinth's 49.7x speedup and a tiny overhead (see
	// EXPERIMENTS.md), so the assertion brackets the achievable range.
	if geo < 0 || geo > 0.6 {
		t.Errorf("SpecSPMT overhead geomean %.0f%%; expected well under PMDK's ~800%%", geo*100)
	}
	if len(per) != 9 {
		t.Fatalf("per-app overheads missing: %v", per)
	}
	// PMDK's overhead must dwarf SpecSPMT's on every app.
	for _, p := range stamp.Profiles() {
		raw, err := RunSoftware(RawEngine, p, testTx, 1)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := RunSoftware("PMDK", p, testTx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if Overhead(raw, pm) < 2*per[p.Name] {
			t.Errorf("%s: PMDK overhead %.2f should dwarf SpecSPMT's %.2f",
				p.Name, Overhead(raw, pm), per[p.Name])
		}
	}
}

func TestFigureFormat(t *testing.T) {
	fig := Figure{
		Title:   "T",
		Series:  []string{"A"},
		Rows:    []FigureRow{{Workload: "w", Values: map[string]float64{"A": 2}}},
		GeoMean: map[string]float64{"A": 2},
	}
	out := fig.Format(false)
	for _, want := range []string{"T", "w", "2.00x", "geomean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(fig.Format(true), "200%") {
		t.Fatal("percent formatting broken")
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	p, _ := stamp.ByName("yada")
	a, err := RunSoftware("SpecSPMT", p, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoftware("SpecSPMT", p, 60, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.ModeledNs != b.ModeledNs || a.Stats.PMWriteBytes != b.Stats.PMWriteBytes {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d ns/bytes",
			a.ModeledNs, a.Stats.PMWriteBytes, b.ModeledNs, b.Stats.PMWriteBytes)
	}
	h1, err := RunHardware("SpecHPMT", p, 60, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := RunHardware("SpecHPMT", p, 60, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h1.ModeledNs != h2.ModeledNs {
		t.Fatal("hardware runs not deterministic")
	}
}

func TestSoftwareMemoryOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := SoftwareMemoryOverhead(100, 1, ScenarioConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.PeakLogBytes <= 0 {
			t.Errorf("%s: no log growth recorded", r.App)
		}
	}
}

func TestChartRendering(t *testing.T) {
	fig := Figure{
		Title:   "demo",
		Series:  []string{"A", "B"},
		Rows:    []FigureRow{{Workload: "w1", Values: map[string]float64{"A": 2, "B": -0.5}}},
		GeoMean: map[string]float64{"A": 2, "B": -0.5},
	}
	out := fig.Chart(false)
	for _, want := range []string{"demo", "w1", "#", "-", "2.00x", "geomean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Chart missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(fig.Chart(true), "200%") {
		t.Fatal("percent chart labels broken")
	}
}

func TestThreadedSpecScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// intruder: small records, so the shared drain pipeline is not the
	// bottleneck and the per-thread-log design can show its scaling.
	// (Large-record profiles like yada saturate the memory controller at
	// 4 threads — also a faithful outcome.)
	p, _ := stamp.ByName("intruder")
	t1, err := RunThreadedSpec(p, 1, 120, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := RunThreadedSpec(p, 4, 120, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	scale := t4.Throughput() / t1.Throughput()
	if scale < 2.0 {
		t.Fatalf("per-thread logs should scale: 1->4 threads throughput x%.2f", scale)
	}
	// The DP variant's commit-path data flushes saturate the shared drain
	// pipeline, capping its scaling below SpecSPMT's.
	d1, err := RunThreadedSpec(p, 1, 120, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := RunThreadedSpec(p, 4, 120, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	dpScale := d4.Throughput() / d1.Throughput()
	if dpScale >= scale {
		t.Fatalf("DP (x%.2f) should scale worse than SpecSPMT (x%.2f): the shared memory controller caps it",
			dpScale, scale)
	}
	t.Logf("1->4 thread throughput scaling: SpecSPMT x%.2f, SpecSPMT-DP x%.2f", scale, dpScale)
}

// TestCommitFenceCounts pins each engine's commit-path fence shape from the
// run's counters. A 300-transaction run is differenced against a
// one-transaction run of the same workload, which nets out the fences the
// engine issues once at set-up (log initialisation). Speculative logging
// then issues exactly one fence per commit and every fence orders at least
// one flush; undo logging fences more than once per commit — the overhead
// Figure 2 measures and SpecPMT removes.
func TestCommitFenceCounts(t *testing.T) {
	p := stamp.Profiles()[0]
	cases := []struct {
		engine string
		check  func(t *testing.T, fences, flushes, commits uint64)
	}{
		{"SpecSPMT", func(t *testing.T, fences, flushes, commits uint64) {
			if fences != commits {
				t.Errorf("%d fences for %d commits, want exactly one per commit", fences, commits)
			}
			if flushes < fences {
				t.Errorf("%d flushes below %d fences: a fence orders nothing", flushes, fences)
			}
		}},
		{"PMDK", func(t *testing.T, fences, _, commits uint64) {
			if fences <= commits {
				t.Errorf("%d fences for %d commits, want more than one per commit", fences, commits)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.engine, func(t *testing.T) {
			one, err := RunSoftwareOpt(c.engine, p, 1, 7, ScenarioConfig{})
			if err != nil {
				t.Fatal(err)
			}
			r, err := RunSoftwareOpt(c.engine, p, 300, 7, ScenarioConfig{})
			if err != nil {
				t.Fatal(err)
			}
			commits := r.Stats.TxCommitted - one.Stats.TxCommitted
			if commits != 299 {
				t.Fatalf("%d commits, want 299", commits)
			}
			c.check(t, r.Stats.Fences-one.Stats.Fences, r.Stats.Flushes-one.Stats.Flushes, commits)
		})
	}
}
