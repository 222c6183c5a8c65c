package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultsSchema versions the results file; bump it when a field changes
// meaning.
const resultsSchema = 1

// resultsFile is what one invocation writes: where it ran and every run.
type resultsFile struct {
	Schema    int          `json:"schema"`
	Started   time.Time    `json:"started"`
	GitCommit string       `json:"git_commit,omitempty"` // absent outside a git checkout
	NProc     int          `json:"nproc"`
	GoVersion string       `json:"go_version"`
	GOOS      string       `json:"goos"`
	Runs      []*runResult `json:"runs"`
}

func newResultsFile(root string) *resultsFile {
	rf := &resultsFile{Schema: resultsSchema, Started: time.Now().UTC(), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		rf.GitCommit = strings.TrimSpace(string(out))
	}
	return rf
}

func (rf *resultsFile) write(path string) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultsFile(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: results schema %d, this program reads %d", path, rf.Schema, resultsSchema)
	}
	return &rf, nil
}

// metricSpec is one metric's entry in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

// stampSpecs bound stamp-eval's own metrics. They are not in BENCHMARK.json,
// which lists only metrics every listed workload has.
var stampSpecs = []metricSpec{
	{Name: "stamp_tx_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "spec_overhead_pct", Unit: "%", Better: "lower", Bound: 0.01},
	{Name: "spec_speedup_x", Unit: "x", Better: "higher", Bound: 0.01},
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// bounded returns the end-to-end metrics with a regression bound, by name.
func (s *benchSpec) bounded() map[string]metricSpec {
	out := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec(nil), s.EndToEnd...), stampSpecs...) {
		out[m.Name] = m
	}
	return out
}

// spread is the steadiness measure the benchmark's contract uses: the
// distance between the first and third quartile as a share of the median,
// with quartiles as Python's statistics.quantiles(xs, n=4) computes them.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), math.Abs(median(s)))
}

// series collects each metric's values over runs, per workload, in first-seen
// order.
type series struct {
	workloads []string
	values    map[string]map[string][]float64 // workload → metric → values
	units     map[string]string
}

func collect(runs []*runResult) *series {
	sr := &series{values: map[string]map[string][]float64{}, units: map[string]string{}}
	for _, r := range runs {
		if sr.values[r.Workload] == nil {
			sr.workloads = append(sr.workloads, r.Workload)
			sr.values[r.Workload] = map[string][]float64{}
		}
		for _, ms := range []map[string]metric{r.EndToEnd, r.PerLayer} {
			for name, m := range ms {
				sr.values[r.Workload][name] = append(sr.values[r.Workload][name], m.Value)
				sr.units[name] = m.Unit
			}
		}
	}
	return sr
}

func sortedKeys(m map[string][]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printRun prints one run's metrics by name and unit.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "\n%s  seed=%d seconds=%d trace=%v  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.Correct)
	if r.HostStealFrac != nil {
		fmt.Fprintf(w, "  host steal %.2f%% of CPU time (above 2%%: a neighbour disturbed this run)\n", *r.HostStealFrac*100)
	}
	for _, ms := range []map[string]metric{r.EndToEnd, r.PerLayer} {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := ms[name]
			fmt.Fprintf(w, "  %-32s %14.4f %-6s", name, m.Value, m.Unit)
			if m.N > 0 {
				fmt.Fprintf(w, " n=%d", m.N)
			}
			fmt.Fprintln(w)
		}
	}
}

// printRepeat summarises repeated runs: per metric min, median, max and
// spread, flagging end-to-end metrics whose spread exceeds their bound.
func printRepeat(w io.Writer, runs []*runResult, spec *benchSpec) {
	sr, bounds := collect(runs), spec.bounded()
	for _, wl := range sr.workloads {
		fmt.Fprintf(w, "\n%s: %d runs\n  %-32s %12s %12s %12s %8s %6s\n", wl, len(runs)/len(sr.workloads),
			"metric", "min", "median", "max", "spread", "bound")
		for _, name := range sortedKeys(sr.values[wl]) {
			xs := sr.values[wl][name]
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			sp := spread(xs)
			fmt.Fprintf(w, "  %-32s %12.4f %12.4f %12.4f %7.2f%%", name, s[0], median(s), s[len(s)-1], sp*100)
			if b, ok := bounds[name]; ok {
				fmt.Fprintf(w, " %5.1f%%", b.Bound*100)
				if sp > b.Bound {
					fmt.Fprint(w, "  SPREAD EXCEEDS BOUND")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// printDiff compares two results files: for every workload and bounded
// end-to-end metric in both, whether b's median is worse than a's by more
// than the bound. Where either side's spread exceeds the bound the verdict
// is "unresolved", not "ok". It returns the number of regressions.
func printDiff(w io.Writer, a, b *resultsFile, spec *benchSpec) int {
	sa, sb, bounds := collect(a.Runs), collect(b.Runs), spec.bounded()
	regressions := 0
	fmt.Fprintf(w, "%-12s %-20s %12s %12s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict")
	for _, wl := range sa.workloads {
		for _, name := range sortedKeys(sa.values[wl]) {
			bound, ok := bounds[name]
			xa, xb := sa.values[wl][name], sb.values[wl][name]
			if !ok || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := ratio(mb-ma, math.Abs(ma))
			if bound.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > bound.Bound:
				verdict = "REGRESSED"
				regressions++
			case spread(xa) > bound.Bound || spread(xb) > bound.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-12s %-20s %12.4f %12.4f %+8.2f%% %6.1f%%  %s\n", wl, name, ma, mb, worse*100, bound.Bound*100, verdict)
		}
	}
	// Modeled outputs are exact: one seed on one workload must hash alike.
	digests := map[string]string{}
	for _, r := range a.Runs {
		if r.ModelDigest != "" {
			digests[fmt.Sprint(r.Workload, r.Seed, r.Seconds)] = r.ModelDigest
		}
	}
	for _, r := range b.Runs {
		if d, ok := digests[fmt.Sprint(r.Workload, r.Seed, r.Seconds)]; ok && r.ModelDigest != "" && d != r.ModelDigest {
			fmt.Fprintf(w, "%-12s seed %d: modeled outputs differ (%.12s… vs %.12s…)\n", r.Workload, r.Seed, d, r.ModelDigest)
			regressions++
		}
	}
	return regressions
}
