package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os/exec"
	"sort"
	"time"
)

// stamp-eval is the paper's own evaluation: `specpmt-bench -json` runs every
// engine over every STAMP-like application on the simulated device, with no
// server anywhere. Its modeled outputs are a pure function of (n, seed).

const (
	stampWorkload    = "stamp-eval"
	stampTxPerSecond = 50 // transactions per application per second of run length
)

// stampReport is the part of the -json report the benchmark reads.
type stampReport struct {
	Txns    int    `json:"txns_per_app"`
	Seed    uint64 `json:"seed"`
	Figures map[string]struct {
		GeoMean map[string]float64 `json:"geomean"`
	} `json:"figures"`
	Overhead map[string]float64 `json:"specspmt_overhead"`
	Wall     struct {
		Runs int64 `json:"runs"`
	} `json:"wall"`
}

// stampRun is one finished specpmt-bench child.
type stampRun struct {
	wallS, cpuS, sysS float64
	stdout            []byte
}

func runStampChild(ctx context.Context, e *env, args ...string) (*stampRun, error) {
	cmd := exec.CommandContext(ctx, e.stamp, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("specpmt-bench %v: %w\n%s", args, err, stderr.Bytes())
	}
	ps := cmd.ProcessState
	return &stampRun{
		wallS:  time.Since(start).Seconds(),
		cpuS:   (ps.UserTime() + ps.SystemTime()).Seconds(),
		sysS:   ps.SystemTime().Seconds(),
		stdout: stdout.Bytes(),
	}, nil
}

// stampEval is what one full evaluation yielded.
type stampEval struct {
	txns                  int     // runs × n
	txPerS, cpuUsPerTx    float64 // wall clock
	sysCPUFrac            float64
	overheadPct, speedupX float64 // modeled
	digest                string  // of the report without its wall-clock section
}

// evalStamp runs the whole evaluation at n transactions per application.
func evalStamp(ctx context.Context, e *env, n int, seed uint64) (*stampEval, error) {
	run, err := runStampChild(ctx, e, "-json", "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed))
	if err != nil {
		return nil, err
	}
	var rep stampReport
	if err := json.Unmarshal(run.stdout, &rep); err != nil {
		return nil, fmt.Errorf("specpmt-bench -json: %w", err)
	}
	ev := &stampEval{
		txns:        int(rep.Wall.Runs) * n,
		overheadPct: rep.Overhead["geomean"] * 100,
		speedupX:    rep.Figures["figure12"].GeoMean["SpecSPMT"],
		sysCPUFrac:  ratio(run.sysS, run.cpuS),
	}
	if rep.Txns != n || rep.Seed != seed || ev.txns <= 0 ||
		!(ev.overheadPct > 0) || !(ev.speedupX > 0) || math.IsInf(ev.overheadPct+ev.speedupX, 0) {
		return nil, fmt.Errorf("specpmt-bench -json: implausible report (n=%d seed=%d runs=%d overhead=%v speedup=%v)",
			rep.Txns, rep.Seed, rep.Wall.Runs, ev.overheadPct, ev.speedupX)
	}
	ev.txPerS = float64(ev.txns) / run.wallS
	ev.cpuUsPerTx = run.cpuS * 1e6 / float64(ev.txns)
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(run.stdout, &sections); err != nil {
		return nil, err
	}
	delete(sections, "wall")
	modeled, err := json.Marshal(sections) // map keys marshal sorted
	if err != nil {
		return nil, err
	}
	ev.digest = fmt.Sprintf("%x", sha256.Sum256(modeled))
	return ev, nil
}

// runStamp is the stamp-eval workload. Its set-up is generating the
// applications' transactions (-table 2), which every figure repeats.
func runStamp(ctx context.Context, e *env, seed uint64, seconds int) (*runResult, error) {
	n := stampTxPerSecond * seconds
	var setupS []float64
	for i := 0; i < 3; i++ {
		run, err := runStampChild(ctx, e, "-table", "2", "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed))
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, run.wallS)
	}
	sort.Float64s(setupS)
	res := &runResult{Workload: stampWorkload, Seed: seed, Seconds: seconds, Attempted: 1, Correct: true}
	res.EndToEnd = map[string]metric{"setup_s": {Value: setupS[1], Unit: "s", N: len(setupS)}}
	ev, err := evalStamp(ctx, e, n, seed)
	if err != nil {
		// A crashed or garbled evaluation is a failed operation, not a
		// failed benchmark.
		fmt.Println(stampWorkload+":", err)
		res.Failed, res.Correct = 1, false
	} else {
		res.ModelDigest = ev.digest
		res.EndToEnd["stamp_tx_per_s"] = metric{Value: ev.txPerS, Unit: "1/s", N: ev.txns}
		res.EndToEnd["cpu_us_per_op"] = metric{Value: ev.cpuUsPerTx, Unit: "us", N: ev.txns}
		res.EndToEnd["spec_overhead_pct"] = metric{Value: ev.overheadPct, Unit: "%"}
		res.EndToEnd["spec_speedup_x"] = metric{Value: ev.speedupX, Unit: "x"}
	}
	res.EndToEnd["ok_frac"] = metric{Value: float64(1 - res.Failed), Unit: "frac", N: 1}
	return res, nil
}

// harnessLayer is the traced run's harness rung: a short evaluation, and
// its software-engine (Figure 12) and hardware-engine (Figure 13) halves
// timed apart.
func harnessLayer(ctx context.Context, e *env, seed uint64) (map[string]metric, error) {
	const n = 100
	ev, err := evalStamp(ctx, e, n, seed)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{
		"harness.stamp_tx_per_s":    {Value: ev.txPerS, Unit: "1/s", N: ev.txns},
		"harness.sys_cpu_frac":      {Value: ev.sysCPUFrac, Unit: "frac"},
		"harness.spec_overhead_pct": {Value: ev.overheadPct, Unit: "%"},
		"harness.spec_speedup_x":    {Value: ev.speedupX, Unit: "x"},
	}
	for _, fig := range []string{"12", "13"} {
		run, err := runStampChild(ctx, e, "-fig", fig, "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed))
		if err != nil {
			return nil, err
		}
		out["harness.fig"+fig+"_s"] = metric{Value: run.wallS, Unit: "s"}
	}
	return out, nil
}
