// Package crashtest is the randomized crash-injection harness: it drives a
// system under test with a pseudo-random workload, injects power failures at
// random points — between transactions and mid-transaction, with random
// partial eviction of dirty cache lines — runs recovery, and verifies the
// persistent state after EVERY power-fail point with the registered
// recovery-invariant checkers (internal/recovery). Multiple
// crash/recover/continue rounds per run exercise log-area reuse,
// reclamation across restarts, and recovery idempotence.
//
// Every workload is one entry of the Scenarios table, run by the one
// driver, Run: a scenario builds its system under test and states what one
// round does; the driver owns the defaults, the seeded RNG, the checker
// registry, the one crash site and the one check site. A checker violation
// stops the run at that power-fail point, reproducible from (scenario,
// engine, seed, Report.FailedAt).
package crashtest

import (
	"cmp"
	"errors"
	"fmt"

	"specpmt"
	"specpmt/internal/pmalloc"
	"specpmt/internal/recovery"
	"specpmt/internal/sim"
	"specpmt/internal/txn/spec"
)

// Config parameterises a torture run; Seed makes it reproducible. A zero
// field takes the scenario's default (Scenario.Defaults). Profile names the
// media profile the pools run on (empty = optane-adr): crash consistency
// must hold on every profile, and eADR and far-memory domains change what a
// power failure can lose.
type Config struct {
	Engine      string // the crash-consistency scheme under test
	Seed        uint64
	Rounds      int // crash/recover rounds
	TxPerRound  int // transaction, client-request or churn-op budget per round
	Keys        int // 64-byte cells in play, or a server scenario's key space
	WritesPerTx int // maximum writes per transaction
	PoolSize    int // bytes per pool (per server, in the server scenarios)
	Shards      int // shards per server
	LogCap      int // replication-log bound of the replay scenario's primary
	Profile     string
}

// Report summarises a run. Counters a scenario does not drive stay zero.
// FailedAt is the zero-based power-fail point index at which a recovery
// checker first failed (the run stops there), -1 when the run was clean.
type Report struct {
	Scenario     string
	Engine       string
	Seed         uint64
	Rounds       int
	Committed    int    // transactions (or client requests) committed
	Crashes      int    // power failures injected
	MidTx        int    // crashes that interrupted an open transaction
	ReclaimSteps uint64 // log reclamation steps the engine took
	Snapshots    uint64 // replica snapshot bootstraps across all incarnations
	Resumes      uint64 // replica incarnations that tailed via cursor resume alone
	Cutovers     int    // migrations that committed ownership
	Aborted      int    // migrations aborted by an injected failure
	FailedAt     int
	Violations   []string
	Checks       recovery.Summary // the recovery-checker summary
}

// Ok reports whether the run observed no consistency violations.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

// String renders a one-line summary; counters the scenario did not drive
// are left out.
func (r Report) String() string {
	s := fmt.Sprintf("%-8s %-12s seed=%-4d rounds=%d committed=%d crashes=%d",
		r.Scenario, r.Engine, r.Seed, r.Rounds, r.Committed, r.Crashes)
	counters := []struct {
		name string
		n    uint64
	}{{"midTx", uint64(r.MidTx)}, {"reclaim_steps", r.ReclaimSteps}, {"snaps", r.Snapshots},
		{"resumes", r.Resumes}, {"cutovers", uint64(r.Cutovers)}, {"aborted", uint64(r.Aborted)}}
	for _, c := range counters {
		if c.n > 0 {
			s += fmt.Sprintf(" %s=%d", c.name, c.n)
		}
	}
	status := "OK"
	if !r.Ok() {
		status = fmt.Sprintf("FAILED at power-fail point %d (%d violations)", r.FailedAt, len(r.Violations))
	}
	return s + fmt.Sprintf(" points=%d checks=%d: %s", r.Checks.Points, r.Checks.Checks, status)
}

// Scenario is one entry of the torture table.
type Scenario struct {
	Name, Doc string
	Engines   func() []string // the engines it runs on by default
	Defaults  Config          // the budget a zero Config field takes
	// HPMTPoolSize, when set, replaces Defaults.PoolSize for SpecHPMT,
	// whose per-thread spec+undo rings (~32 MiB each at the §5.2.1
	// defaults) need a log area the default pool does not provide.
	HPMTPoolSize int
	SpecOptions  *spec.Options // for SpecSPMT-family pools; others ignore it
	// setup builds the system under test on t, registers its oracles with
	// t.reg and its teardown with t.onClose, and returns one round's body,
	// which ends in power failures through t.crash and t.check (or
	// t.powerFail) and returns their errors unchanged.
	setup func(t *torture) (func(round int) error, error)
}

// budget is the single-pool scenarios' default budget.
var budget = Config{Engine: "SpecSPMT", Rounds: 5, TxPerRound: 40, Keys: 32, WritesPerTx: 8, PoolSize: 128 << 20}

// Scenarios is the torture table.
var Scenarios = []Scenario{
	{Name: "basic", Engines: Engines, Defaults: budget, setup: setupBasic,
		Doc: "random transaction streams and B+tree churn on one pool"},
	{Name: "reclaim", Engines: Engines, Defaults: budget, setup: setupBasic,
		// The defaults (32 KiB blocks, a step at 256 KiB stale) never
		// reach a step in a run of a few hundred transactions.
		SpecOptions: &spec.Options{BlockSize: 4096, ReclaimThreshold: 1024},
		Doc:         "basic on a 4 KiB-block SpecSPMT log that takes reclamation steps as it goes"},
	{Name: "churn", Engines: Engines, Defaults: budget, setup: setupChurn,
		Doc: "logged-allocator churn: mixed-class alloc/free with online compaction"},
	{Name: "pipeline", Engines: func() []string { return []string{"SpecSPMT"} }, Defaults: budget, setup: setupPipeline,
		Doc: "CommitNoFence windows retired by one coalescing fence; prefix at or past the fence floor"},
	{Name: "replay", Engines: ReplayEngines, setup: setupReplay,
		Defaults:     Config{Engine: "SpecSPMT", Rounds: 4, TxPerRound: 120, Keys: 64, Shards: 4, LogCap: 64, PoolSize: 64 << 20},
		HPMTPoolSize: 256 << 20,
		Doc:          "replica power failures while tailing a primary under client load"},
	{Name: "migrate", Engines: ReplayEngines, setup: setupMigrate,
		Defaults:     Config{Engine: "SpecSPMT", Rounds: 4, TxPerRound: 80, Keys: 64, Shards: 4, PoolSize: 64 << 20},
		HPMTPoolSize: 256 << 20,
		Doc:          "node power failures at every phase of a live two-node shard migration"},
}

// Lookup returns the table entry named name.
func Lookup(name string) (Scenario, bool) {
	for _, sc := range Scenarios {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

// withDefaults fills cfg's zero fields from the scenario's defaults.
func (sc Scenario) withDefaults(cfg Config) Config {
	d := sc.Defaults
	cfg.Engine = cmp.Or(cfg.Engine, d.Engine)
	cfg.Rounds = cmp.Or(cfg.Rounds, d.Rounds)
	cfg.TxPerRound = cmp.Or(cfg.TxPerRound, d.TxPerRound)
	cfg.Keys = cmp.Or(cfg.Keys, d.Keys)
	cfg.WritesPerTx = cmp.Or(cfg.WritesPerTx, d.WritesPerTx)
	cfg.Shards = cmp.Or(cfg.Shards, d.Shards)
	cfg.LogCap = cmp.Or(cfg.LogCap, d.LogCap)
	if cfg.PoolSize == 0 {
		cfg.PoolSize = d.PoolSize
		if cfg.Engine == "SpecHPMT" && sc.HPMTPoolSize > 0 {
			cfg.PoolSize = sc.HPMTPoolSize
		}
	}
	return cfg
}

// torture is one run in progress: the state the driver owns and a
// scenario's setup and rounds share.
type torture struct {
	cfg     Config
	opt     *spec.Options
	rng     *sim.Rand
	reg     *recovery.Registry
	rep     Report
	closers []func()
}

// errViolation ends a run at a failing power-fail point; Run reports it as
// a clean return with Report.Violations set.
var errViolation = errors.New("crashtest: recovery checker violation")

// Run executes one torture run of sc.
func Run(sc Scenario, cfg Config) (Report, error) {
	cfg = sc.withDefaults(cfg)
	t := &torture{
		cfg: cfg,
		opt: sc.SpecOptions,
		rng: sim.NewRand(cfg.Seed),
		reg: recovery.NewRegistry(sc.Name + "/" + cfg.Engine),
		rep: Report{Scenario: sc.Name, Engine: cfg.Engine, Seed: cfg.Seed, Rounds: cfg.Rounds, FailedAt: -1},
	}
	round, err := sc.setup(t)
	for r := 0; err == nil && r < cfg.Rounds; r++ {
		err = round(r)
	}
	if errors.Is(err, errViolation) {
		err = nil
	}
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.rep.Checks = t.reg.Summary()
	return t.rep, err
}

// onClose registers teardown; Run calls it after the run, last registered
// first.
func (t *torture) onClose(f func()) { t.closers = append(t.closers, f) }

// crashable is what a power failure hits: a pool, or a server (whose Crash
// also recovers it).
type crashable interface{ Crash(seed uint64) error }

// crash is the one crash site: it draws the crash seed, power-fails sut,
// counts the crash and, when sut is a pool, runs its recovery.
func (t *torture) crash(round int, sut crashable) error {
	if err := sut.Crash(t.rng.Uint64()); err != nil {
		return fmt.Errorf("crashtest: round %d: crash: %w", round, err)
	}
	t.rep.Crashes++
	if p, ok := sut.(interface{ Recover() error }); ok {
		if err := p.Recover(); err != nil {
			return fmt.Errorf("crashtest: recovery after crash %d: %w", t.rep.Crashes, err)
		}
	}
	return nil
}

// check is the one check site — one power-fail point: it snapshots every
// oracle, runs every registered checker, and on a violation records it and
// returns errViolation, which stops the run.
func (t *torture) check(round int) error {
	t.reg.Snapshot()
	if err := t.reg.Check(); err != nil {
		t.rep.Violations = append(t.rep.Violations, fmt.Sprintf("round %d: %v", round, err))
		t.rep.FailedAt = t.reg.Points() - 1
		return errViolation
	}
	return nil
}

// powerFail crashes sut and checks the recovered state.
func (t *torture) powerFail(round int, sut crashable) error {
	if err := t.crash(round, sut); err != nil {
		return err
	}
	return t.check(round)
}

// registerPool wires the pool-generic checkers, their names prefixed with
// prefix: both logged allocators, and — when the pool runs a
// SpecSPMT-family engine — the engine's chain/index/coverage verifier. The
// engine object is re-created on every crash, so the checker resolves it
// through the pool at check time.
func (t *torture) registerPool(prefix string, pool interface {
	DataHeap() *pmalloc.Heap
	LogHeap() *pmalloc.Heap
}) {
	t.reg.Register(
		recovery.Heap(prefix+"pmalloc.data", pool.DataHeap()),
		recovery.Heap(prefix+"pmalloc.log", pool.LogHeap()),
		recovery.Func(prefix+"spec.log", nil, func() error {
			switch p := pool.(type) {
			case *specpmt.Pool:
				if e, ok := p.Engine().(*spec.Engine); ok {
					return e.VerifyRecovered(p.LogHeap().Allocated)
				}
			case *specpmt.ThreadedPool:
				if sp := p.SpecPool(); sp != nil {
					return sp.VerifyRecovered(p.LogHeap().Allocated)
				}
			}
			return nil
		}),
	)
}

// Engines returns the engines eligible for crash testing (all registered
// schemes except no-log, which is not crash consistent by design).
func Engines() []string {
	var out []string
	for _, e := range specpmt.Engines() {
		if e == "no-log" || e == "SpecSPMT-Hash" {
			// SpecSPMT-Hash is a performance-ablation engine whose recovery
			// has a documented mid-commit window (§4's rejected design).
			continue
		}
		out = append(out, e)
	}
	return out
}

// ReplayEngines returns the engines the server scenarios (replay, migrate)
// run on: the threaded-pool-capable schemes whose multi-thread recovery is
// sound under the server's cross-shard MULTIs and applies, which commit
// other shards' cells on the executing shard's thread. SpecSPMT/SpecSPMT-DP
// (merged timestamp-ordered recovery, §4.1) and SpecHPMT (the §5.2.2
// cluster protocol) order such writes across threads; PMDK's undo recovery
// never replays committed data, so independent per-thread recovery of a
// quiesced pool is write-free. SPHT is excluded: its per-thread redo replay
// carries no cross-thread ordering, so one thread's unreplayed older record
// can regress another thread's newer committed write.
func ReplayEngines() []string {
	return []string{"SpecSPMT", "SpecSPMT-DP", "SpecHPMT", "PMDK"}
}
