// Package crashtest is the randomized crash-injection harness: it drives an
// engine with a pseudo-random transaction stream, injects power failures at
// random points — between transactions and mid-transaction, with random
// partial eviction of dirty cache lines — runs recovery, and verifies the
// persistent state after EVERY power-fail point with the registered
// recovery-invariant checkers (internal/recovery): committed-data oracles,
// the logged allocator's metadata contract, and engine-level structural
// invariants. Multiple crash/recover/continue rounds per run exercise
// log-area reuse, reclamation across restarts, and recovery idempotence.
//
// A checker violation stops the run at that power-fail point: Report.FailedAt
// carries its zero-based index so the exact failure is reproducible from
// (seed, FailedAt), and the CLI exits non-zero with it.
package crashtest

import (
	"fmt"

	"specpmt"
	"specpmt/internal/pmem"
	"specpmt/internal/recovery"
	"specpmt/internal/sim"
	"specpmt/internal/txn/spec"
	"specpmt/pds/btree"
)

// btreeSlot is the pool root slot the basic scenario's B+tree registers in.
const btreeSlot = 15

// Config parameterises a torture run.
type Config struct {
	// Engine is the crash-consistency scheme under test.
	Engine string
	// Seed makes the whole run reproducible.
	Seed uint64
	// Rounds is the number of crash/recover cycles (default 5).
	Rounds int
	// TxPerRound is the transaction budget per round; the crash lands after
	// a random number of them (default 40).
	TxPerRound int
	// Addrs is the number of distinct 64-byte cells in play (default 32).
	Addrs int
	// PoolSize is the pool size in bytes (default 128 MiB).
	PoolSize int
	// WritesPerTx is the maximum writes per transaction (default 8).
	WritesPerTx int
	// Profile names the media profile the pool runs on (empty = the
	// default, optane-adr). Crash consistency must hold on every profile;
	// eADR and far-memory domains change what a power failure can lose.
	Profile string
}

func (c *Config) setDefaults() {
	if c.Engine == "" {
		c.Engine = "SpecSPMT"
	}
	if c.Rounds == 0 {
		c.Rounds = 5
	}
	if c.TxPerRound == 0 {
		c.TxPerRound = 40
	}
	if c.Addrs == 0 {
		c.Addrs = 32
	}
	if c.PoolSize == 0 {
		c.PoolSize = 128 << 20
	}
	if c.WritesPerTx == 0 {
		c.WritesPerTx = 8
	}
}

// Report summarises a run.
type Report struct {
	Engine    string
	Seed      uint64
	Rounds    int
	Committed int
	Crashes   int
	MidTx     int // crashes that interrupted an open transaction
	// FailedAt is the zero-based power-fail point index at which a
	// recovery checker first failed, -1 when the run was clean. The run
	// stops at the first failing point.
	FailedAt   int
	Violations []string
	// Checks is the recovery-checker summary for the run.
	Checks recovery.Summary
	// ReclaimSteps counts the log reclamation steps the run's engine took,
	// across all its crashes.
	ReclaimSteps uint64
}

// Ok reports whether the run observed no consistency violations.
func (r Report) Ok() bool { return len(r.Violations) == 0 }

// String renders a one-line summary.
func (r Report) String() string {
	status := "OK"
	if !r.Ok() {
		status = fmt.Sprintf("FAILED at power-fail point %d (%d violations)", r.FailedAt, len(r.Violations))
	}
	return fmt.Sprintf("%-12s seed=%-4d rounds=%d committed=%d crashes=%d midTx=%d checks=%d: %s",
		r.Engine, r.Seed, r.Rounds, r.Committed, r.Crashes, r.MidTx, r.Checks.Checks, status)
}

// registerPoolCheckers wires the pool-generic checkers: both logged
// allocators, and — when the pool runs a SpecSPMT-family engine — the
// engine's chain/index/coverage verifier. The engine object is re-created
// on every crash, so the checker resolves it through the pool at check
// time.
func registerPoolCheckers(reg *recovery.Registry, pool *specpmt.Pool) {
	reg.Register(
		recovery.Heap("pmalloc.data", pool.DataHeap()),
		recovery.Heap("pmalloc.log", pool.LogHeap()),
		recovery.Func("spec.log", nil, func() error {
			if e, ok := pool.Engine().(*spec.Engine); ok {
				return e.VerifyRecovered(pool.LogHeap().Allocated)
			}
			return nil
		}),
	)
}

// Run executes one torture run: the basic scenario.
func Run(cfg Config) (Report, error) { return run(cfg, "basic", nil) }

// RunReclaim executes the basic scenario on a log that reclaims as it goes,
// so power failures land between and after reclamation steps: 4 KiB blocks
// and a step due at 1 KiB of stale log, because the defaults (32 KiB and
// 256 KiB) never reach a step in a run of a few hundred transactions.
// Engines other than the SpecSPMT family ignore the options and run the
// basic scenario.
func RunReclaim(cfg Config) (Report, error) {
	return run(cfg, "reclaim", &spec.Options{BlockSize: 4096, ReclaimThreshold: 1024})
}

func run(cfg Config, scenario string, opt *spec.Options) (rep Report, err error) {
	cfg.setDefaults()
	rep = Report{Engine: cfg.Engine, Seed: cfg.Seed, Rounds: cfg.Rounds, FailedAt: -1}
	rng := sim.NewRand(cfg.Seed)
	pool, err := specpmt.Open(specpmt.Config{Engine: cfg.Engine, Size: cfg.PoolSize, Profile: cfg.Profile, SpecOptions: opt})
	if err != nil {
		return rep, err
	}
	defer pool.Close()
	defer func() { rep.ReclaimSteps = pool.Counters().ReclaimCycles }()
	addrs := make([]pmem.Addr, cfg.Addrs)
	for i := range addrs {
		addrs[i], err = pool.Alloc(64)
		if err != nil {
			return rep, err
		}
	}
	cells := recovery.Cells("cells", pool.ReadUint64)
	// An ordered index rides along with the cell workload: its multi-node
	// splits exercise crash atomicity across structure changes, and the
	// checker re-opens it from the root slot after every crash exactly as a
	// recovering application would.
	bt, err := btree.New(pool, btreeSlot)
	if err != nil {
		return rep, fmt.Errorf("crashtest: btree: %w", err)
	}
	btc := recovery.BTree("pds.btree", func() (*btree.Tree, error) {
		return btree.Open(pool, btreeSlot)
	})
	reg := recovery.NewRegistry(scenario + "/" + cfg.Engine)
	reg.Register(cells, btc)
	registerPoolCheckers(reg, pool)

	for round := 0; round < cfg.Rounds; round++ {
		// Btree churn first: each Insert/Delete is its own committed
		// transaction (splits included), so the oracle advances in
		// lockstep. It runs before the cell stream so a mid-transaction
		// crash still interrupts the very last transaction of the round.
		for j := 0; j < 4; j++ {
			k := rng.Uint64() % 128
			if rng.Float64() < 0.3 {
				if _, err := bt.Delete(k); err != nil {
					return rep, fmt.Errorf("crashtest: btree delete: %w", err)
				}
				delete(btc.Live(), k)
			} else {
				v := rng.Uint64()
				if err := bt.Insert(k, v); err != nil {
					return rep, fmt.Errorf("crashtest: btree insert: %w", err)
				}
				btc.Live()[k] = v
			}
			rep.Committed++
		}
		nTx := rng.Intn(cfg.TxPerRound) + 1
		midTx := rng.Float64() < 0.5
		for i := 0; i < nTx; i++ {
			tx := pool.Begin()
			writes := map[pmem.Addr]uint64{}
			for j := 0; j < rng.Intn(cfg.WritesPerTx)+1; j++ {
				a := addrs[rng.Intn(len(addrs))]
				v := rng.Uint64()
				tx.StoreUint64(a, v)
				writes[a] = v
			}
			if i == nTx-1 && midTx {
				rep.MidTx++
				break // leave the last transaction open across the crash
			}
			if err := tx.Commit(); err != nil {
				return rep, fmt.Errorf("crashtest: commit: %w", err)
			}
			rep.Committed++
			cells.Commit(writes)
		}
		reg.Snapshot()
		if err := pool.Crash(rng.Uint64()); err != nil {
			return rep, err
		}
		rep.Crashes++
		if err := pool.Recover(); err != nil {
			return rep, fmt.Errorf("crashtest: recovery after crash %d: %w", rep.Crashes, err)
		}
		if err := reg.Check(); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("round %d: %v", round, err))
			rep.FailedAt = reg.Points() - 1
			rep.Checks = reg.Summary()
			return rep, nil
		}
	}
	rep.Checks = reg.Summary()
	return rep, nil
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
