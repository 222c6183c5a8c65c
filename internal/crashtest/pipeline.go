package crashtest

import (
	"fmt"

	"specpmt"
	"specpmt/internal/pmem"
	"specpmt/internal/recovery"
	"specpmt/internal/sim"
)

// SpecPipelineEngine is the Report.Engine tag of RunSpecPipeline runs.
const SpecPipelineEngine = "SpecSPMT/pipeline"

// RunSpecPipeline tortures the engine's deferred-commit pattern (DESIGN.md
// §4d): runs of transactions committed speculatively with CommitNoFence,
// retired in windows by a single coalescing Thread.Fence, with a power
// failure injected at a random point — possibly with a window of unretired
// speculative commits outstanding, possibly mid-transaction.
//
// The data oracle is the acknowledgment rule a CommitNoFence caller must
// keep (a commit is acknowledged only after its window's fence retires),
// expressed as a recovery.Prefix checker: after recovery the surviving
// state must be
//
//   - a PREFIX of the speculative commit history — some cut C where every
//     cell holds exactly its value as of commit C (no torn transactions, no
//     gaps where a later commit survived an earlier one's loss), and
//   - no shorter than the last retired fence — every commit whose fence
//     retired before the crash (i.e. everything the caller would have
//     acknowledged) must have survived.
//
// Commits past the fence floor are allowed to vanish: they were
// speculative, and nobody was told they happened. Alongside the prefix
// oracle every power-fail point also runs the allocator and spec-log
// structural checkers, and the run stops at the first violation.
func RunSpecPipeline(cfg Config) (Report, error) {
	cfg.setDefaults()
	rep := Report{Engine: SpecPipelineEngine, Seed: cfg.Seed, Rounds: cfg.Rounds, FailedAt: -1}
	rng := sim.NewRand(cfg.Seed)
	p, err := specpmt.OpenThreaded(specpmt.Config{Engine: "SpecSPMT", Size: cfg.PoolSize, Profile: cfg.Profile}, 1)
	if err != nil {
		return rep, err
	}
	defer p.Close()
	addrs := make([]pmem.Addr, cfg.Addrs)
	for i := range addrs {
		addrs[i], err = p.Alloc(64)
		if err != nil {
			return rep, err
		}
	}

	pre := recovery.Prefix("cells.prefix", addrs, p.ReadUint64)
	reg := recovery.NewRegistry("pipeline/SpecSPMT")
	reg.Register(
		pre,
		recovery.Heap("pmalloc.data", p.DataHeap()),
		recovery.Heap("pmalloc.log", p.LogHeap()),
		recovery.Func("spec.log", nil, func() error {
			return p.SpecPool().VerifyRecovered(p.LogHeap().Allocated)
		}),
	)

	state := map[pmem.Addr]uint64{} // oracle state after the last applied commit

	// Initialize every cell inside one fenced, committed transaction before
	// any speculation. Speculative logging writes data in place before the
	// commit record is durable, and recovery undoes uncommitted leakage by
	// replaying committed values over it — which only covers cells that have
	// a logged history. The paper's allocator initializes memory inside a
	// transaction for exactly this reason; a virgin cell touched only by an
	// unfenced speculative write may surface that write after a crash.
	init := p.Thread(0).Begin()
	for _, a := range addrs {
		init.StoreUint64(a, ^uint64(a))
		state[a] = ^uint64(a)
	}
	if err := init.Commit(); err != nil {
		return rep, fmt.Errorf("crashtest: init commit: %w", err)
	}

	for round := 0; round < cfg.Rounds; round++ {
		th := p.Thread(0)
		// The prefix checker records the state after each speculative commit
		// this round; the crash must recover to exactly one of them, at or
		// past the fence floor.
		pre.Init(state)
		window := rng.Intn(6) + 2 // commits per retire fence
		nTx := rng.Intn(cfg.TxPerRound) + 1
		midTx := rng.Float64() < 0.5
		for i := 1; i <= nTx; i++ {
			tx := th.Begin()
			dtx, ok := tx.(specpmt.DeferredCommitTx)
			if !ok {
				return rep, fmt.Errorf("crashtest: %s does not support CommitNoFence", cfg.Engine)
			}
			writes := map[pmem.Addr]uint64{}
			for j := 0; j < rng.Intn(cfg.WritesPerTx)+1; j++ {
				a := addrs[rng.Intn(len(addrs))]
				v := rng.Uint64()
				dtx.StoreUint64(a, v)
				writes[a] = v
			}
			if i == nTx && midTx {
				rep.MidTx++
				break // leave the last transaction open across the crash
			}
			if err := dtx.CommitNoFence(); err != nil {
				return rep, fmt.Errorf("crashtest: speculative commit: %w", err)
			}
			rep.Committed++
			for a, v := range writes {
				state[a] = v
			}
			pre.Commit(state)
			if i%window == 0 {
				th.Fence() // retire the window: commits 1..i are now acknowledged
				pre.Fence()
			}
		}
		reg.Snapshot()
		if err := p.Crash(rng.Uint64()); err != nil {
			return rep, err
		}
		rep.Crashes++
		if err := p.Recover(); err != nil {
			return rep, fmt.Errorf("crashtest: recovery after crash %d: %w", rep.Crashes, err)
		}
		if err := reg.Check(); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("round %d: %v", round, err))
			rep.FailedAt = reg.Points() - 1
			rep.Checks = reg.Summary()
			return rep, nil
		}
		// Continue the run from the surviving prefix, like a restarted server.
		state = pre.Cut()
	}
	rep.Checks = reg.Summary()
	return rep, nil
}
