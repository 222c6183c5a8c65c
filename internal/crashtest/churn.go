package crashtest

import (
	"fmt"

	"specpmt"
	"specpmt/internal/pmem"
	"specpmt/internal/recovery"
)

// churnSizes are the request sizes the churn scenario mixes — several size
// classes plus a large (multi-span) class, so crashes land while spans of
// different classes are being carved, retired, and reused.
var churnSizes = []int{64, 192, 448, 1024, 2048, 4096, 16384}

// setupChurn builds the churn scenario, which tortures the logged allocator
// itself: random mixed-class alloc/free churn with online compaction, a
// power failure every round, and the full checker registry after every
// recovery. Each live block carries a stamp committed transactionally at
// its base, so the scenario checks all four contracts at once:
//
//   - the allocator's recovery diff (mirror vs recovered span table/bitmaps)
//     is empty and the recovered metadata verifies structurally,
//   - every Go-side live block is still Allocated() exactly after recovery
//     (allocation is durable before Alloc returns, frees before Free returns),
//   - committed stamps survive in place, and survive relocation — the
//     compaction mover copies a block's stamp inside a committed transaction,
//     so a crash anywhere around a migration must never lose it,
//   - the engine's log/index metadata verifies.
//
// TxPerRound is the churn-op budget per round.
func setupChurn(t *torture) (func(int) error, error) {
	cfg, rng := t.cfg, t.rng
	pool, err := specpmt.Open(specpmt.Config{Engine: cfg.Engine, Size: cfg.PoolSize, Profile: cfg.Profile})
	if err != nil {
		return nil, err
	}
	t.onClose(func() { pool.Close() })

	type block struct {
		addr pmem.Addr
		n    int
	}
	var live []block

	cells := recovery.Cells("stamps", pool.ReadUint64)
	t.reg.Register(cells)
	t.registerPool("", pool)
	t.reg.Register(recovery.Func("alloc.live", nil, func() error {
		h := pool.DataHeap()
		for _, b := range live {
			if !h.Allocated(b.addr, b.n) {
				return fmt.Errorf("live block addr=%d size=%d not allocated after recovery", b.addr, b.n)
			}
		}
		return nil
	}))

	// stamp commits v at the block's base and records it in the oracle.
	stamp := func(a pmem.Addr, v uint64) error {
		tx := pool.Begin()
		tx.StoreUint64(a, v)
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("crashtest: stamp commit: %w", err)
		}
		t.rep.Committed++
		cells.Commit(map[pmem.Addr]uint64{a: v})
		return nil
	}

	// mover relocates one block during compaction: copy the stamp in a
	// committed transaction, then repoint the Go-side reference and oracle.
	mover := func(old, new pmem.Addr, n int) bool {
		v := pool.ReadUint64(old)
		tx := pool.Begin()
		tx.StoreUint64(new, v)
		if err := tx.Commit(); err != nil {
			return false
		}
		t.rep.Committed++
		for i := range live {
			if live[i].addr == old {
				live[i].addr = new
				break
			}
		}
		cells.Forget(old)
		cells.Commit(map[pmem.Addr]uint64{new: v})
		return true
	}

	return func(round int) error {
		ops := rng.Intn(cfg.TxPerRound) + cfg.TxPerRound/2
		for i := 0; i < ops; i++ {
			switch {
			case rng.Intn(20) == 0:
				pool.DataHeap().Compact(mover)
			case len(live) > 0 && (rng.Intn(2) == 0 || len(live) > 512):
				// free a random live block
				j := rng.Intn(len(live))
				b := live[j]
				pool.Free(b.addr, b.n)
				cells.Forget(b.addr)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				n := churnSizes[rng.Intn(len(churnSizes))]
				a, err := pool.Alloc(n)
				if err != nil {
					return fmt.Errorf("crashtest: churn alloc %d bytes: %w", n, err)
				}
				if err := stamp(a, rng.Uint64()); err != nil {
					return err
				}
				live = append(live, block{addr: a, n: n})
			}
		}
		// one deliberate compaction pass per round so migrations are always
		// in the mix right before the power failure
		pool.DataHeap().Compact(mover)
		return t.powerFail(round, pool)
	}, nil
}
