package crashtest

import (
	"fmt"

	"specpmt"
	"specpmt/internal/pmem"
	"specpmt/internal/recovery"
	"specpmt/pds/btree"
)

// btreeSlot is the pool root slot the basic scenario's B+tree registers in.
const btreeSlot = 15

// setupBasic builds the basic scenario (and, with Scenario.SpecOptions, the
// reclaim one): random multi-cell transactions on one pool, the last one of
// a round left open across the crash half the time, with a B+tree riding
// along.
func setupBasic(t *torture) (func(int) error, error) {
	cfg, rng := t.cfg, t.rng
	pool, err := specpmt.Open(specpmt.Config{Engine: cfg.Engine, Size: cfg.PoolSize, Profile: cfg.Profile, SpecOptions: t.opt})
	if err != nil {
		return nil, err
	}
	t.onClose(func() {
		t.rep.ReclaimSteps = pool.Counters().ReclaimCycles
		pool.Close()
	})
	addrs := make([]pmem.Addr, cfg.Keys)
	for i := range addrs {
		if addrs[i], err = pool.Alloc(64); err != nil {
			return nil, err
		}
	}
	cells := recovery.Cells("cells", pool.ReadUint64)
	// An ordered index rides along with the cell workload: its multi-node
	// splits exercise crash atomicity across structure changes, and the
	// checker re-opens it from the root slot after every crash exactly as a
	// recovering application would.
	bt, err := btree.New(pool, btreeSlot)
	if err != nil {
		return nil, fmt.Errorf("crashtest: btree: %w", err)
	}
	btc := recovery.BTree("pds.btree", func() (*btree.Tree, error) {
		return btree.Open(pool, btreeSlot)
	})
	t.reg.Register(cells, btc)
	t.registerPool("", pool)

	return func(round int) error {
		// Btree churn first: each Insert/Delete is its own committed
		// transaction (splits included), so the oracle advances in
		// lockstep. It runs before the cell stream so a mid-transaction
		// crash still interrupts the very last transaction of the round.
		for j := 0; j < 4; j++ {
			k := rng.Uint64() % 128
			if rng.Float64() < 0.3 {
				if _, err := bt.Delete(k); err != nil {
					return fmt.Errorf("crashtest: btree delete: %w", err)
				}
				delete(btc.Live(), k)
			} else {
				v := rng.Uint64()
				if err := bt.Insert(k, v); err != nil {
					return fmt.Errorf("crashtest: btree insert: %w", err)
				}
				btc.Live()[k] = v
			}
			t.rep.Committed++
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
				t.rep.MidTx++
				break // leave the last transaction open across the crash
			}
			if err := tx.Commit(); err != nil {
				return fmt.Errorf("crashtest: commit: %w", err)
			}
			t.rep.Committed++
			cells.Commit(writes)
		}
		return t.powerFail(round, pool)
	}, nil
}
