package server

import (
	"fmt"
	"testing"

	"specpmt"
)

// TestCompactorPausesUnderLoad exercises one background-compactor tick both
// ways: with a request in flight the tick must yield (skipped_busy), and on
// an idle, fragmented heap it must compact — moving shard-map blocks and
// test fillers via the relocation hook — without disturbing committed data,
// including across a power failure.
func TestCompactorPausesUnderLoad(t *testing.T) {
	s, err := New(Config{Shards: 2, PoolSize: 64 << 20, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	oracle := map[uint64]uint64{}
	var ops []Op
	for k := uint64(0); k < 200; k++ {
		ops = append(ops, Op{Kind: OpSet, Key: k, Arg1: k + 99})
		oracle[k] = k + 99
		if len(ops) == 16 {
			if _, err := s.Apply(ops, nil, nil); err != nil {
				t.Fatal(err)
			}
			ops = ops[:0]
		}
	}
	if len(ops) > 0 {
		if _, err := s.Apply(ops, nil, nil); err != nil {
			t.Fatal(err)
		}
	}

	// Register a hook for the test's filler blocks — the stand-in for an
	// embedded subsystem's heap blocks (e.g. the replication cursor).
	fillers := map[specpmt.Addr]uint64{}
	s.OnRelocate(func(old, new specpmt.Addr, n int) (bool, error) {
		stamp, ok := fillers[old]
		if !ok {
			return false, nil
		}
		tx := s.pool.Thread(0).Begin()
		tx.StoreUint64(new, tx.LoadUint64(old))
		if err := tx.Commit(); err != nil {
			return true, err
		}
		delete(fillers, old)
		fillers[new] = stamp
		return true, nil
	})

	// Fragment the data heap under a Freeze (direct transactions on shard
	// threads are only safe under the combiner locks): fill spans with
	// stamped fillers, then free alternate blocks.
	const fillerSize = 2048
	var allocErr error
	err = s.Freeze(func() {
		th := s.pool.Thread(0)
		var addrs []specpmt.Addr
		for i := 0; i < 512; i++ {
			a, err := th.Alloc(fillerSize)
			if err != nil {
				allocErr = err
				return
			}
			stamp := 0xf00d0000 + uint64(i)
			tx := th.Begin()
			tx.StoreUint64(a, stamp)
			if err := tx.Commit(); err != nil {
				allocErr = err
				return
			}
			fillers[a] = stamp
			addrs = append(addrs, a)
		}
		for i, a := range addrs {
			if i%2 == 0 {
				th.Free(a, fillerSize)
				delete(fillers, a)
			}
		}
	})
	if err != nil || allocErr != nil {
		t.Fatalf("fragmenting: %v %v", err, allocErr)
	}
	h := s.pool.DataHeap()
	if fp, live := h.Footprint(), h.Live(); fp*100 <= live*int64(s.cfg.CompactFragPct) {
		t.Fatalf("setup did not fragment the heap: footprint %d live %d", fp, live)
	}

	// Under load the tick must yield without freezing anything.
	s.inflight <- struct{}{}
	s.maybeCompact()
	if got := s.compactSkipBusy.Load(); got != 1 {
		t.Fatalf("busy tick not skipped: skipped_busy=%d", got)
	}
	if got := s.compactions.Load(); got != 0 {
		t.Fatalf("compacted under load: compactions=%d", got)
	}
	<-s.inflight

	// Idle tick: fragmentation is over threshold, so this must compact.
	before := h.Footprint()
	s.maybeCompact()
	if got := s.compactions.Load(); got != 1 {
		t.Fatalf("idle tick did not compact: compactions=%d", got)
	}
	if s.compactMoved.Load() == 0 {
		t.Fatal("no blocks moved")
	}
	if s.compactFreed.Load() == 0 || h.Footprint() >= before {
		t.Fatalf("no footprint freed: %d -> %d (freed counter %d)",
			before, h.Footprint(), s.compactFreed.Load())
	}

	// Committed data and filler stamps are untouched.
	got := map[uint64]uint64{}
	err = s.Freeze(func() {
		s.RangeAll(func(_ int, k, v uint64) bool {
			got[k] = v
			return true
		})
		th := s.pool.Thread(0)
		for a, stamp := range fillers {
			if v := th.ReadUint64(a); v != stamp {
				allocErr = fmt.Errorf("filler at %d lost its stamp: %#x != %#x", a, v, stamp)
				return
			}
		}
	})
	if err != nil || allocErr != nil {
		t.Fatalf("verify: %v %v", err, allocErr)
	}
	if len(got) != len(oracle) {
		t.Fatalf("key count %d != %d", len(got), len(oracle))
	}
	for k, want := range oracle {
		if got[k] != want {
			t.Fatalf("key %d = %d, want %d", k, got[k], want)
		}
	}

	// The moves were crash-consistent: power-fail, recover, full oracle +
	// structural checks (Crash ends with SelfCheck).
	if err := s.Crash(11); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckRecovered(oracle); err != nil {
		t.Fatal(err)
	}
}
