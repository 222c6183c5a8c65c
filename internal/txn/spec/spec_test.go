package spec

import (
	"testing"

	"specpmt/internal/pmem"
	"specpmt/internal/sim"
	"specpmt/internal/txn"
	"specpmt/internal/txn/txntest"
)

func factory(env txn.Env) (txn.Engine, error) { return New(env, Options{}) }

func factoryDP(env txn.Env) (txn.Engine, error) {
	return New(env, Options{DataPersist: true})
}

func TestConformanceSpecSPMT(t *testing.T) {
	txntest.Run(t, factory)
}

func TestConformanceSpecSPMTDP(t *testing.T) {
	txntest.Run(t, factoryDP)
}

func TestConformanceWithAggressiveReclaim(t *testing.T) {
	// A tiny block size and threshold force block chaining and reclamation
	// inside the ordinary conformance battery.
	txntest.Run(t, func(env txn.Env) (txn.Engine, error) {
		return New(env, Options{BlockSize: 512, ReclaimThreshold: 256})
	})
}

func TestSingleFencePerCommit(t *testing.T) {
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, err := New(env, Options{DisableReclaim: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	addrs := make([]pmem.Addr, 20)
	for i := range addrs {
		addrs[i], _ = w.DataHeap.Alloc(64)
	}
	before := env.Core.Stats.Fences
	tx := e.Begin()
	for _, a := range addrs {
		tx.StoreUint64(a, 7)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := env.Core.Stats.Fences - before; got != 1 {
		t.Fatalf("fences per commit = %d, want exactly 1 (Figure 2 right)", got)
	}
}

func TestNoDataFlushWithoutDP(t *testing.T) {
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{DisableReclaim: true})
	defer e.Close()
	a, _ := w.DataHeap.Alloc(64)
	before := env.Core.Stats.PMDataBytes
	tx := e.Begin()
	tx.StoreUint64(a, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := env.Core.Stats.PMDataBytes - before; got != 0 {
		t.Fatalf("SpecSPMT flushed %d data bytes; data persistence should be elided", got)
	}
}

func TestDPFlushesData(t *testing.T) {
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{DataPersist: true, DisableReclaim: true})
	defer e.Close()
	a, _ := w.DataHeap.Alloc(64)
	tx := e.Begin()
	tx.StoreUint64(a, 1)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if env.Core.Stats.PMDataBytes == 0 {
		t.Fatal("SpecSPMT-DP must flush data at commit")
	}
	if got := env.Core.Stats.Fences; got > 5 { // init barriers + 1 commit fence
		t.Fatalf("DP should still use a single commit fence; total=%d", got)
	}
}

func TestLogWritesAreSequential(t *testing.T) {
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{DisableReclaim: true})
	defer e.Close()
	addrs := make([]pmem.Addr, 64)
	for i := range addrs {
		addrs[i], _ = w.DataHeap.Alloc(4096) // scattered data addresses
	}
	before := env.Core.Stats.Snapshot()
	for r := 0; r < 8; r++ {
		tx := e.Begin()
		for _, a := range addrs {
			tx.StoreUint64(a, uint64(r))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	seq := env.Core.Stats.SeqLines - before.SeqLines
	rnd := env.Core.Stats.RandLines - before.RandLines
	if seq < rnd {
		t.Fatalf("log appends should drain mostly sequentially: seq=%d rand=%d", seq, rnd)
	}
}

func TestReclamationBoundsLiveLog(t *testing.T) {
	w := txntest.NewWorld(64 << 20)
	env := w.Env(false)
	e, err := New(env, Options{BlockSize: 4096, ReclaimThreshold: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	a, _ := w.DataHeap.Alloc(64)
	b, _ := w.DataHeap.Alloc(64)
	for i := uint64(0); i < 3000; i++ {
		tx := e.Begin()
		tx.StoreUint64(a, i)
		tx.StoreUint64(b, i*2)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if env.Core.Stats.ReclaimCycles == 0 {
		t.Fatal("reclamation never triggered")
	}
	// Two hot data words: the live log must stay near the threshold, far
	// below the ~160KB that 3000 unreclaimed records would occupy.
	if e.LiveLogBytes() > 32<<10 {
		t.Fatalf("live log grew to %d bytes despite reclamation", e.LiveLogBytes())
	}
	// Correctness after heavy reclamation.
	e.Close()
	w.Dev.Crash(sim.NewRand(5))
	e2, _ := New(w.SameEnv(env), Options{BlockSize: 4096})
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	c := w.Dev.NewCore()
	if got := c.LoadUint64(a); got != 2999 {
		t.Fatalf("a=%d want 2999", got)
	}
	if got := c.LoadUint64(b); got != 5998 {
		t.Fatalf("b=%d want 5998", got)
	}
}

func TestExplicitReclaimNow(t *testing.T) {
	w := txntest.NewWorld(64 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{BlockSize: 1024, DisableReclaim: true})
	defer e.Close()
	a, _ := w.DataHeap.Alloc(64)
	for i := uint64(0); i < 200; i++ {
		tx := e.Begin()
		tx.StoreUint64(a, i)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	liveBefore := e.LiveLogBytes()
	if err := e.ReclaimNow(); err != nil {
		t.Fatal(err)
	}
	if e.LiveLogBytes() >= liveBefore {
		t.Fatalf("explicit reclaim did not shrink log: %d -> %d", liveBefore, e.LiveLogBytes())
	}
	// Value still recoverable from the compacted log.
	w.Dev.CrashClean()
	e2, _ := New(w.SameEnv(env), Options{})
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := w.Dev.NewCore().LoadUint64(a); got != 199 {
		t.Fatalf("a=%d want 199", got)
	}
}

func TestReclaimTwoFences(t *testing.T) {
	w := txntest.NewWorld(64 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{BlockSize: 1024, DisableReclaim: true})
	defer e.Close()
	a, _ := w.DataHeap.Alloc(64)
	for i := uint64(0); i < 300; i++ {
		tx := e.Begin()
		tx.StoreUint64(a, i)
		tx.Commit()
	}
	before, steps := e.bg.Stats.Fences, env.Core.Stats.ReclaimCycles
	if err := e.ReclaimNow(); err != nil {
		t.Fatal(err)
	}
	steps = env.Core.Stats.ReclaimCycles - steps
	if steps < 2 {
		t.Fatalf("ReclaimNow took %d steps over a 10-block chain, want several", steps)
	}
	if got := e.bg.Stats.Fences - before; got != 2*steps {
		t.Fatalf("%d reclamation steps used %d fences, want 2 per step (§4.2)", steps, got)
	}
}

func TestTxTooLarge(t *testing.T) {
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{BlockSize: 512})
	defer e.Close()
	a, _ := w.DataHeap.Alloc(4096)
	prev := e.env.Core.LoadUint64(a)
	tx := e.Begin()
	tx.Store(a, make([]byte, 1024))
	if err := tx.Commit(); err != ErrTxTooLarge {
		t.Fatalf("err=%v want ErrTxTooLarge", err)
	}
	if got := e.env.Core.LoadUint64(a); got != prev {
		t.Fatal("failed commit must restore in-place data")
	}
}

func TestRecoverAfterTornRecord(t *testing.T) {
	// Corrupt the newest record's bytes: recovery must stop there and keep
	// everything before it.
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{DisableReclaim: true})
	a, _ := w.DataHeap.Alloc(64)
	for i := uint64(1); i <= 5; i++ {
		tx := e.Begin()
		tx.StoreUint64(a, i)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Locate the last record and corrupt one persisted byte of its value.
	ie := e.index[a]
	corrupt := ie.rec.block + pmem.Addr(blockHeader+ie.rec.off+ie.valOff)
	e.Close()
	w.Dev.CrashClean()
	c := w.Dev.NewCore()
	var bad [1]byte
	c.Load(corrupt, bad[:])
	bad[0] ^= 0xFF
	c.Store(corrupt, bad[:])
	c.PersistBarrier(corrupt, 1, pmem.KindData)
	e2, _ := New(w.SameEnv(env), Options{})
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := w.Dev.NewCore().LoadUint64(a); got != 4 {
		t.Fatalf("a=%d after torn-record recovery, want previous commit 4", got)
	}
}

func TestRecycledBlockCannotAlias(t *testing.T) {
	// Fill a chain, reclaim (freeing blocks), keep going: freed blocks are
	// reused; their residual records must never be replayed. This is the
	// incarnation-salt property.
	w := txntest.NewWorld(64 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{BlockSize: 512, ReclaimThreshold: 1024})
	addrs := make([]pmem.Addr, 8)
	for i := range addrs {
		addrs[i], _ = w.DataHeap.Alloc(64)
	}
	for round := uint64(0); round < 400; round++ {
		tx := e.Begin()
		for j, a := range addrs {
			tx.StoreUint64(a, round*10+uint64(j))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	w.Dev.Crash(sim.NewRand(2))
	e2, _ := New(w.SameEnv(env), Options{})
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	c := w.Dev.NewCore()
	for j, a := range addrs {
		want := uint64(399*10 + j)
		if got := c.LoadUint64(a); got != want {
			t.Fatalf("addrs[%d]=%d want %d", j, got, want)
		}
	}
}

func TestLiveLogApproxOneRecordPerDatum(t *testing.T) {
	// After reclamation the live log should be close to one entry per hot
	// datum — the basis of the paper's ~3x memory-overhead characterisation.
	w := txntest.NewWorld(64 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{BlockSize: 4096, DisableReclaim: true})
	defer e.Close()
	const n = 32
	addrs := make([]pmem.Addr, n)
	for i := range addrs {
		addrs[i], _ = w.DataHeap.Alloc(64)
	}
	for round := 0; round < 50; round++ {
		tx := e.Begin()
		for _, a := range addrs {
			tx.StoreUint64(a, uint64(round))
		}
		tx.Commit()
	}
	if err := e.ReclaimNow(); err != nil {
		t.Fatal(err)
	}
	perDatum := (entHeader + 8)
	ideal := int64(n*perDatum + recHeader + recFooter)
	// The tail block is never compacted, so allow a couple of records slack.
	if e.LiveLogBytes() > 3*ideal+int64(n*perDatum) {
		t.Fatalf("live log %dB; ideal ~%dB", e.LiveLogBytes(), ideal)
	}
}
