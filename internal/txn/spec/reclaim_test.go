package spec

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"specpmt/internal/pmem"
	"specpmt/internal/sim"
	"specpmt/internal/txn"
	"specpmt/internal/txn/txntest"
)

// stepWorld is a small chain built for the phase-level crash tests: every
// block of the run the first step picks holds one cold (fresh) entry among
// stale rewrites of a hot word, so the step has survivors to copy. With
// middle set, two blocks of distinct fresh keys come first; no run that
// includes them fits one block, so the step's run starts at block 2.
type stepWorld struct {
	w      *txntest.World
	env    txn.Env
	e      *Engine
	addrs  []pmem.Addr
	oracle map[pmem.Addr]uint64
}

const stepBlock = 1024 // 31 compact records per block

func newStepWorld(t *testing.T, middle bool) *stepWorld {
	t.Helper()
	w := txntest.NewWorld(8 << 20)
	env := w.Env(false)
	e, err := New(env, Options{BlockSize: stepBlock, DisableReclaim: true})
	if err != nil {
		t.Fatal(err)
	}
	sw := &stepWorld{w: w, env: env, e: e, oracle: map[pmem.Addr]uint64{}}
	perBlock := e.ch.payload() / compactLen
	commit := func(a pmem.Addr, v uint64) {
		tx := e.Begin()
		tx.StoreUint64(a, v)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		sw.oracle[a] = v
	}
	alloc := func() pmem.Addr {
		a, err := w.DataHeap.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		sw.addrs = append(sw.addrs, a)
		return a
	}
	v := uint64(1)
	if middle {
		for k := 0; k < 2*perBlock; k++ {
			commit(alloc(), v)
			v++
		}
	}
	hot := alloc()
	for b := 0; b < 6; b++ {
		commit(alloc(), v)
		for k := 1; k < perBlock; k++ {
			v++
			commit(hot, v)
		}
	}
	commit(hot, v+1) // open the tail block
	return sw
}

// errCrashed unwinds a step the stepHook crashed the device under.
var errCrashed = fmt.Errorf("crashed inside a reclamation step")

// TestReclaimStepCrashPhases crashes a reclamation step at each of its
// phase boundaries — after the copy before fence one, between the fences,
// and after fence two before the free — for a run at the chain head and
// one in the middle, both with the pessimistic CrashClean and with
// eviction lotteries. Recovery must restore every committed value and pass
// the engine and pool checkers, through the engine's own Recover and
// through merged pool recovery.
func TestReclaimStepCrashPhases(t *testing.T) {
	noHook := stepHook
	defer func() { stepHook = noHook }()
	for _, middle := range []bool{false, true} {
		for _, phase := range []stepPhase{phaseCopied, phaseFenced, phaseLinked} {
			for seed := uint64(0); seed <= 12; seed++ { // 0 = CrashClean
				for _, merged := range []bool{false, true} {
					name := fmt.Sprintf("middle=%v/phase=%d/seed=%d/merged=%v", middle, phase, seed, merged)
					sw := newStepWorld(t, middle)
					if i, _, ok := sw.e.pickRun(); !ok || (i > 0) != middle {
						t.Fatalf("%s: step picks run at block %d (ok=%v)", name, i, ok)
					}
					stepHook = func(p stepPhase) {
						if p != phase {
							return
						}
						if seed == 0 {
							sw.w.Dev.CrashClean()
						} else {
							sw.w.Dev.Crash(sim.NewRand(seed))
						}
						panic(errCrashed)
					}
					func() {
						defer func() {
							if r := recover(); r != errCrashed {
								t.Fatalf("%s: step did not reach its phase (recovered %v)", name, r)
							}
						}()
						sw.e.ReclaimNow()
					}()
					stepHook = noHook
					if err := sw.recover(merged); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// recover reattaches after the crash, runs recovery and checks the result.
func (sw *stepWorld) recover(merged bool) error {
	env := sw.w.SameEnv(sw.env)
	if merged {
		p, err := NewPool([]txn.Env{env}, Options{})
		if err != nil {
			return err
		}
		if err := p.Recover(); err != nil {
			return err
		}
		if err := p.VerifyRecovered(sw.w.LogHeap.Allocated); err != nil {
			return err
		}
	} else {
		e, err := New(env, Options{})
		if err != nil {
			return err
		}
		if err := e.Recover(); err != nil {
			return err
		}
		if err := e.VerifyRecovered(sw.w.LogHeap.Allocated); err != nil {
			return err
		}
	}
	c := sw.w.Dev.NewCore()
	for _, a := range sw.addrs {
		if got, want := c.LoadUint64(a), sw.oracle[a]; got != want {
			return fmt.Errorf("addr %d = %d after recovery, committed %d", a, got, want)
		}
	}
	return nil
}

// TestReclaimFootprintBound drives 200 k single-SET transactions, uniform
// and Zipf over 4 096 keys, on 4 KiB blocks with steps due at 1 KiB of
// stale log. Each step scans at most maxRun blocks and writes at most one.
// Whenever a step finds no run that frees a block, pickRun's rule bounds
// the chain: every adjacent pair of non-tail blocks holds more than one
// payload of fresh cost (else the pair would be a run that frees one), so
// the m non-tail blocks form ⌊m/2⌋ disjoint pairs of more than a payload
// each, ⌊m/2⌋ < F/payload for F the summed fresh cost, and the chain, tail
// included, has at most 2⌈F/payload⌉ blocks. The test asserts that bound
// at every such point and after a final ReclaimNow.
func TestReclaimFootprintBound(t *testing.T) {
	if testing.Short() {
		t.Skip("200 k transactions")
	}
	const keys, txs, bsize = 4096, 200_000, 4096
	for _, zipf := range []bool{false, true} {
		w := txntest.NewWorld(64 << 20)
		env := w.Env(false)
		e, err := New(env, Options{BlockSize: bsize, ReclaimThreshold: 1024})
		if err != nil {
			t.Fatal(err)
		}
		payload := int64(e.ch.payload())
		// A step reads each record's first word twice (the pad probe and
		// the length) besides the record itself.
		scanBound := uint64(maxRun * (payload + 8*payload/recSlot + 4))
		addrs := make([]pmem.Addr, keys)
		for i := range addrs {
			addrs[i], _ = w.DataHeap.Alloc(64)
		}
		rng := sim.NewRand(11)
		z := sim.NewZipf(rng, keys, 0.99)
		bound := func() error {
			var fresh int64
			for _, f := range e.blockFresh {
				fresh += f
			}
			if n, most := int64(len(e.ch.blocks)), 2*((fresh+payload-1)/payload); n > most {
				return fmt.Errorf("chain of %d blocks holds %dB of fresh cost; the victim rule allows %d", n, fresh, most)
			}
			return nil
		}
		fixpoints, maxBlocks := 0, 0
		for n := 0; n < txs; n++ {
			k := rng.Intn(keys)
			if zipf {
				k = z.Next()
			}
			before := slices.Clone(e.ch.blocks)
			steps, loads := env.Core.Stats.ReclaimCycles, e.bg.Stats.LoadBytes
			retry := e.retryAt
			tx := e.Begin()
			tx.StoreUint64(addrs[k], uint64(n))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			maxBlocks = max(maxBlocks, len(e.ch.blocks))
			if env.Core.Stats.ReclaimCycles > steps {
				gone, added := 0, 0
				for _, b := range before {
					if !slices.Contains(e.ch.blocks, b) {
						gone++
					}
				}
				for _, b := range e.ch.blocks[:len(e.ch.blocks)-1] {
					if !slices.Contains(before, b) {
						added++
					}
				}
				if gone > maxRun || added > 1 {
					t.Fatalf("tx %d: one step freed %d blocks and wrote %d", n, gone, added)
				}
				if l := e.bg.Stats.LoadBytes - loads; l > scanBound {
					t.Fatalf("tx %d: one step loaded %dB, more than %d blocks hold (%dB)", n, l, maxRun, scanBound)
				}
			}
			if e.retryAt != retry && e.retryAt != 0 {
				fixpoints++
				if err := bound(); err != nil {
					t.Fatalf("zipf=%v tx %d: %v", zipf, n, err)
				}
			}
		}
		if fixpoints == 0 {
			t.Fatalf("zipf=%v: no step ever found the chain at its fixpoint; the bound went unchecked", zipf)
		}
		if err := e.ReclaimNow(); err != nil {
			t.Fatal(err)
		}
		if err := bound(); err != nil {
			t.Fatalf("zipf=%v after ReclaimNow: %v", zipf, err)
		}
		if err := e.VerifyRecovered(w.LogHeap.Allocated); err != nil {
			t.Fatal(err)
		}
		t.Logf("zipf=%v: %d fixpoints checked, longest chain %d blocks, %d steps", zipf, fixpoints, maxBlocks, env.Core.Stats.ReclaimCycles)
	}
}

// TestVerifyCatchesAccountingDrift corrupts each piece of the per-block
// reclamation accounting in turn; VerifyRecovered must catch it.
func TestVerifyCatchesAccountingDrift(t *testing.T) {
	e := newStepWorld(t, false).e
	if err := e.VerifyRecovered(nil); err != nil {
		t.Fatal(err)
	}
	head, foreign := e.ch.blocks[0], ^pmem.Addr(0)
	for name, corrupt := range map[string]func(){
		"stale share":         func() { e.blockStale[head]++ },
		"stale estimate":      func() { e.staleBytes-- },
		"stale off the chain": func() { e.blockStale[foreign] = 0 },
		"fresh off the chain": func() { e.blockFresh[foreign] = 0 },
		"fresh bound too low": func() { e.blockFresh[head] -= compactLen },
	} {
		stale, fresh, total := maps.Clone(e.blockStale), maps.Clone(e.blockFresh), e.staleBytes
		corrupt()
		if err := e.VerifyRecovered(nil); err == nil {
			t.Errorf("%s: accounting drift not caught", name)
		}
		e.blockStale, e.blockFresh, e.staleBytes = stale, fresh, total
	}
}

// TestBeginAfterLargeTx runs a small transaction after a 4 096-entry one
// on both log engines: the reusable transaction must carry no stale write
// set, old-value or entry-index state across Begin, though its maps keep
// their grown capacity.
func TestBeginAfterLargeTx(t *testing.T) {
	engines := map[string]func(txn.Env) (txn.Engine, error){
		"SpecSPMT": func(env txn.Env) (txn.Engine, error) {
			return New(env, Options{BlockSize: 128 << 10, DisableReclaim: true})
		},
		"SpecSPMT-Hash": func(env txn.Env) (txn.Engine, error) { return NewHash(env, HashOptions{}) },
	}
	for name, open := range engines {
		w := txntest.NewWorld(64 << 20)
		eng, err := open(w.Env(false))
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]pmem.Addr, 4096)
		for i := range addrs {
			addrs[i], _ = w.DataHeap.Alloc(8)
		}
		big := eng.Begin()
		for i, a := range addrs {
			big.StoreUint64(a, uint64(i)+1)
		}
		if err := big.Commit(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		small := eng.Begin()
		switch st := small.(type) {
		case *tx:
			if len(st.byAddr) != 0 || len(st.old) != 0 || st.ws.Len() != 0 || len(st.ws.Lines()) != 0 {
				t.Fatalf("%s: Begin left %d byAddr, %d old, %d write-set entries", name, len(st.byAddr), len(st.old), st.ws.Len())
			}
			if _, seen := st.ws.Seen(addrs[7]); seen {
				t.Fatalf("%s: write set still reports addrs[7] seen", name)
			}
		case *hashTx:
			if len(st.byAddr) != 0 || len(st.old) != 0 {
				t.Fatalf("%s: Begin left %d byAddr, %d old entries", name, len(st.byAddr), len(st.old))
			}
		}
		// A stale old value would restore the pre-large-transaction 0; a
		// stale entry index would point past the empty entry list.
		small.StoreUint64(addrs[7], 99)
		small.StoreUint64(addrs[7], 100)
		if err := small.Abort(); err != nil {
			t.Fatal(err)
		}
		if got := w.Dev.NewCore().LoadUint64(addrs[7]); got != 8 {
			t.Fatalf("%s: abort restored %d, want the committed 8", name, got)
		}
		eng.Close()
	}
}

// BenchmarkBeginAfterLargeTx times a one-store transaction on an engine
// whose reusable transaction once held 4 096 entries: Begin's reset costs
// the last transaction's size, not the high-water one.
func BenchmarkBeginAfterLargeTx(b *testing.B) {
	w := txntest.NewWorld(64 << 20)
	e, err := New(w.Env(false), Options{BlockSize: 128 << 10, DisableReclaim: true})
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]pmem.Addr, 4096)
	for i := range addrs {
		addrs[i], _ = w.DataHeap.Alloc(8)
	}
	tx := e.Begin()
	for i, a := range addrs {
		tx.StoreUint64(a, uint64(i))
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := e.Begin()
		tx.StoreUint64(addrs[i%len(addrs)], uint64(i))
		tx.Abort()
	}
}

func TestConformanceBackgroundReclaim(t *testing.T) {
	// The full battery with thresholds so low that a reclamation step on
	// the background (reclaimer) core follows nearly every commit.
	txntest.Run(t, func(env txn.Env) (txn.Engine, error) {
		return New(env, Options{BlockSize: 1024, ReclaimThreshold: 512})
	})
}

// TestBackgroundReclaimBoundsLog pins §4.2's background reclamation in the
// cost model: steps keep one hot word's log near the threshold, and their
// fences land on the reclaimer core, never on the application core, which
// keeps exactly one fence per commit.
func TestBackgroundReclaimBoundsLog(t *testing.T) {
	w := txntest.NewWorld(128 << 20)
	env := w.Env(false)
	e, err := New(env, Options{BlockSize: 4096, ReclaimThreshold: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := w.DataHeap.Alloc(64)
	fences := env.Core.Stats.Fences
	const commits = 5000
	for i := uint64(0); i < commits; i++ {
		tx := e.Begin()
		tx.StoreUint64(a, i)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	steps := env.Core.Stats.ReclaimCycles
	if steps == 0 {
		t.Fatal("reclamation never ran")
	}
	if got := env.Core.Stats.Fences - fences; got != commits {
		t.Fatalf("application core issued %d fences over %d commits", got, commits)
	}
	if got := e.bg.Stats.Fences; got != 2*steps {
		t.Fatalf("reclaimer core issued %d fences over %d steps, want 2 per step", got, steps)
	}
	// One hot word: the chain must have been kept near the threshold, far
	// below the ~240KB of unreclaimed records.
	if live := e.liveBytes; live > 64<<10 {
		t.Fatalf("live log %dB despite reclamation", live)
	}
	e.Close()
	w.Dev.Crash(sim.NewRand(3))
	e2, _ := New(w.SameEnv(env), Options{})
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := w.Dev.NewCore().LoadUint64(a); got != commits-1 {
		t.Fatalf("a=%d want %d", got, commits-1)
	}
}
