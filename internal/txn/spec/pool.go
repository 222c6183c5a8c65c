package spec

import (
	"bytes"
	"fmt"

	"specpmt/internal/pmem"
	"specpmt/internal/txn"
)

// Pool manages one SpecPMT engine per thread. Each thread owns a private log
// chain and core ("each thread manages its own log without consulting with
// other threads", §3.1); commit timestamps from the shared Timestamp source
// order records across threads.
//
// Like all persistent memory transactions the paper compares against,
// SpecPMT provides atomic durability and leaves isolation to the caller
// (§4.3.3): threads must coordinate access to shared locations with their
// own concurrency control; the pool only guarantees that the merged,
// timestamp-ordered replay at recovery reproduces the committed history.
type Pool struct {
	engines []*Engine
}

// NewPool constructs n thread engines. envs must have length n, each with a
// distinct Root and Core but a shared Dev, heaps, and TS.
func NewPool(envs []txn.Env, opt Options) (*Pool, error) {
	p := &Pool{}
	for i, env := range envs {
		// Pool engines are driven one-goroutine-each against a shared
		// device: pin device-level locking on, overriding any exclusive-mode
		// fast path a single-threaded harness may have requested.
		env.Dev.ForceShared()
		e, err := New(env, opt)
		if err != nil {
			return nil, fmt.Errorf("spec: pool thread %d: %w", i, err)
		}
		p.engines = append(p.engines, e)
	}
	return p, nil
}

// Threads returns the number of thread engines.
func (p *Pool) Threads() int { return len(p.engines) }

// Engine returns thread i's engine. Each engine must only be driven by its
// own goroutine.
func (p *Pool) Engine(i int) *Engine { return p.engines[i] }

// Close closes every thread engine.
func (p *Pool) Close() error {
	for _, e := range p.engines {
		if err := e.Close(); err != nil {
			return err
		}
	}
	return nil
}

// VerifyRecovered is the pool's recovery-invariant checker: every thread
// engine's structure must verify (chain well-formedness, allocator
// liveness, index/record agreement — see Engine.VerifyRecovered), every
// address with a committed record anywhere in the pool must be covered by
// some engine's index (PR 7's coverage invariant at pool scope), and memory
// must agree with the pool-wide newest committed value per address —
// per-engine entries may legitimately be superseded by another thread's
// later write. Call only from a quiesced pool.
func (p *Pool) VerifyRecovered(allocated func(addr pmem.Addr, n int) bool) error {
	type winner struct {
		eng int
		ie  indexEnt
		rec []byte
	}
	winners := map[pmem.Addr]winner{}
	type entryRef struct {
		eng int
		loc recLoc
	}
	committedAddrs := map[pmem.Addr]entryRef{}
	for i, e := range p.engines {
		e.bgmu.Lock()
		committed, err := e.verifyLocked(allocated)
		if err != nil {
			e.bgmu.Unlock()
			return fmt.Errorf("thread %d: %w", i, err)
		}
		for addr, ie := range e.index {
			if w, ok := winners[addr]; !ok || ie.ts > w.ie.ts {
				winners[addr] = winner{eng: i, ie: ie, rec: committed[ie.rec]}
			}
		}
		for loc, rec := range committed {
			_, ents := decodeEntries(rec)
			for _, en := range ents {
				committedAddrs[en.Addr] = entryRef{eng: i, loc: loc}
			}
		}
		e.bgmu.Unlock()
	}
	for addr, ref := range committedAddrs {
		if _, ok := winners[addr]; !ok {
			return fmt.Errorf("spec: committed entry for addr %d (thread %d, block %d off %d) is not covered by any index",
				addr, ref.eng, ref.loc.block, ref.loc.off)
		}
	}
	c := p.engines[0].env.Core
	var buf []byte
	for addr, w := range winners {
		want := w.rec[w.ie.valOff : w.ie.valOff+w.ie.size]
		if cap(buf) < w.ie.size {
			buf = make([]byte, w.ie.size)
		}
		buf = buf[:w.ie.size]
		c.Load(addr, buf)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("spec: memory at addr %d diverges from its newest committed record (thread %d, ts %d): got %x, committed %x",
				addr, w.eng, w.ie.ts, buf, want)
		}
	}
	return nil
}

// Recover performs merged multi-thread recovery (§4.1, §5.2.2): every
// thread's committed records are collected, globally sorted by commit
// timestamp, and replayed in that order; the restored data is persisted.
// Afterwards the old chains are retired, but NOT to empty ones: the first
// engine's fresh chain is seeded with compact records holding the final
// recovered value of every live cell (§4.2-style compaction).
//
// That seeding upholds the invariant replay-undo correctness rests on:
// every cell a transaction may speculatively dirty in place has a committed
// value somewhere in the live logs. Replay redoes the last committed value
// over whatever a crash let leak from the caches — which "thereby undoes
// interrupted ones" (§3.1), and equally undoes CommitNoFence records whose
// deferred fence never retired. Were the chains truncated bare, a cell
// whose next writers all die unfenced at the following crash would have no
// committed record left to undo its leaked speculative bytes, and a torn
// transaction could surface. (The same contract puts fresh allocations on
// the caller: initialize new memory inside a committed transaction before
// speculating on it.)
func (p *Pool) Recover() error {
	if len(p.engines) == 0 {
		return nil
	}
	c := p.engines[0].env.Core
	var recs []replayRec
	for _, e := range p.engines {
		e.ch.scanAll(c, func(loc recLoc, rec []byte) bool {
			ts, ents := decodeEntries(rec)
			recs = append(recs, replayRec{ts: ts, ents: ents})
			return true
		})
	}
	sortRecordsByTS(recs)
	touched := txn.NewWriteSet()
	// final tracks the winning (newest-timestamp) value per cell during
	// replay; order is first-touch replay order, so the pass is
	// deterministic for a given log state.
	type coverEnt struct {
		val []byte
		ts  uint64
	}
	final := map[pmem.Addr]coverEnt{}
	var order []pmem.Addr
	for _, r := range recs {
		for _, en := range r.ents {
			c.Store(en.Addr, en.Val)
			touched.Add(en.Addr, len(en.Val))
			if _, ok := final[en.Addr]; !ok {
				order = append(order, en.Addr)
			}
			final[en.Addr] = coverEnt{val: en.Val, ts: r.ts}
		}
	}
	for _, l := range touched.Lines() {
		c.Flush(pmem.Addr(l*pmem.LineSize), pmem.LineSize, pmem.KindData)
	}
	c.Fence()
	// Retire every chain. Each engine gets a fresh chain (fresh block
	// incarnations — reusing the old head block would let its residual
	// records alias new ones at equal offsets); the first engine's carries
	// the coverage records. Only once the new chain is durable is the head
	// pointer switched and the old blocks freed, so a crash inside recovery
	// re-runs it from the old chains.
	for ei, e := range p.engines {
		ec := e.env.Core
		nc, err := newChain(ec, e.env.LogHeap, e.env.TS, e.opt.BlockSize)
		if err != nil {
			return fmt.Errorf("spec: pool recovery: %w", err)
		}
		e.resetIndex()
		if ei == 0 {
			// Pack the recovered cells into committed records, each stamped
			// with the newest timestamp among its members (§4.2), and index
			// them so reclamation sees the coverage entries as live.
			cover := make([]logEntry, len(order))
			for i, a := range order {
				cover[i] = logEntry{addr: a, val: final[a].val}
			}
			for start := 0; start < len(cover); {
				end := nc.nextRun(cover, start, nil)
				if end == start {
					return fmt.Errorf("spec: recovered entry larger than log block payload")
				}
				maxTS := uint64(0)
				for _, en := range cover[start:end] {
					maxTS = max(maxTS, final[en.addr].ts)
				}
				loc, n, err := nc.appendEntries(maxTS, cover[start:end])
				if err != nil {
					return fmt.Errorf("spec: pool recovery: %w", err)
				}
				for _, en := range cover[start:end] {
					e.setIndex(en.addr, indexEnt{ts: final[en.addr].ts, rec: loc, valOff: en.valOff, size: len(en.val)})
				}
				e.liveBytes += int64(n)
				start = end
			}
		}
		nc.flushPending(pmem.KindLog)
		ec.Fence()
		ec.StoreUint64(e.env.Root+offHead, uint64(nc.head()))
		ec.PersistBarrier(e.env.Root+offHead, 8, pmem.KindLog)
		old := e.ch
		e.ch = nc
		for _, b := range old.blocks {
			old.heap.Free(b, old.bsize)
		}
		e.needsScan = false
	}
	return nil
}
