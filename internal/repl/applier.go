package repl

import (
	"fmt"
	"sync/atomic"

	"specpmt"
	"specpmt/internal/server"
)

// CursorRoot is the pool root slot holding the replica's durable
// replication cursor (the shard hash maps occupy slots 0..shards-1, so a
// replica needs shards <= RootSlots-1).
const CursorRoot = specpmt.RootSlots - 1

// Applier replays replication records into a server, transactionally and
// exactly-once across crashes. It owns a durable cursor in the replica's
// own persistent pool — a heap block published through root slot CursorRoot
// holding the primary's stream id and one applied-LSN cell per shard:
//
//	[ primaryID ][ cell 0 ][ cell 1 ] ... [ cell shards-1 ]
//
// Every apply stamps the involved shards' cells with the run's last LSN
// inside the SAME transaction as the replayed writes (via the server's
// Apply extra hook), so a crash can never separate "data applied" from
// "cursor advanced". Because one goroutine applies records strictly in LSN
// order and each apply is atomic, the resume position after any crash is
// max over the cells: the cell holding the maximum belongs to the last
// committed apply, and every record before it was applied by an earlier
// committed apply.
//
// Not safe for concurrent use: one applier goroutine, like the record
// stream it consumes.
type Applier struct {
	srv    *server.Server
	shards int
	// addr is the cursor block (0 until initialised) — atomic because the
	// heap compactor's relocation hook may move the block (and repoint this
	// mirror) inside a Freeze while the applier goroutine is between
	// applies.
	addr atomic.Uint64

	// volatile mirrors of the durable cursor — atomic so stats hooks and
	// test harnesses may read them while the applier goroutine advances
	primaryID atomic.Uint64
	applied   atomic.Uint64

	ops     []server.Op
	results []server.Result
}

// NewApplier binds an applier to srv, reloading any durable cursor a
// previous incarnation left behind.
func NewApplier(srv *server.Server) (*Applier, error) {
	if srv.Shards() > CursorRoot {
		return nil, fmt.Errorf("repl: replica needs a free root slot: shards must be <= %d", CursorRoot)
	}
	a := &Applier{srv: srv, shards: srv.Shards()}
	a.Reload()
	srv.OnRelocate(a.relocate)
	return a, nil
}

// relocate is the applier's server.RelocateHook: when heap compaction picks
// the durable cursor block, copy its cells into the staged destination in
// one transaction and repoint the root slot — the same publish order
// BeginSnapshot uses, so a crash between the two leaves the root on the
// still-allocated old block. A cursor block allocated but not yet published
// (a crash window inside BeginSnapshot) is not claimed; the compaction pass
// aborts harmlessly.
func (a *Applier) relocate(old, new specpmt.Addr, n int) (bool, error) {
	pool := a.srv.Pool()
	if old == 0 || pool.Root(CursorRoot) != uint64(old) {
		return false, nil
	}
	tx := pool.Thread(0).Begin()
	for off := specpmt.Addr(0); off < specpmt.Addr((1+a.shards)*8); off += 8 {
		tx.StoreUint64(new+off, tx.LoadUint64(old+off))
	}
	if err := tx.Commit(); err != nil {
		return true, err
	}
	if err := pool.SetRoot(CursorRoot, uint64(new)); err != nil {
		return true, err
	}
	a.addr.Store(uint64(new))
	return true, nil
}

// Reload re-reads the durable cursor into the volatile mirrors — after
// construction and after a crash/recover of the underlying pool.
func (a *Applier) Reload() {
	pool := a.srv.Pool()
	a.addr.Store(pool.Root(CursorRoot))
	a.primaryID.Store(0)
	a.applied.Store(0)
	if a.addr.Load() == 0 {
		return
	}
	a.primaryID.Store(pool.ReadUint64(specpmt.Addr(a.addr.Load())))
	var applied uint64
	for i := 0; i < a.shards; i++ {
		if lsn := pool.ReadUint64(a.cell(i)); lsn > applied {
			applied = lsn
		}
	}
	a.applied.Store(applied)
	// Everything at or below the cursor is durably applied and readable, so
	// the published watermark (the GETAT gate) may resume there.
	a.srv.AdvancePublished(applied)
}

// CheckRecovered is the cursor's recovery-invariant checker
// (internal/recovery): after a replica crash and pool recovery, the durable
// cursor block must decode sanely. maxLSN is the highest LSN the primary
// ever shipped; any cell beyond it can only be a torn stamp (the stamp
// commits in the same transaction as the replayed writes, so a crash must
// never expose a half-written one). The volatile mirror, when reloaded
// from this cursor block, must sit exactly at the max cell — the resume
// position the exactly-once argument rests on.
func (a *Applier) CheckRecovered(maxLSN uint64) error {
	pool := a.srv.Pool()
	addr := specpmt.Addr(pool.Root(CursorRoot))
	if addr == 0 {
		// Never bootstrapped: nothing durable to check, and the mirror must
		// agree that nothing was applied.
		if got := a.applied.Load(); got != 0 {
			return fmt.Errorf("repl: no durable cursor but volatile applied LSN is %d", got)
		}
		return nil
	}
	var durable uint64
	for i := 0; i < a.shards; i++ {
		lsn := pool.ReadUint64(addr + 8 + specpmt.Addr(i)*8)
		if lsn > maxLSN {
			return fmt.Errorf("repl: cursor cell %d holds LSN %d beyond the primary's shipped LSN %d (torn stamp)",
				i, lsn, maxLSN)
		}
		if lsn > durable {
			durable = lsn
		}
	}
	if specpmt.Addr(a.addr.Load()) == addr {
		if got := a.applied.Load(); got != durable {
			return fmt.Errorf("repl: volatile applied LSN %d does not match durable cursor %d", got, durable)
		}
	}
	return nil
}

// PrimaryID returns the stream identity the cursor belongs to (0 = none:
// never bootstrapped, or a snapshot was cut short by a crash).
func (a *Applier) PrimaryID() uint64 { return a.primaryID.Load() }

// AppliedLSN returns the last applied LSN; the replica resumes tailing at
// AppliedLSN()+1.
func (a *Applier) AppliedLSN() uint64 { return a.applied.Load() }

func (a *Applier) cell(shard int) specpmt.Addr {
	return specpmt.Addr(a.addr.Load()) + 8 + specpmt.Addr(shard)*8
}

// stamp runs extra as its own transaction through the server's apply path,
// using a harmless GET as the vehicle (the ops slice must be non-empty for
// shard routing; a GET mutates nothing).
func (a *Applier) stamp(extra func(specpmt.Tx)) error {
	a.ops = append(a.ops[:0], server.Op{Kind: server.OpGet})
	_, err := a.srv.Apply(a.ops, extra, a.results[:0])
	return err
}

// BeginSnapshot prepares the cursor for a full-state bootstrap: it
// allocates the cursor block on first use and durably clears the primary
// id, so a crash mid-snapshot reports id 0 and forces a fresh bootstrap
// instead of resuming from a half-applied state.
func (a *Applier) BeginSnapshot() error {
	if a.addr.Load() == 0 {
		pool := a.srv.Pool()
		addr, err := pool.Alloc((1 + a.shards) * 8)
		if err != nil {
			return fmt.Errorf("repl: allocating cursor: %w", err)
		}
		a.addr.Store(uint64(addr))
		// Zero the whole block transactionally BEFORE publishing it via the
		// root slot: a crash in between leaks the block (harmless) but can
		// never expose garbage cells as a resume position.
		err = a.stamp(func(tx specpmt.Tx) {
			for off := 0; off < (1+a.shards)*8; off += 8 {
				tx.StoreUint64(addr+specpmt.Addr(off), 0)
			}
		})
		if err != nil {
			a.addr.Store(0)
			return err
		}
		if err := pool.SetRoot(CursorRoot, uint64(addr)); err != nil {
			a.addr.Store(0)
			return err
		}
	} else if err := a.stamp(func(tx specpmt.Tx) { tx.StoreUint64(specpmt.Addr(a.addr.Load()), 0) }); err != nil {
		return err
	}
	a.primaryID.Store(0)
	a.applied.Store(0)
	return nil
}

// ClearAll deletes every key currently in the store — the first step of a
// re-bootstrap, so stale keys absent from the incoming snapshot cannot
// survive it. Runs batched deletes through the normal apply path.
func (a *Applier) ClearAll() error {
	var keys []uint64
	err := a.srv.Freeze(func() {
		a.srv.RangeAll(func(_ int, key, _ uint64) bool {
			keys = append(keys, key)
			return true
		})
	})
	if err != nil {
		return err
	}
	const batch = 128
	for len(keys) > 0 {
		n := min(batch, len(keys))
		a.ops = a.ops[:0]
		for _, k := range keys[:n] {
			a.ops = append(a.ops, server.Op{Kind: server.OpDel, Key: k})
		}
		if _, err := a.srv.Apply(a.ops, nil, a.results[:0]); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return nil
}

// ApplySnapshot applies one batch of bootstrap pairs. The cursor does not
// move: a crash mid-snapshot re-bootstraps (BeginSnapshot cleared the id),
// and re-applying SETs over a partial snapshot is idempotent.
func (a *Applier) ApplySnapshot(pairs []WOp) error {
	a.ops = a.ops[:0]
	for _, kv := range pairs {
		a.ops = append(a.ops, server.Op{Kind: server.OpSet, Key: kv.Key, Arg1: kv.Val})
	}
	if len(a.ops) == 0 {
		return nil
	}
	_, err := a.srv.Apply(a.ops, nil, a.results[:0])
	return err
}

// EndSnapshot durably commits the bootstrap: primary id and every cell are
// stamped to the snapshot's LSN in one transaction, making the replica
// resumable from snapLSN+1.
func (a *Applier) EndSnapshot(primaryID, snapLSN uint64) error {
	err := a.stamp(func(tx specpmt.Tx) {
		tx.StoreUint64(specpmt.Addr(a.addr.Load()), primaryID)
		for i := 0; i < a.shards; i++ {
			tx.StoreUint64(a.cell(i), snapLSN)
		}
	})
	if err != nil {
		return err
	}
	a.primaryID.Store(primaryID)
	a.applied.Store(snapLSN)
	// The bootstrap batches reached the store without LSNs (marking the
	// MVCC stores stale); the whole store now IS the state at snapLSN, so
	// rebuild the version stores with that LSN as the visibility floor.
	return a.srv.ResetMVCC(snapLSN)
}

// ApplyRun replays a coalesced run of records as ONE transaction — the
// replica-side fence amortization: many primary transactions, one replica
// commit. Records must be contiguous in LSN order starting at
// AppliedLSN()+1. Returns the number of data operations applied.
func (a *Applier) ApplyRun(recs []Record) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	if first := recs[0].LSN; first != a.applied.Load()+1 {
		return 0, fmt.Errorf("repl: apply out of order: got lsn %d, want %d", first, a.applied.Load()+1)
	}
	last := recs[len(recs)-1].LSN
	a.ops = a.ops[:0]
	var touched [specpmt.RootSlots]bool
	for _, rec := range recs {
		for _, w := range rec.Ops {
			if w.Shard < 0 || w.Shard >= a.shards {
				return 0, fmt.Errorf("repl: record %d routes to shard %d of %d", rec.LSN, w.Shard, a.shards)
			}
			touched[w.Shard] = true
			if w.Del {
				a.ops = append(a.ops, server.Op{Kind: server.OpDel, Key: w.Key})
			} else {
				a.ops = append(a.ops, server.Op{Kind: server.OpSet, Key: w.Key, Arg1: w.Val})
			}
		}
	}
	extra := func(tx specpmt.Tx) {
		for i := range a.shards {
			if touched[i] {
				tx.StoreUint64(a.cell(i), last)
			}
		}
	}
	if len(a.ops) == 0 {
		// A run of empty records (e.g. all-GET MULTIs produce no effective
		// writes... the primary does not ship those, but be safe): just
		// stamp the cursor forward (GET vehicle, as in stamp), still at
		// LSN last so the published watermark advances.
		extraAll := func(tx specpmt.Tx) {
			for i := range a.shards {
				tx.StoreUint64(a.cell(i), last)
			}
		}
		a.ops = append(a.ops[:0], server.Op{Kind: server.OpGet})
		if _, err := a.srv.ApplyAt(last, a.ops, extraAll, a.results[:0]); err != nil {
			return 0, err
		}
		a.applied.Store(last)
		return 0, nil
	}
	if _, err := a.srv.ApplyAt(last, a.ops, extra, a.results[:0]); err != nil {
		return 0, err
	}
	a.applied.Store(last)
	return len(a.ops), nil
}
