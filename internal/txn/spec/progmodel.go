package spec

import (
	"fmt"
	"sort"

	"specpmt/internal/pmem"
)

// This file implements the programming-model operations of §4.3:
// switching away from speculative logging (§4.3.1) and adopting external
// data (§4.3.2).

// Seal switches the engine OUT of speculative logging (§4.3.1: "SpecPMT
// allows switching from speculative logging to another crash consistency
// mechanism. Because SpecPMT uses in-place updates, it only needs to flush
// dirty cache lines of durable data at the transition point. Once completed,
// speculative logs are no longer needed for crash recovery").
//
// The flush is selective, driven by the volatile record index ("selective
// flushing through software analysis of record indices and clwbs"): every
// address with a live log record is flushed, one fence persists them all,
// and the log chain is retired. The engine root's magic is cleared durably,
// so another engine can be initialised at the same root afterwards.
//
// No transaction may be open; the engine is unusable after Seal.
func (e *Engine) Seal() error {
	e.bgmu.Lock()
	defer e.bgmu.Unlock()
	if e.open {
		return fmt.Errorf("spec: Seal with a transaction open")
	}
	if e.needsScan {
		return fmt.Errorf("spec: Seal before Recover")
	}
	c := e.env.Core
	// Selective flush of every datum the log still covers, in address order
	// (the most favourable drain pattern available).
	lines := map[uint64]bool{}
	for addr, ie := range e.index {
		first := pmem.LineOf(addr)
		last := pmem.LineOf(addr + pmem.Addr(ie.size-1))
		for l := first; l <= last; l++ {
			lines[l] = true
		}
	}
	ordered := make([]uint64, 0, len(lines))
	for l := range lines {
		ordered = append(ordered, l)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
	for _, l := range ordered {
		c.Flush(pmem.Addr(l*pmem.LineSize), pmem.LineSize, pmem.KindData)
	}
	c.Fence()
	// The data is durable: clear the root durably so the log chain is
	// unreachable, then free it.
	c.StoreUint64(e.env.Root+offMagic, 0)
	c.StoreUint64(e.env.Root+offHead, 0)
	c.PersistBarrier(e.env.Root, 16, pmem.KindLog)
	for _, b := range e.ch.blocks {
		e.env.LogHeap.Free(b, e.ch.bsize)
	}
	c.Stats.AddLiveLog(-e.liveBytes)
	c.TraceLiveLog()
	e.ch = nil
	e.resetIndex()
	e.needsScan = true // engine is dead; Begin would panic via needsScan
	return nil
}

// Checkpoint adopts external durable data (§4.3.2): a region that was
// written by other software (or a previous run under a different mechanism)
// has no speculative log records, so an interrupted transaction touching it
// could not be revoked. Checkpoint snapshots the region's current content
// into committed log records — "the software can update the external data
// in a crash-consistent manner by creating a snapshot prior to data
// modification... SpecPMT only snapshots the data once".
//
// After Checkpoint returns, the region is fully covered: transactions may
// update it with ordinary crash-atomicity guarantees.
func (e *Engine) Checkpoint(addr pmem.Addr, size int) error {
	e.bgmu.Lock()
	defer e.bgmu.Unlock()
	if e.open {
		return fmt.Errorf("spec: Checkpoint with a transaction open")
	}
	if e.needsScan {
		return fmt.Errorf("spec: Checkpoint before Recover")
	}
	if size <= 0 {
		return nil
	}
	c := e.env.Core
	// Snapshot in record-sized chunks, each a committed record of one
	// entry. Chunks are bounded so any region fits the block payload.
	maxChunk := min(e.ch.maxValue(), 4096)
	for off := 0; off < size; off += maxChunk {
		at := addr + pmem.Addr(off)
		val := make([]byte, min(size-off, maxChunk))
		c.Load(at, val)
		ents := []logEntry{{addr: at, val: val}}
		ts := e.env.TS.Next()
		loc, n, err := e.ch.appendEntries(ts, ents)
		if err != nil {
			return fmt.Errorf("spec: checkpoint: %w", err)
		}
		e.ch.flushPending(pmem.KindLog)
		c.Fence()
		e.setIndex(at, indexEnt{ts: ts, rec: loc, valOff: ents[0].valOff, size: len(val)})
		e.liveBytes += int64(n)
		c.Stats.LogRecords++
		c.Stats.AddLiveLog(int64(n))
		c.TraceLogAppend(n)
	}
	return nil
}

// Covered reports whether every byte of [addr, addr+size) has a live
// speculative log record — i.e. whether a transaction may safely update the
// region without a prior Checkpoint. (Partial coverage counts as covered
// for the bytes that overlap; this is an advisory inspection helper.)
func (e *Engine) Covered(addr pmem.Addr, size int) bool {
	type iv struct{ lo, hi uint64 }
	var ivs []iv
	for a, ie := range e.index {
		ivs = append(ivs, iv{uint64(a), uint64(a) + uint64(ie.size)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	cur := uint64(addr)
	end := uint64(addr) + uint64(size)
	for _, v := range ivs {
		if v.hi <= cur {
			continue
		}
		if v.lo > cur {
			return false
		}
		if v.hi > cur {
			cur = v.hi
		}
		if cur >= end {
			return true
		}
	}
	return cur >= end
}
