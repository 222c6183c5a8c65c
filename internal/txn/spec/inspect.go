package spec

import (
	"bytes"
	"fmt"
	"io"

	"specpmt/internal/pmem"
)

// DumpLog writes a human-readable walk of the speculative log chain: every
// block, every record with its commit timestamp and entries, and whether
// each entry is fresh (still the newest committed value of its address,
// per the volatile index) or stale (reclaimable). It is the inspection
// surface behind cmd/specpmt-inspect and is also handy in tests.
func (e *Engine) DumpLog(w io.Writer) {
	e.bgmu.Lock()
	defer e.bgmu.Unlock()
	fmt.Fprintf(w, "speculative log: %d block(s), block size %dB, live %dB, ~%dB stale\n",
		len(e.ch.blocks), e.opt.BlockSize, e.liveBytes, e.staleBytes)
	for i, b := range e.ch.blocks {
		fmt.Fprintf(w, "  block %d @%d incarnation=%d\n", i, b, e.ch.incarn[b])
	}
	records := 0
	e.ch.scanAll(e.env.Core, func(loc recLoc, rec []byte) bool {
		ts, ents := decodeEntries(rec)
		records++
		fmt.Fprintf(w, "  record @%d+%d ts=%d %s size=%dB slot=%dB entries=%d\n",
			loc.block, loc.off, ts, recordForm(rec), len(rec), slotBytes(len(rec)), len(ents))
		for _, en := range ents {
			state := "stale"
			if ie, ok := e.index[en.Addr]; ok && ie.rec == loc && ie.valOff == en.ValOff {
				state = "fresh"
			}
			fmt.Fprintf(w, "    addr=%d size=%d %s\n", en.Addr, len(en.Val), state)
		}
		return true
	})
	fmt.Fprintf(w, "  %d committed record(s); index covers %d address(es)\n", records, len(e.index))
}

// VerifyRecovered is the engine's recovery-invariant checker
// (internal/recovery): it verifies, at any quiesced point (no open
// transaction; after Recover when attached post-crash), that
//
//   - the chain is well formed — the volatile block list matches the
//     persistent next pointers and incarnation stamps, and (when an
//     allocated hook is supplied, typically pmalloc.Heap.Allocated of the
//     log heap) every chain block is live in the allocator;
//   - every index entry points at a committed record and memory holds
//     exactly that entry's value — the index/record/memory agreement that
//     makes speculative recovery correct; and
//   - every committed record entry's address is covered by the index — the
//     coverage invariant PR 7's merged-recovery hole violated: an address
//     recovered from another thread's log must gain a covering record here,
//     or the next crash replays a stale value over it.
func (e *Engine) VerifyRecovered(allocated func(addr pmem.Addr, n int) bool) error {
	e.bgmu.Lock()
	defer e.bgmu.Unlock()
	committed, err := e.verifyLocked(allocated)
	if err != nil {
		return err
	}
	var buf []byte
	for addr, ie := range e.index {
		rec := committed[ie.rec]
		want := rec[ie.valOff : ie.valOff+ie.size]
		if cap(buf) < ie.size {
			buf = make([]byte, ie.size)
		}
		buf = buf[:ie.size]
		e.env.Core.Load(addr, buf)
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("spec: memory at addr %d diverges from its newest committed record (ts %d): got %x, committed %x",
				addr, ie.ts, buf, want)
		}
	}
	for loc, rec := range committed {
		_, ents := decodeEntries(rec)
		for _, en := range ents {
			if _, ok := e.index[en.Addr]; !ok {
				return fmt.Errorf("spec: committed entry for addr %d (block %d off %d) is not covered by the index",
					en.Addr, loc.block, loc.off)
			}
		}
	}
	return nil
}

// verifyLocked checks the per-engine structure — chain well-formedness,
// allocator liveness of every block, each index entry pointing at a
// committed record with matching timestamp and in-bounds value, and the
// reclamation accounting setIndex keeps — and returns the committed records
// by location. It does NOT compare values against memory: in a multi-thread
// pool another engine may hold a newer committed value for the same
// address, so memory agreement is checked by the caller at whichever scope
// owns the newest timestamp. Caller holds bgmu.
func (e *Engine) verifyLocked(allocated func(addr pmem.Addr, n int) bool) (map[recLoc][]byte, error) {
	if e.open {
		return nil, fmt.Errorf("spec: VerifyRecovered with a transaction open")
	}
	if e.needsScan {
		return nil, fmt.Errorf("spec: VerifyRecovered before Recover")
	}
	c := e.env.Core
	for i, b := range e.ch.blocks {
		if allocated != nil && !allocated(b, e.opt.BlockSize) {
			return nil, fmt.Errorf("spec: chain block %d @%d is not allocated in the log heap", i, b)
		}
		if inc := c.LoadUint64(b + 8); inc != e.ch.incarn[b] {
			return nil, fmt.Errorf("spec: chain block %d @%d incarnation %d, volatile view has %d", i, b, inc, e.ch.incarn[b])
		}
		var wantNext pmem.Addr
		if i+1 < len(e.ch.blocks) {
			wantNext = e.ch.blocks[i+1]
		}
		if next := pmem.Addr(c.LoadUint64(b)); next != wantNext {
			return nil, fmt.Errorf("spec: chain block %d @%d next pointer %d, volatile view has %d", i, b, next, wantNext)
		}
	}
	committed := map[recLoc][]byte{}
	e.ch.scanAll(c, func(loc recLoc, rec []byte) bool {
		committed[loc] = rec
		return true
	})
	for addr, ie := range e.index {
		rec, ok := committed[ie.rec]
		if !ok {
			return nil, fmt.Errorf("spec: index entry for addr %d points at no committed record (block %d off %d)",
				addr, ie.rec.block, ie.rec.off)
		}
		if !holdsEntry(rec, addr, ie.valOff, ie.size) {
			return nil, fmt.Errorf("spec: index entry for addr %d names value [%d:%d), which is no entry of its %d-byte %s record",
				addr, ie.valOff, ie.valOff+ie.size, len(rec), recordForm(rec))
		}
		// Recovery's coverage records pack many cells into one record
		// stamped with the group's max timestamp while the index keeps
		// each cell's own; an index entry NEWER than its record, though,
		// points at a value that cannot be the one it claims.
		if ts := recordTS(rec); ie.ts > ts {
			return nil, fmt.Errorf("spec: index entry for addr %d stamped ts %d, newer than its record's ts %d", addr, ie.ts, ts)
		}
	}
	return committed, e.verifyAccounting()
}

// verifyAccounting checks the per-block reclamation accounting: the stale
// shares sum to the stale estimate, only chain blocks are accounted, and
// each block's fresh bound covers the slot bytes its fresh entries take
// when copied a source record at a time — what a step relies on to fit a
// run's survivors in one block. Caller holds bgmu.
func (e *Engine) verifyAccounting() error {
	inChain := make(map[pmem.Addr]bool, len(e.ch.blocks))
	for _, b := range e.ch.blocks {
		inChain[b] = true
	}
	var stale int64
	for b, n := range e.blockStale {
		if !inChain[b] {
			return fmt.Errorf("spec: %dB of stale log accounted to block @%d, which is not in the chain", n, b)
		}
		stale += n
	}
	if stale != e.staleBytes {
		return fmt.Errorf("spec: per-block stale shares sum to %dB, stale estimate is %dB", stale, e.staleBytes)
	}
	freshOf := map[recLoc][]logEntry{}
	for addr, ie := range e.index {
		freshOf[ie.rec] = append(freshOf[ie.rec], logEntry{addr: addr, val: make([]byte, ie.size)})
	}
	need := map[pmem.Addr]int64{}
	for loc, ents := range freshOf {
		need[loc.block] += int64(slotBytes(recordLen(ents)))
	}
	for b, n := range e.blockFresh {
		if !inChain[b] {
			return fmt.Errorf("spec: %dB of fresh log accounted to block @%d, which is not in the chain", n, b)
		}
	}
	for b, n := range need {
		if e.blockFresh[b] < n {
			return fmt.Errorf("spec: block @%d fresh bound %dB, but its fresh entries take %dB when copied", b, e.blockFresh[b], n)
		}
	}
	return nil
}

// IndexSize reports how many addresses the volatile record index covers.
func (e *Engine) IndexSize() int {
	e.bgmu.Lock()
	defer e.bgmu.Unlock()
	return len(e.index)
}

// Blocks reports the current chain length in blocks.
func (e *Engine) Blocks() int {
	e.bgmu.Lock()
	defer e.bgmu.Unlock()
	return len(e.ch.blocks)
}
