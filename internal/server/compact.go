package server

import (
	"time"

	"specpmt"
)

// RelocateHook lets an embedding subsystem (e.g. the replication applier's
// durable cursor) participate in heap compaction: given a block the server's
// shard maps do not own, the hook must either relocate it crash-consistently
// — copy [old, old+n), repoint its reference, return owned=true — or report
// owned=false so the next hook is tried. Hooks run inside a Freeze (the
// store is quiesced) on the goroutine that called it. A non-nil err aborts
// the compaction run; nothing is lost.
type RelocateHook func(old, new specpmt.Addr, n int) (owned bool, err error)

// OnRelocate registers a relocation hook for heap blocks owned by an
// embedding subsystem. Hooks accumulate and are tried in registration order.
func (s *Server) OnRelocate(fn RelocateHook) {
	s.hookMu.Lock()
	s.relocHooks = append(s.relocHooks, fn)
	s.hookMu.Unlock()
}

// compactMinGain is the least footprint-over-live excess worth a compaction
// pass — below two 64 KiB spans there is nothing a pass could return to the
// free pool.
const compactMinGain = 128 << 10

// relocateBlock is the pmalloc.Compact mover: it dispatches each block to
// the shard map that owns it, then to the registered hooks. An unrecognized
// block (possible only for regions leaked by a pre-crash unlink, which
// nothing references) makes the pass abort by returning false — the
// allocator frees the staged destination and the heap is exactly as before.
func (s *Server) relocateBlock(old, new specpmt.Addr, n int) bool {
	for _, sh := range s.shards {
		owned, err := sh.m.Relocate(old, new)
		if err != nil {
			s.log.Warn("compaction move failed", "shard", sh.id, "err", err)
			return false
		}
		if owned {
			return true
		}
	}
	s.hookMu.Lock()
	hooks := append([]RelocateHook(nil), s.relocHooks...)
	s.hookMu.Unlock()
	for _, hook := range hooks {
		owned, err := hook(old, new, n)
		if err != nil {
			s.log.Warn("compaction hook move failed", "err", err)
			return false
		}
		if owned {
			return true
		}
	}
	return false
}

// CompactNow runs one data-heap compaction pass under a Freeze, regardless
// of load or fragmentation thresholds. Returns blocks moved and footprint
// bytes returned to the heap's free pool.
func (s *Server) CompactNow() (moved int, freed int64, err error) {
	h := s.pool.DataHeap()
	before := h.Footprint()
	err = s.Freeze(func() {
		moved = h.Compact(s.relocateBlock)
	})
	if err != nil {
		return 0, 0, err
	}
	if after := h.Footprint(); after < before {
		freed = before - after
	}
	s.compactions.Add(1)
	s.compactMoved.Add(uint64(moved))
	s.compactFreed.Add(uint64(freed))
	return moved, freed, nil
}

// maybeCompact is one tick of the background compactor: it yields to
// foreground traffic (any request in flight skips the tick — compaction is
// strictly low-priority, since it freezes every shard for its duration), and
// otherwise compacts only when the heap's span footprint exceeds the
// configured fraction of its live bytes by at least compactMinGain.
func (s *Server) maybeCompact() {
	if len(s.inflight) > 0 {
		s.compactSkipBusy.Add(1)
		return
	}
	h := s.pool.DataHeap()
	fp, live := h.Footprint(), h.Live()
	if live <= 0 || fp*100 <= live*int64(s.cfg.CompactFragPct) || fp-live < compactMinGain {
		return
	}
	moved, freed, err := s.CompactNow()
	if err != nil {
		return // closing
	}
	s.log.Info("heap compacted", "moved_blocks", moved, "freed_bytes", freed,
		"footprint", h.Footprint(), "live", h.Live())
}

// runCompactor is the background compaction loop, started before the first
// request when CompactEvery > 0 and stopped by Close.
func (s *Server) runCompactor() {
	t := time.NewTicker(s.cfg.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.maybeCompact()
		}
	}
}
