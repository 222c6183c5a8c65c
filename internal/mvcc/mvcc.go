// Package mvcc provides volatile multi-version value stores for snapshot
// reads over the server's shard maps.
//
// Each shard owns one Store. Committed writes are installed as immutable
// versions stamped with their publication LSN; a per-store watermark marks
// the highest LSN whose writes are all installed. Readers acquire a snapshot
// LSN (the watermark at acquire time), read version chains lock-free, and
// release; version reclamation trims chain suffixes no acquired snapshot can
// reach — the same grace-period idea as the hashmap's retired-table epoch
// reclamation, applied to value history instead of bucket arrays.
//
// The stores are volatile by design: version chains are rebuilt empty at
// recovery from the durable hash maps (every surviving key reseeds as a
// single base version at LSN 0). See DESIGN.md for the rationale.
package mvcc

import (
	"sync"
	"sync/atomic"
)

// version is one immutable committed value. next points at the previous
// (older) version; chains are newest-first. Published versions are never
// mutated — readers traverse them without synchronization beyond the atomic
// next loads.
type version struct {
	lsn  uint64
	val  uint64
	del  bool
	next atomic.Pointer[version]
}

// snapSlots is the number of concurrently registered snapshots per store.
// Readers that cannot find a free slot fall back to the queued read path,
// so this bounds fast-path concurrency, not correctness.
const snapSlots = 64

// Store is one shard's version store. A single publisher (the shard's
// retirer/worker) calls Install and Advance; any number of readers call
// Acquire/Get/Release concurrently.
type Store struct {
	chains sync.Map // key uint64 -> *version (chain head)

	// watermark is the highest LSN with every write <= it installed.
	watermark atomic.Uint64

	// slots holds acquired snapshot LSNs biased by +1 (0 = free), so a
	// snapshot at LSN 0 is distinguishable from an empty slot.
	slots [snapSlots]atomic.Uint64

	live     atomic.Int64  // versions currently reachable
	reclaims atomic.Uint64 // versions trimmed as unreachable
}

// Snapshot is an acquired read point. The zero value is invalid; obtain one
// from Acquire and pair it with Release.
type Snapshot struct {
	LSN  uint64
	slot int
}

// Acquire registers a snapshot at the current watermark. It returns ok=false
// when every slot is taken — the caller must then use its queued read path.
//
// Registration is validated: the slot is claimed with the loaded watermark,
// then the watermark is re-read. If it still matches, any concurrent trim
// either saw the slot (and protected it) or computed its reachability
// bound from a watermark <= ours — both keep every version this snapshot
// can reach. If the watermark moved, retry with the new value.
func (s *Store) Acquire() (Snapshot, bool) {
	for i := 0; i < snapSlots; i++ {
		if s.slots[i].Load() != 0 {
			continue
		}
		for {
			w := s.watermark.Load()
			if !s.slots[i].CompareAndSwap(0, w+1) {
				break // slot stolen; scan on
			}
			if s.watermark.Load() == w {
				return Snapshot{LSN: w, slot: i}, true
			}
			s.slots[i].Store(0) // stale registration; retry at new watermark
		}
	}
	return Snapshot{}, false
}

// Release frees the snapshot's slot.
func (s *Store) Release(snap Snapshot) {
	s.slots[snap.slot].Store(0)
}

// Get reads key as of the snapshot: the newest version with lsn <= snap.LSN.
// ok=false means the key did not exist at that point (never written, or its
// visible version is a tombstone).
func (s *Store) Get(snap Snapshot, key uint64) (val uint64, ok bool) {
	h, found := s.chains.Load(key)
	if !found {
		return 0, false
	}
	head := h.(*version)
	for v := head; v != nil; v = v.next.Load() {
		if v.lsn <= snap.LSN {
			if v.del {
				// Lazy tombstone reclamation: a head tombstone no snapshot
				// can look past makes the whole chain dead weight — every
				// live or future snapshot resolves this key to "absent", so
				// drop it (racing publishers re-Store safely).
				if v == head && head.lsn <= s.minActive() && s.chains.CompareAndDelete(key, h) {
					var n int64
					for d := head; d != nil; d = d.next.Load() {
						n++
					}
					s.live.Add(-n)
					s.reclaims.Add(uint64(n))
				}
				return 0, false
			}
			return v.val, true
		}
	}
	return 0, false
}

// Watermark returns the store's current published watermark.
func (s *Store) Watermark() uint64 { return s.watermark.Load() }

// minActive returns the reclamation floor: the oldest snapshot any reader
// may hold. Versions are kept if a snapshot at >= minActive could need them
// (the newest version with lsn <= minActive, plus everything newer).
func (s *Store) minActive() uint64 {
	m := s.watermark.Load()
	for i := range s.slots {
		if v := s.slots[i].Load(); v != 0 && v-1 < m {
			m = v - 1
		}
	}
	return m
}

// Install publishes one committed write at lsn as the new chain head and
// trims the suffix no live snapshot can reach. The caller (the shard's
// single publisher) must install writes in non-decreasing LSN order and
// call Advance once every write <= some LSN is installed.
func (s *Store) Install(key, val uint64, del bool, lsn uint64) {
	nv := &version{lsn: lsn, val: val, del: del}
	if h, found := s.chains.Load(key); found {
		nv.next.Store(h.(*version))
	}
	s.chains.Store(key, nv)
	s.live.Add(1)
	s.trim(key, nv)
}

// trim unlinks versions older than the newest one visible at minActive.
// Unlinked nodes stay valid for readers already holding pointers into the
// chain (the GC reclaims them once the last such reader drops them) — the
// trim only guarantees no NEW snapshot can reach them.
func (s *Store) trim(key uint64, head *version) {
	floor := s.minActive()
	// Find the newest version with lsn <= floor; everything after it dies.
	keep := head
	for keep != nil && keep.lsn > floor {
		keep = keep.next.Load()
	}
	if keep == nil {
		return
	}
	var n int64
	for v := keep.next.Load(); v != nil; v = v.next.Load() {
		n++
	}
	if n > 0 {
		keep.next.Store(nil)
		s.live.Add(-n)
		s.reclaims.Add(uint64(n))
	}
	// A tombstone that is both the head and at/below the floor is dead
	// weight: no snapshot can see anything but "absent".
	if keep == head && head.del {
		s.chains.CompareAndDelete(key, head)
		s.live.Add(-1)
		s.reclaims.Add(1)
	}
}

// Advance publishes watermark lsn: every write with LSN <= lsn must already
// be installed. Single-publisher; lsn must be non-decreasing.
func (s *Store) Advance(lsn uint64) {
	if lsn > s.watermark.Load() {
		s.watermark.Store(lsn)
	}
}

// Seed installs key=val as a base version at LSN base, replacing any
// existing chain. Used to (re)build a store from a recovered or migrated
// hash map while the shard is quiesced.
func (s *Store) Seed(key, val uint64, base uint64) {
	v := &version{lsn: base, val: val}
	if _, loaded := s.chains.Swap(key, v); loaded {
		s.reclaims.Add(1)
	} else {
		s.live.Add(1)
	}
}

// Reset drops every chain and sets the watermark to base. Only safe while
// the shard is quiesced (no concurrent readers or publisher).
func (s *Store) Reset(base uint64) {
	s.chains.Range(func(k, _ any) bool {
		s.chains.Delete(k)
		return true
	})
	s.live.Store(0)
	s.watermark.Store(base)
}

// Live returns the number of reachable versions.
func (s *Store) Live() int64 { return s.live.Load() }

// Reclaims returns the number of versions trimmed so far.
func (s *Store) Reclaims() uint64 { return s.reclaims.Load() }

// Watermark is a process-wide published-LSN high-water mark with waiters —
// the replica's GETAT gate and the primary's LSN token source. Load is a
// plain atomic read (it sits on the snapshot-read fast path); the mutex
// only serializes advancing and the wake channel. The channel exists only
// once WaitChan has handed it out: an advance with no waiter since the last
// one closes nothing and allocates nothing (every committed batch advances).
type Watermark struct {
	v    atomic.Uint64
	mu   sync.Mutex
	wake chan struct{}
}

// NewWatermark returns a watermark at 0.
func NewWatermark() *Watermark { return &Watermark{} }

// Load returns the current value.
func (w *Watermark) Load() uint64 { return w.v.Load() }

// AdvanceTo raises the watermark to lsn (no-op if not higher) and wakes
// every waiter.
func (w *Watermark) AdvanceTo(lsn uint64) {
	if lsn <= w.v.Load() {
		return
	}
	w.mu.Lock()
	if lsn > w.v.Load() {
		w.v.Store(lsn)
		if w.wake != nil {
			close(w.wake)
			w.wake = nil
		}
	}
	w.mu.Unlock()
}

// WaitChan returns the current value and a channel closed at the next
// advance — the building block for callers composing their own timeouts.
// The value is read with the channel under the lock, so a waiter that
// sees a stale value is guaranteed a wake on the very next advance.
func (w *Watermark) WaitChan() (uint64, <-chan struct{}) {
	w.mu.Lock()
	if w.wake == nil {
		w.wake = make(chan struct{})
	}
	v, wake := w.v.Load(), w.wake
	w.mu.Unlock()
	return v, wake
}

// Wait blocks until the watermark reaches lsn or stop is closed (or is nil
// and the watermark already suffices). Returns the value observed and
// whether the target was reached.
func (w *Watermark) Wait(lsn uint64, stop <-chan struct{}) (uint64, bool) {
	for {
		v, wake := w.WaitChan()
		if v >= lsn {
			return v, true
		}
		select {
		case <-wake:
		case <-stop:
			return v, false
		}
	}
}
