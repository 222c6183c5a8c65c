package server

import (
	"time"

	"specpmt"
	"specpmt/internal/mvcc"
)

// MVCC snapshot reads: every shard owns a volatile mvcc.Store of versioned
// values. The publish point after each commit (publishBatch) installs the
// committed transaction's effective writes at its replication LSN and
// advances the shard's watermark, so a snapshot acquired at the watermark
// sees exactly the published prefix of the commit order — never a write
// whose transaction has not committed. GETs and single-shard
// read-only MULTIs are then served lock-free from the snapshot without
// entering the shard worker queue. Cross-shard read-only MULTIs stay on the
// queued path: per-shard watermarks advance independently, so no pair of
// single-shard snapshots is guaranteed to cut a cross-shard transaction
// atomically (see DESIGN.md).
//
// Writes that reach a store without an LSN (cluster-migration applies,
// replica bootstrap batches) mark it stale: the fast path falls back to the
// queued path and the worker rebuilds the store from the hash map at the
// next idle moment, preserving the watermark.

// getAtTimeout bounds how long a GETAT parks waiting for the published LSN
// to reach its token before answering ERR — a replica that far behind
// should be retried elsewhere.
const getAtTimeout = 5 * time.Second

// snapStore returns shard id's version store when the snapshot fast path
// may serve from it (MVCC on and the store not stale).
func (s *Server) snapStore(id int) *mvcc.Store {
	if !s.mvccOn {
		return nil
	}
	sh := s.shards[id]
	if sh.verStale.Load() {
		return nil
	}
	return sh.ver.Load()
}

// serveSnapshot serves a set of GET ops from one consistent snapshot of
// shard id, appending to results. ok=false means the fast path cannot serve
// (MVCC off, store stale, or snapshot slots exhausted) and the caller must
// use the queued path. On success it returns the snapshot LSN.
func (s *Server) serveSnapshot(id int, ops []Op, results []Result) ([]Result, uint64, bool) {
	st := s.snapStore(id)
	if st == nil {
		return results, 0, false
	}
	snap, ok := st.Acquire()
	if !ok {
		s.snapFallbacks.Add(uint64(len(ops)))
		return results, 0, false
	}
	for _, op := range ops {
		v, found := st.Get(snap, op.Key)
		results = appendGet(results, v, found)
	}
	st.Release(snap)
	if pub := s.pub.Load(); pub > snap.LSN {
		s.snapStale.Observe(int64(pub - snap.LSN))
	} else {
		s.snapStale.Observe(0)
	}
	s.snapReads.Add(uint64(len(ops)))
	return results, snap.LSN, true
}

// PublishedLSN returns the server's published-LSN watermark — the LSN token
// handed to clients for read-your-writes GETAT reads (on this server or on
// a replica tailing it).
func (s *Server) PublishedLSN() uint64 { return s.pub.Load() }

// AdvancePublished raises the published-LSN watermark (and the standalone
// LSN clock) to lsn — replication layers call it when their durable cursor
// already proves everything <= lsn is applied.
func (s *Server) AdvancePublished(lsn uint64) {
	s.pub.AdvanceTo(lsn)
	s.maxLSNClock(lsn)
}

// maxLSNClock raises the standalone LSN clock to at least lsn, so LSNs
// minted after a replicator detaches (promotion) or for unreplicated
// batches never collide with ones already published.
func (s *Server) maxLSNClock(lsn uint64) {
	for {
		cur := s.lsnClock.Load()
		if lsn <= cur || s.lsnClock.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// waitPublished parks until the published LSN reaches token, bounded by
// getAtTimeout and shutdown. Returns the published value observed and
// whether the token was reached.
func (s *Server) waitPublished(token uint64) (uint64, bool) {
	v, wake := s.pub.WaitChan()
	if v >= token {
		return v, true
	}
	timer := time.NewTimer(getAtTimeout)
	defer timer.Stop()
	for v < token {
		select {
		case <-wake:
		case <-s.quit:
			return v, false
		case <-timer.C:
			return v, false
		}
		v, wake = s.pub.WaitChan()
	}
	return v, true
}

// installBatch installs every job's effective writes into the shard version
// stores at their publication LSNs and advances the per-shard and global
// watermarks. extLSN is the LSN the batch's external (client) writes
// published at (0 when there were none); internal jobs carry their own LSN
// in pubLSN (0 marks an unstamped internal write — migration applies,
// bootstrap batches — which makes the store stale instead of installing).
// Runs on the goroutine that committed the batch, after commit and before
// replies release, so read-your-writes holds the moment a client
// sees its write acknowledged.
func (s *Server) installBatch(batch []*job, extLSN uint64) {
	var maxLSN uint64
	if s.mvccOn {
		var smax [specpmt.RootSlots]uint64
		var touched uint64
		for _, j := range batch {
			lsn := extLSN
			if j.internal {
				lsn = j.pubLSN
			}
			if lsn > maxLSN {
				maxLSN = lsn
			}
			for i, op := range j.ops {
				if i >= len(j.results) {
					break
				}
				if j.results[i].Status != StatusOK {
					continue // misses, conflicts, and errors change nothing
				}
				var val uint64
				del := false
				switch op.Kind {
				case OpSet:
					val = op.Arg1
				case OpDel:
					del = true
				case OpCAS:
					val = op.Arg2
				default:
					continue
				}
				t := s.shards[s.shardOf(op.Key)]
				st := t.ver.Load()
				if lsn == 0 || st == nil || lsn < t.installMax {
					t.verStale.Store(true)
					continue
				}
				t.installMax = lsn
				st.Install(op.Key, val, del, lsn)
				touched |= 1 << uint(t.id)
				if lsn > smax[t.id] {
					smax[t.id] = lsn
				}
			}
		}
		for id := range s.shards {
			if touched&(1<<uint(id)) != 0 {
				if st := s.shards[id].ver.Load(); st != nil {
					st.Advance(smax[id])
				}
			}
		}
	} else {
		for _, j := range batch {
			if j.internal && j.pubLSN > maxLSN {
				maxLSN = j.pubLSN
			}
		}
		if extLSN > maxLSN {
			maxLSN = extLSN
		}
	}
	if maxLSN > 0 {
		s.pub.AdvanceTo(maxLSN)
	}
}

// rebuildStore rebuilds one shard's version store from its hash map: every
// surviving pair reseeds as a base version at LSN 0, the watermark is
// preserved (a snapshot at the old watermark reads the base state, which by
// construction includes every write published up to it), and the stale flag
// clears. Callers must hold the shard quiesced: its worker between jobs, a
// Freeze callback, or the post-Crash window.
func (s *Server) rebuildStore(sh *shard) {
	if !s.mvccOn {
		return
	}
	ns := &mvcc.Store{}
	sh.m.Range(func(k, v uint64) bool {
		ns.Seed(k, v, 0)
		return true
	})
	if old := sh.ver.Load(); old != nil {
		ns.Advance(old.Watermark())
	}
	sh.ver.Store(ns)
	sh.verStale.Store(false)
}

// ResetMVCC rebuilds every shard's version store from the hash maps under a
// Freeze, with all watermarks (per-shard and published) set to base — the
// replica's post-bootstrap reset: the whole store is the state at the
// snapshot LSN, so that LSN is the new visibility floor.
func (s *Server) ResetMVCC(base uint64) error {
	if s.mvccOn {
		err := s.Freeze(func() {
			for _, sh := range s.shards {
				ns := &mvcc.Store{}
				sh.m.Range(func(k, v uint64) bool {
					ns.Seed(k, v, base)
					return true
				})
				ns.Advance(base)
				sh.ver.Store(ns)
				sh.verStale.Store(false)
				sh.installMax = base
			}
		})
		if err != nil {
			return err
		}
	}
	s.AdvancePublished(base)
	return nil
}

// MVCCEnabled reports whether the snapshot-read subsystem is on.
func (s *Server) MVCCEnabled() bool { return s.mvccOn }

// SnapshotReads returns the count of GETs served from the snapshot fast
// path (tests and smoke checks).
func (s *Server) SnapshotReads() uint64 { return s.snapReads.Load() }
