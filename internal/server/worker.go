package server

import (
	"sync"
	"sync/atomic"

	"specpmt"
	"specpmt/internal/mvcc"
	"specpmt/internal/obs"
	"specpmt/pds/hashmap"
)

// shard is one engine thread of the pool, the hash-map shard it owns, and
// the FIFO of single-shard jobs waiting to commit on it. There is no shard
// goroutine: the handler that queued a job commits it (commitThrough), under
// the combiner lock comb. Whoever holds comb owns th, m, batch, wbuf, one and
// installMax, and publishes for the shard; a cross-shard transaction, a
// Freeze or a Crash holds the combs of every shard it touches.
type shard struct {
	id   int
	comb sync.Mutex
	th   *specpmt.Thread
	m    *hashmap.Map
	// qmu guards queue; it is held only to append or to take a batch.
	qmu   sync.Mutex
	queue []*job
	// batch is the combiner's current batch; wbuf stages a batch's effective
	// writes for the Replicator; one avoids a slice allocation when
	// publishing a lone job. All three are reused across batches.
	batch []*job
	wbuf  []RepWrite
	one   [1]*job

	// MVCC snapshot reads (mvcc.go). ver is the shard's version store, read
	// lock-free by the fast path and swapped whole on rebuilds; verStale
	// marks it behind the map (an unstamped internal write landed) — the
	// fast path falls back and the combiner rebuilds the store at the end
	// of a commit turn that leaves the queue empty. installMax is the
	// highest LSN installed so far.
	ver        atomic.Pointer[mvcc.Store]
	verStale   atomic.Bool
	installMax uint64

	// Published snapshot for STATS — written under comb, read by connection
	// goroutines under mu.
	mu      sync.Mutex
	stats   specpmt.Counters
	keys    uint64
	modelNs int64

	// Wall-clock instruments, scraped by the metrics collector: commit
	// latency, batch size, and queue depth at batch start. track is the
	// shard's span-recorder track (0 when spans are off).
	commitNs   obs.Histogram
	batchJobs  obs.Histogram
	queueDepth obs.Histogram
	track      int32
}

func newShard(pool *specpmt.ThreadedPool, id int) (*shard, error) {
	th := pool.Thread(id)
	m, err := hashmap.New(th, id)
	if err != nil {
		return nil, err
	}
	return &shard{id: id, th: th, m: m}, nil
}

// publish refreshes the shard's STATS snapshot (comb held).
func (sh *shard) publish() {
	stats, keys, modelNs := sh.th.Counters(), sh.m.Len(), sh.th.Now()
	sh.mu.Lock()
	sh.stats, sh.keys, sh.modelNs = stats, keys, modelNs
	sh.mu.Unlock()
}

// published reads the last snapshot (any goroutine).
func (sh *shard) published() (specpmt.Counters, uint64, int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.stats, sh.keys, sh.modelNs
}

// enqueue appends a single-shard job to the shard's queue. The caller must
// then commitThrough it: a queued job has no other committer it can count on.
func (sh *shard) enqueue(j *job) {
	j.sh = sh
	sh.qmu.Lock()
	sh.queue = append(sh.queue, j)
	sh.qmu.Unlock()
}

// queued returns how many jobs wait in the shard's queue.
func (sh *shard) queued() int {
	sh.qmu.Lock()
	defer sh.qmu.Unlock()
	return len(sh.queue)
}

// job is one request's rendezvous between the goroutine that queued it and
// the combiner that commits it: ops in, results + modeled nanoseconds out,
// then done. Connections reuse their job across requests.
type job struct {
	ops     []Op
	results []Result
	modelNs int64
	startNs int64
	// Wall-clock stamps on the span recorder's clock — enqueue, execution
	// start, and the commit window — populated only when the server takes
	// per-request stamps (spans or slow-op log on).
	wallEnq, wallExec, wallCommit0, wallCommit1 int64
	// sh is the shard a single-shard job is queued on; done is set once its
	// results are final, and the committer touches the job no more.
	sh   *shard
	done atomic.Bool
	// shardBuf backs the job's shard set, so running it allocates nothing
	// for a single-shard request.
	shardBuf [specpmt.RootSlots]int
	// extra, when non-nil, runs inside the job's transaction after its ops
	// — replication replay stamps applied-LSN cells with it.
	extra func(specpmt.Tx)
	// internal marks jobs originated by Apply rather than a client
	// connection; their effects are not re-published to the Replicator.
	internal bool
	// pubLSN is an internal job's publication LSN (ApplyAt): its effective
	// writes install into the MVCC version stores at this stamp. 0 on an
	// internal job with writes marks the touched stores stale instead.
	pubLSN uint64
}

func (j *job) reset() {
	j.ops = j.ops[:0]
	j.results = j.results[:0]
	j.modelNs = 0
	j.wallEnq, j.wallExec, j.wallCommit0, j.wallCommit1 = 0, 0, 0, 0
	j.sh = nil
	j.done.Store(false)
	j.extra = nil
	j.internal = false
	j.pubLSN = 0
}

func (j *job) finish() { j.done.Store(true) }

// commitThrough returns once j, queued on j.sh, has committed. It takes the
// shard's combiner lock and commits one batch per hold — the oldest queued
// jobs, whoever queued them — until j's batch is done; a job another
// combiner took is done by the time the lock comes free. Coalescing comes
// from overlap alone (DESIGN.md §4d): a window queues all its jobs before
// its first commitThrough, and jobs queued while a combiner commits form the
// next batch. Nobody waits for a batch to fill, and nobody spins.
func (s *Server) commitThrough(j *job) {
	for !j.done.Load() {
		j.sh.comb.Lock()
		if !j.done.Load() {
			s.commitBatch(j.sh)
		}
		j.sh.comb.Unlock()
	}
}

// commitBatch commits the up to MaxBatch oldest queued jobs as one group
// commit and returns how many it took (comb held).
func (s *Server) commitBatch(sh *shard) int {
	sh.qmu.Lock()
	n := min(len(sh.queue), s.cfg.MaxBatch)
	sh.batch = append(sh.batch[:0], sh.queue[:n]...)
	rest := copy(sh.queue, sh.queue[n:])
	clear(sh.queue[rest:])
	sh.queue = sh.queue[:rest]
	sh.qmu.Unlock()
	if n > 0 {
		sh.queueDepth.Observe(int64(rest))
		s.runBatch(sh, sh.batch)
	}
	s.rebuildIfIdle(sh)
	return n
}

// rebuildIfIdle ends a commit turn (comb held): an unstamped write (migration
// apply, bootstrap batch) that left the version store behind the map is
// caught up once the queue is empty, so the snapshot fast path comes back.
func (s *Server) rebuildIfIdle(sh *shard) {
	if s.mvccOn && sh.verStale.Load() && sh.queued() == 0 {
		s.rebuildStore(sh)
	}
}

// lockShards takes the combiner locks of ids (ascending) and commits what
// each has queued, so everything queued ahead commits first. Jobs queued
// after the lock is taken wait for its release: their owners commit them.
func (s *Server) lockShards(ids []int) {
	for _, id := range ids {
		sh := s.shards[id]
		sh.comb.Lock()
		for n := sh.queued(); n > 0; {
			n -= s.commitBatch(sh)
		}
	}
}

func (s *Server) unlockShards(ids []int) {
	for _, id := range ids {
		s.shards[id].comb.Unlock()
	}
}

// runBatch executes a batch of single-shard jobs. Reads-only batches skip
// the transaction entirely; anything with a write becomes ONE transaction —
// the group commit — so its single fence amortizes over every job.
func (s *Server) runBatch(sh *shard, batch []*job) {
	var wall0 int64
	if s.stamps {
		wall0 = s.nowNs()
	}
	sh.batchJobs.Observe(int64(len(batch)))
	readOnly := true
	for _, j := range batch {
		if j.extra != nil {
			readOnly = false
		}
		for _, op := range j.ops {
			if op.Kind != OpGet {
				readOnly = false
			}
		}
	}
	if readOnly {
		for _, j := range batch {
			if s.stamps {
				j.wallExec = s.nowNs()
			}
			j.startNs = sh.th.Now()
			j.results = j.results[:0]
			for _, op := range j.ops {
				v, ok := sh.m.Get(op.Key)
				j.results = appendGet(j.results, v, ok)
			}
		}
		end := sh.th.Now()
		if s.stamps {
			wallEnd := s.nowNs()
			for _, j := range batch {
				j.wallCommit0, j.wallCommit1 = wallEnd, wallEnd
			}
			if s.rec != nil {
				s.rec.Record(obs.Span{Kind: obs.SpanBatch, Track: sh.track,
					Start: wall0, End: wallEnd, A: uint64(len(batch)), B: opsIn(batch)})
			}
		}
		s.finishBatch(sh, batch, end)
		return
	}

	// Grow outside the transaction so the batch's inserts and migration
	// steps have room: the whole batch commits as ONE transaction, so the
	// table needs headroom for every insert in it, not just the next one.
	// An allocation failure surfaces as ErrFull below.
	var puts uint64
	for _, j := range batch {
		puts += putCount(j.ops)
	}
	if err := sh.m.EnsureHeadroom(puts); err != nil {
		s.log.Warn("shard grow failed", "shard", sh.id, "err", err)
	}
	tx := sh.th.Begin()
	ok := true
	for _, j := range batch {
		if s.stamps {
			j.wallExec = s.nowNs()
		}
		j.startNs = sh.th.Now()
		j.results = j.results[:0]
		if !applyOps(tx, sh.m, j) {
			ok = false
			break
		}
		if j.extra != nil {
			j.extra(tx)
		}
	}
	var commit0, commit1 int64
	if ok {
		commit0 = s.nowNs()
		if err := tx.Commit(); err != nil {
			s.log.Warn("shard commit failed", "shard", sh.id, "err", err)
			ok = false
		}
		commit1 = s.nowNs()
	} else {
		tx.Abort()
	}
	if !ok {
		sh.m.DiscardRetired()
		// Degrade: run each job in its own transaction so one oversized or
		// unlucky request cannot fail its whole batch.
		for _, j := range batch {
			s.runSingle(sh, j)
		}
		sh.publish()
		return
	}
	sh.commitNs.Observe(commit1 - commit0)
	sh.m.ReleaseRetired()
	end := sh.th.Now()
	s.batches.Add(1)
	s.batchedOps.Add(uint64(len(batch)))
	if s.stamps {
		for _, j := range batch {
			j.wallCommit0, j.wallCommit1 = commit0, commit1
		}
		if s.rec != nil {
			s.rec.Record(
				obs.Span{Kind: obs.SpanBatch, Track: sh.track, Start: wall0,
					End: s.nowNs(), A: uint64(len(batch)), B: opsIn(batch)},
				obs.Span{Kind: obs.SpanCommit, Track: sh.track, Start: commit0, End: commit1},
			)
		}
	}
	// The whole batch committed as one transaction; ship it as one
	// replication record, and in synchronous mode hold every client in the
	// batch until the record is acked — one network round trip amortized
	// the same way the commit fence was.
	wait := s.publishBatch(sh, batch)
	if wait != nil {
		wait()
		if s.rec != nil {
			s.rec.Record(obs.Span{Kind: obs.SpanReplWait, Track: sh.track,
				Start: commit1, End: s.nowNs()})
		}
	}
	s.finishBatch(sh, batch, end)
}

// opsIn counts the operations across a batch's jobs.
func opsIn(batch []*job) uint64 {
	var n uint64
	for _, j := range batch {
		n += uint64(len(j.ops))
	}
	return n
}

// publishBatch is the one publish point after a commit: the batch's
// external (client) writes ship to the Replicator as one record whose LSN
// stamps them — or take one from the standalone LSN clock when
// unreplicated — and then every job's effective writes (internal ones
// included, at their own pubLSN) install into the MVCC version stores
// before any reply is released. Returns the sync-mode wait (nil when async
// or unreplicated).
func (s *Server) publishBatch(sh *shard, batch []*job) func() {
	sh.wbuf = sh.wbuf[:0]
	for _, j := range batch {
		if !j.internal {
			sh.wbuf = s.appendWrites(sh.wbuf, j)
		}
	}
	var wait func()
	var extLSN uint64
	if len(sh.wbuf) > 0 {
		if rep := s.replicator(); rep != nil {
			extLSN, wait = rep.Publish(sh.wbuf)
			s.maxLSNClock(extLSN)
		} else {
			extLSN = s.lsnClock.Add(1)
		}
	}
	s.installBatch(batch, extLSN)
	return wait
}

// appendWrites appends j's effective writes — the state changes its
// committed results imply — in op order.
func (s *Server) appendWrites(dst []RepWrite, j *job) []RepWrite {
	for i, op := range j.ops {
		if i >= len(j.results) {
			break
		}
		r := j.results[i]
		switch op.Kind {
		case OpSet:
			if r.Status == StatusOK {
				dst = append(dst, RepWrite{Shard: s.shardOf(op.Key), Key: op.Key, Val: op.Arg1})
			}
		case OpDel:
			if r.Status == StatusOK {
				dst = append(dst, RepWrite{Shard: s.shardOf(op.Key), Del: true, Key: op.Key})
			}
		case OpCAS:
			if r.Status == StatusOK {
				dst = append(dst, RepWrite{Shard: s.shardOf(op.Key), Key: op.Key, Val: op.Arg2})
			}
		}
	}
	return dst
}

// finishBatch stamps modeled latencies, publishes counters, and releases
// the waiting connections.
func (s *Server) finishBatch(sh *shard, batch []*job, endNs int64) {
	sh.publish()
	for _, j := range batch {
		j.modelNs = endNs - j.startNs
		j.finish()
	}
}

// runSingle executes one job in its own transaction and publishes it — the
// batch-failure fallback.
func (s *Server) runSingle(sh *shard, j *job) {
	if err := sh.m.EnsureHeadroom(putCount(j.ops)); err != nil {
		s.log.Warn("shard grow failed", "shard", sh.id, "err", err)
	}
	if s.stamps {
		j.wallExec = s.nowNs()
	}
	j.startNs = sh.th.Now()
	j.results = j.results[:0]
	tx := sh.th.Begin()
	committed := false
	if !applyOps(tx, sh.m, j) {
		tx.Abort()
		sh.m.DiscardRetired()
		j.results = j.results[:0]
		for range j.ops {
			j.results = append(j.results, Result{Status: StatusErr})
		}
	} else {
		if j.extra != nil {
			j.extra(tx)
		}
		commit0 := s.nowNs()
		if err := tx.Commit(); err != nil {
			s.log.Warn("shard commit failed", "shard", sh.id, "err", err)
			sh.m.DiscardRetired()
			j.results = j.results[:0]
			for range j.ops {
				j.results = append(j.results, Result{Status: StatusErr})
			}
		} else {
			commit1 := s.nowNs()
			sh.commitNs.Observe(commit1 - commit0)
			if s.stamps {
				j.wallCommit0, j.wallCommit1 = commit0, commit1
			}
			sh.m.ReleaseRetired()
			committed = true
		}
	}
	if s.stamps && j.wallCommit1 == 0 {
		// Failed paths still need a coherent phase breakdown for the
		// slow-op log: close the commit window at "now".
		now := s.nowNs()
		j.wallCommit0, j.wallCommit1 = now, now
	}
	if committed {
		sh.one[0] = j
		if wait := s.publishBatch(sh, sh.one[:]); wait != nil {
			wait()
		}
	}
	j.modelNs = sh.th.Now() - j.startNs
	j.finish()
}

// runMulti runs a cross-shard transaction on the calling goroutine: it takes
// the involved shards' combiner locks in ascending order (which rules out
// circular waits), commits what each has queued ahead, applies every
// operation in ONE transaction on the lowest shard's engine thread, and
// publishes before unlocking, so the publish follows each shard's earlier
// LSNs. A synchronous-replication wait comes after the unlock: the record's
// position in the log is already fixed.
func (s *Server) runMulti(j *job, ids []int) {
	s.lockShards(ids)
	sh := s.shards[ids[0]]
	if s.stamps {
		j.wallExec = s.nowNs()
	}
	// Grow every involved shard to fit its share of the transaction's
	// inserts — the cross-shard analogue of runBatch's headroom pass (a
	// large MULTI or replicated snapshot batch commits as one transaction).
	for _, id := range ids {
		var puts uint64
		for _, op := range j.ops {
			if (op.Kind == OpSet || op.Kind == OpCAS) && s.shardOf(op.Key) == id {
				puts++
			}
		}
		if err := s.shards[id].m.EnsureHeadroom(puts); err != nil {
			s.log.Warn("shard grow failed", "shard", id, "err", err)
		}
	}
	j.startNs = sh.th.Now()
	j.results = j.results[:0]
	tx := sh.th.Begin()
	ok := true
	for _, op := range j.ops {
		if !applyOp(tx, s.shards[s.shardOf(op.Key)].m, op, &j.results) {
			ok = false
			break
		}
	}
	var commit0, commit1 int64
	if ok {
		if j.extra != nil {
			j.extra(tx)
		}
		commit0 = s.nowNs()
		if err := tx.Commit(); err != nil {
			s.log.Warn("multi commit failed", "err", err)
			ok = false
		}
		commit1 = s.nowNs()
	} else {
		tx.Abort()
	}
	for _, id := range ids {
		if ok {
			s.shards[id].m.ReleaseRetired()
		} else {
			s.shards[id].m.DiscardRetired()
		}
	}
	if !ok {
		j.results = j.results[:0]
		for range j.ops {
			j.results = append(j.results, Result{Status: StatusErr})
		}
	}
	var wait func()
	if ok {
		sh.commitNs.Observe(commit1 - commit0)
		sh.one[0] = j
		wait = s.publishBatch(sh, sh.one[:])
	}
	if s.stamps {
		if commit1 == 0 {
			commit0 = s.nowNs()
			commit1 = commit0
		}
		j.wallCommit0, j.wallCommit1 = commit0, commit1
		if s.rec != nil {
			s.rec.Record(obs.Span{Kind: obs.SpanCommit, Track: sh.track,
				Start: commit0, End: commit1})
		}
	}
	j.modelNs = sh.th.Now() - j.startNs
	for _, id := range ids {
		t := s.shards[id]
		t.publish()
		s.rebuildIfIdle(t)
	}
	s.unlockShards(ids)
	if wait != nil {
		wait()
	}
	j.finish()
}

// applyOps applies every operation of j inside tx, appending results.
// Returns false on ErrFull (caller aborts and falls back).
// putCount returns how many ops may insert a key: every SET, and every CAS
// (which puts on a value match — counted unconditionally as headroom).
func putCount(ops []Op) uint64 {
	var n uint64
	for _, op := range ops {
		if op.Kind == OpSet || op.Kind == OpCAS {
			n++
		}
	}
	return n
}

func applyOps(tx specpmt.Tx, m *hashmap.Map, j *job) bool {
	for _, op := range j.ops {
		if !applyOp(tx, m, op, &j.results) {
			return false
		}
	}
	return true
}

func applyOp(tx specpmt.Tx, m *hashmap.Map, op Op, results *[]Result) bool {
	switch op.Kind {
	case OpGet:
		v, ok := m.TxGet(tx, op.Key)
		*results = appendGet(*results, v, ok)
	case OpSet:
		if err := m.TxPut(tx, op.Key, op.Arg1); err != nil {
			return false
		}
		*results = append(*results, Result{Status: StatusOK})
	case OpDel:
		found, err := m.TxDelete(tx, op.Key)
		if err != nil {
			return false
		}
		if found {
			*results = append(*results, Result{Status: StatusOK})
		} else {
			*results = append(*results, Result{Status: StatusNotFound})
		}
	case OpCAS:
		cur, ok := m.TxGet(tx, op.Key)
		switch {
		case !ok:
			*results = append(*results, Result{Status: StatusNotFound})
		case cur != op.Arg1:
			*results = append(*results, Result{Status: StatusConflict, Val: cur})
		default:
			if err := m.TxPut(tx, op.Key, op.Arg2); err != nil {
				return false
			}
			*results = append(*results, Result{Status: StatusOK})
		}
	}
	return true
}

func appendGet(results []Result, v uint64, ok bool) []Result {
	if ok {
		return append(results, Result{Status: StatusValue, Val: v})
	}
	return append(results, Result{Status: StatusNotFound})
}
