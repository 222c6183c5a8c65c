package server

import (
	"runtime"
	"sync"
	"sync/atomic"

	"specpmt"
	"specpmt/internal/mvcc"
	"specpmt/internal/obs"
	"specpmt/pds/hashmap"
)

// shard is one worker's world: an engine thread of the pool, the hash-map
// shard it owns, and the job queue connections route into. Everything
// reachable from th and m is touched only by the worker goroutine — or,
// during a cross-shard transaction, by the executor worker while this one
// is parked at the barrier.
type shard struct {
	id   int
	th   *specpmt.Thread
	m    *hashmap.Map
	jobs chan *job
	// wbuf stages a batch's effective writes for the Replicator (worker
	// goroutine only; reused across batches); one avoids a slice allocation
	// when publishing a lone job.
	wbuf []RepWrite
	one  [1]*job

	// MVCC snapshot reads (mvcc.go). ver is the shard's version store, read
	// lock-free by the fast path and swapped whole on rebuilds; verStale
	// marks it behind the map (an unstamped internal write landed) — the
	// fast path falls back and the worker rebuilds at the next idle moment.
	// installMax is the highest LSN installed so far, touched only by the
	// goroutine executing the shard's commits (its worker, or the executor
	// of a cross-shard transaction while this worker is parked).
	ver        atomic.Pointer[mvcc.Store]
	verStale   atomic.Bool
	installMax uint64

	// Published snapshot for STATS — written by the worker, read by
	// connection goroutines under mu.
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

func newShard(pool *specpmt.ThreadedPool, id, maxBatch int) (*shard, error) {
	th := pool.Thread(id)
	m, err := hashmap.New(th, id)
	if err != nil {
		return nil, err
	}
	queue := 4 * maxBatch
	if queue < 64 {
		queue = 64
	}
	return &shard{id: id, th: th, m: m, jobs: make(chan *job, queue)}, nil
}

// publish refreshes the shard's STATS snapshot (worker goroutine only).
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

// job is one request's rendezvous between a connection goroutine and the
// worker(s): ops in, results + modeled nanoseconds out, one token on done.
// Connections reuse their job across requests.
type job struct {
	ops     []Op
	results []Result
	modelNs int64
	startNs int64
	// Wall-clock stamps on the span recorder's clock — enqueue, execution
	// start, and the commit window — populated only when the server takes
	// per-request stamps (spans or slow-op log on).
	wallEnq, wallExec, wallCommit0, wallCommit1 int64
	multi                                       *multiJob // nil for single-shard jobs
	done                                        chan struct{}
	// extra, when non-nil, runs inside the job's transaction after its ops
	// — replication replay stamps applied-LSN cells with it.
	extra func(specpmt.Tx)
	// frozen, when non-nil, marks a Freeze barrier: the executor runs it
	// with every worker parked instead of applying ops.
	frozen func()
	// internal marks jobs originated by Apply/Freeze rather than a client
	// connection; their effects are not re-published to the Replicator.
	internal bool
	// pubLSN is an internal job's publication LSN (ApplyAt): its effective
	// writes install into the MVCC version stores at this stamp. 0 on an
	// internal job with writes marks the touched stores stale instead.
	pubLSN uint64
}

func newJob() *job { return &job{done: make(chan struct{}, 1)} }

func (j *job) reset() {
	j.ops = j.ops[:0]
	j.results = j.results[:0]
	j.modelNs = 0
	j.wallEnq, j.wallExec, j.wallCommit0, j.wallCommit1 = 0, 0, 0, 0
	j.multi = nil
	j.extra = nil
	j.frozen = nil
	j.internal = false
	j.pubLSN = 0
}

func (j *job) finish() { j.done <- struct{}{} }

// multiJob coordinates a cross-shard transaction: every involved worker
// receives the job; the lowest involved shard executes it once the others
// have parked, then releases them.
type multiJob struct {
	shards   []int // sorted; shards[0] executes
	parked   sync.WaitGroup
	released chan struct{}
	// published counts the non-executors' post-release counter republish:
	// the executor waits for it before finishing the job, so when the
	// caller's Apply/Freeze returns, no involved worker is still touching
	// its engine thread — the quiesce contract Crash relies on.
	published sync.WaitGroup
}

// runWorker is a shard worker's main loop: take one job, coalesce whatever
// else is queued into a group commit, execute, publish, reply.
func (s *Server) runWorker(sh *shard) {
	var batch []*job
	for j := range sh.jobs {
		if j.multi != nil {
			s.runMulti(sh, j)
			continue
		}
		batch = append(batch[:0], j)
		var pendingMulti *job
		batch, pendingMulti = s.collectBatch(sh, batch)
		s.runBatch(sh, batch)
		if pendingMulti != nil {
			s.runMulti(sh, pendingMulti)
		}
		if s.mvccOn && sh.verStale.Load() && len(sh.jobs) == 0 {
			// An unstamped write (migration apply, bootstrap batch) left the
			// version store behind the map: rebuild it while the queue is
			// quiet so the snapshot fast path comes back.
			s.rebuildStore(sh)
		}
	}
}

// collectBatch drains the queue into batch, up to MaxBatch jobs, and returns
// the moment the queue is dry: coalescing comes from overlap — what arrived
// while the worker or a connection's previous window was busy — never from
// waiting (DESIGN.md §4d). Two rules keep "dry" honest without a clock:
// (1) the queue is not dry while a binary handler is still dispatching a
// window it has already read, unless that handler may itself be blocked on
// the workers (waiting at a full in-flight gate while its window holds no
// slot yet, a shard frozen at admission); (2) the
// worker yields once before going dry, so a handler the netpoller has
// already made runnable enqueues first. A cross-shard job ends collection
// (it needs the barrier protocol) and is returned separately.
func (s *Server) collectBatch(sh *shard, batch []*job) ([]*job, *job) {
	yielded := false
	for len(batch) < s.cfg.MaxBatch {
		// Read before the queue is polled: a handler seen finished here has
		// enqueued its whole window, so the poll cannot miss part of it.
		moreComing := s.dispatching.Load() > 0 &&
			len(s.inflight) < cap(s.inflight) && s.frozenMask.Load() == 0
		select {
		case j, ok := <-sh.jobs:
			if !ok {
				return batch, nil
			}
			if j.multi != nil {
				return batch, j
			}
			batch = append(batch, j)
			continue
		default:
		}
		if !moreComing {
			if yielded {
				return batch, nil
			}
			yielded = true
		}
		runtime.Gosched()
	}
	return batch, nil
}

// runBatch executes a batch of single-shard jobs. Reads-only batches skip
// the transaction entirely; anything with a write becomes ONE transaction —
// the group commit — so its single fence amortizes over every job.
func (s *Server) runBatch(sh *shard, batch []*job) {
	var wall0 int64
	if s.stamps {
		wall0 = s.nowNs()
	}
	sh.queueDepth.Observe(int64(len(sh.jobs)))
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

// runMulti coordinates a cross-shard transaction. Non-executors park at the
// barrier, which hands their engine thread and map shard to the executor;
// the executor applies every operation in ONE transaction on its own
// engine and releases them after commit. Every involved worker has
// published everything it committed before parking, so the publish below
// follows each shard's earlier LSNs.
func (s *Server) runMulti(sh *shard, j *job) {
	m := j.multi
	if sh.id != m.shards[0] {
		m.parked.Done()
		<-m.released
		sh.publish()
		m.published.Done()
		return
	}
	m.parked.Wait()

	if j.frozen != nil {
		// Freeze barrier: every other worker is parked; run the callback
		// over the quiesced store, then release.
		j.frozen()
		close(m.released)
		m.published.Wait()
		j.finish()
		return
	}

	if s.stamps {
		j.wallExec = s.nowNs()
	}
	// Grow every involved shard to fit its share of the transaction's
	// inserts — the cross-shard analogue of runBatch's headroom pass (a
	// large MULTI or replicated snapshot batch commits as one transaction).
	// Every involved worker is parked at the barrier, so driving their
	// pools here is safe.
	for _, id := range m.shards {
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
	for _, id := range m.shards {
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
	sh.publish()
	// Release the parked workers before any synchronous-replication wait:
	// the record's position in the log is already fixed.
	close(m.released)
	if wait != nil {
		wait()
	}
	m.published.Wait()
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
