package server

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"
)

// maxConnWindow bounds how many requests one binary connection may have in
// flight at once: after dispatching the first frame of a wakeup, the
// handler keeps decoding frames that are already fully buffered — never
// blocking on the socket — so a pipelining client gets its whole window
// dispatched to the shard workers before any reply is awaited.
const maxConnWindow = 64

// errWindowFull ends a window early: a buffered frame needs an in-flight
// slot and none is free. It is not a stream error.
var errWindowFull = errors.New("no in-flight slot free")

// binBufPool recycles per-connection frame read buffers: a window's first
// frame is decoded in place out of this buffer (ops are fixed-width loads,
// nothing is copied; later frames are decoded out of the reader's own
// buffer, see peekFrame), and the buffer is reused for the next frame the
// moment the ops are staged on the job.
var binBufPool = sync.Pool{New: func() any { b := make([]byte, 4096); return &b }}

// binPending is one in-flight request of a binary connection's window, in
// arrival order: either a dispatched job awaiting its done token, or an
// inline reply (PING/STATS/QUIT/ERR) already encoded. reply keeps its
// capacity across windows.
type binPending struct {
	j     *job
	verb  string
	nsh   int
	t0    int64
	quit  bool
	reply []byte
}

// handleBinary serves one connection that negotiated the binary protocol.
// Replies for a window are written with one vectored write (net.Buffers →
// writev), in arrival order.
func (s *Server) handleBinary(c net.Conn, br *bufio.Reader, bw *bufio.Writer, co *connObs) {
	_ = bw // the text-mode writer is abandoned; frames go straight to c
	fbp := binBufPool.Get().(*[]byte)
	defer binBufPool.Put(fbp)
	var (
		pend []binPending
		jobs []*job // freelist, one per job-backed window slot
		outs net.Buffers
	)
	// Deadline re-arming is amortized: a timer modification costs more than
	// the clock read guarding it, and on the snapshot fast path it would be
	// a per-window cost. Deadlines are re-armed once a quarter of their
	// budget has elapsed, so the effective timeout stays within [3/4, 1] of
	// the configured one.
	var lastRArm, lastWArm time.Time
	armR := func() {
		if now := time.Now(); now.Sub(lastRArm) > s.cfg.IdleTimeout/4 {
			lastRArm = now
			c.SetReadDeadline(now.Add(s.cfg.IdleTimeout))
		}
	}
	armW := func() {
		if now := time.Now(); now.Sub(lastWArm) > s.cfg.WriteTimeout/4 {
			lastWArm = now
			c.SetWriteDeadline(now.Add(s.cfg.WriteTimeout))
		}
	}
	fail := func(msg string) {
		// Framing is poisoned: answer with an ERR frame and hang up.
		s.protoErrs.Add(1)
		c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		c.Write(appendMsgFrame((*fbp)[:0], binFErr, []byte(msg)))
	}
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		armR()
		payload, err := readFrame(br, fbp)
		if err != nil {
			switch err {
			case errBadFrame, errFrameTooLarge, errTruncFrame:
				fail(err.Error())
			}
			return
		}
		pend = pend[:0]
		nj := 0
		frames := uint64(1)
		// Workers hold their batches open until the whole window is enqueued
		// (collectBatch); nothing between the Add and its undo returns.
		s.dispatching.Add(1)
		ferr := s.binDispatch(payload, &pend, &jobs, &nj)
		// Opportunistic window fill: only frames already buffered — the
		// handler never blocks on the socket while replies are owed, nor on
		// the in-flight gate while it holds slots: a frame that finds no slot
		// free stays buffered and leads the next window instead.
		for ferr == nil && len(pend) < maxConnWindow {
			next, n, err := peekFrame(br)
			if err != nil {
				ferr = err
				break
			}
			if next == nil {
				break
			}
			if ferr = s.binDispatch(next, &pend, &jobs, &nj); ferr == errWindowFull {
				ferr = nil
				break
			}
			br.Discard(n)
			frames++
		}
		s.dispatching.Add(-1)
		s.binFrames.Add(frames)
		// Await the window's jobs in order and encode their replies; this
		// must complete even on a poisoned stream so every acquired
		// in-flight slot is released.
		quit := false
		outs = outs[:0]
		for i := range pend {
			p := &pend[i]
			if p.j != nil {
				<-p.j.done
				s.release()
				if s.stamps {
					s.observeRequest(co, p.j, p.verb, p.t0, p.nsh)
				}
				p.reply = AppendReplyFrame(p.reply[:0], p.j.results, p.j.modelNs)
			}
			outs = append(outs, p.reply)
			quit = quit || p.quit
		}
		if len(outs) > 0 {
			armW()
			if _, err := outs.WriteTo(c); err != nil {
				return
			}
		}
		if ferr != nil {
			fail(ferr.Error())
			return
		}
		if quit {
			return
		}
	}
}

// binDispatch decodes one frame and either dispatches its job to the shard
// workers or stages an inline reply. Dispatch takes an in-flight slot, which
// is released only once the whole window is answered: while the window
// holds none (*nj == 0) the frame may wait for one, after that it takes a
// slot only if one is free and otherwise returns errWindowFull having
// changed nothing. Any other non-nil return poisons the stream
// (framing-level violation); application-level failures become ERR reply
// frames and return nil.
func (s *Server) binDispatch(payload []byte, pend *[]binPending, jobs *[]*job, nj *int) error {
	if len(payload) == 0 {
		return errBadFrame
	}
	p := growPending(pend)
	switch payload[0] {
	case binFPing:
		if len(payload) != 1 {
			return errBadFrame
		}
		p.reply = appendSimpleFrame(p.reply, binFPong)
	case binFQuit:
		if len(payload) != 1 {
			return errBadFrame
		}
		p.reply = appendSimpleFrame(p.reply, binFBye)
		p.quit = true
	case binFStats:
		if len(payload) != 1 {
			return errBadFrame
		}
		p.reply = appendMsgFrame(p.reply, binFStatsReply, s.appendStats(nil))
	case binFOps:
		if *nj >= len(*jobs) {
			*jobs = append(*jobs, newJob())
		}
		j := (*jobs)[*nj]
		j.reset()
		var err error
		if j.ops, err = DecodeOpsFrame(payload, j.ops); err != nil {
			return err
		}
		if s.readOnly.Load() && hasWrite(j.ops) {
			s.roRejected.Add(1)
			p.reply = appendMsgFrame(p.reply, binFErr, []byte("read-only replica"))
			return nil
		}
		var shards []int
		if len(j.ops) == 1 {
			p.verb = j.ops[0].Kind.String()
			shards = []int{s.shardOf(j.ops[0].Key)}
		} else {
			p.verb = "MULTI"
			shards = s.shardSet(j.ops)
		}
		if mv, err := s.admitShards(shards); mv != nil || err != nil {
			if err == ErrClosed {
				return ErrClosed
			}
			if err != nil {
				p.reply = appendMsgFrame(p.reply, binFErr, []byte(err.Error()))
				return nil
			}
			p.reply = appendMovedFrame(p.reply, mv)
			return nil
		}
		queuedAhead := false
		for i := 0; i < len(*pend)-1; i++ {
			if (*pend)[i].j != nil {
				queuedAhead = true
				break
			}
		}
		diverted := false
		if s.mvccOn && len(shards) == 1 && !hasWrite(j.ops) {
			// Snapshot fast path: single-shard all-GET frames are served
			// lock-free from the shard's MVCC store, never entering the
			// worker queue. Only when nothing earlier in this window was
			// dispatched to a worker: a queued write ahead of us must be
			// visible (read-your-writes), and a queued read ahead of us
			// would see newer state than a snapshot read behind it —
			// serving out of order would let this connection read
			// backwards in time. Such a diversion counts as a snapshot
			// fallback. j stays in the freelist (*nj is not advanced); its
			// results slice is only scratch for the encode below.
			if queuedAhead {
				diverted = true
			} else if results, _, ok := s.serveSnapshot(shards[0], j.ops, j.results[:0]); ok {
				j.results = results
				for _, op := range j.ops {
					s.opCounts[op.Kind].Add(1)
				}
				if len(j.ops) > 1 {
					s.multis.Add(1)
					s.snapMultis.Add(1)
				}
				p.reply = AppendSnapReplyFrame(p.reply, j.results)
				return nil
			}
		}
		if s.stamps {
			p.t0 = s.nowNs()
		}
		if *nj == 0 {
			if !s.acquire() {
				return ErrClosed
			}
		} else if !s.tryAcquire() {
			*pend = (*pend)[:len(*pend)-1]
			return errWindowFull
		}
		if diverted {
			s.snapFallbacks.Add(uint64(len(j.ops)))
		}
		*nj++
		for _, op := range j.ops {
			s.opCounts[op.Kind].Add(1)
		}
		if len(j.ops) > 1 {
			s.multis.Add(1)
		}
		p.nsh = len(shards)
		if s.stamps {
			j.wallEnq = s.nowNs()
		}
		s.dispatch(j, shards)
		p.j = j
	default:
		return errBadFrame
	}
	return nil
}

// growPending extends pend by one slot, reusing the slot's reply buffer
// capacity from earlier windows.
func growPending(pend *[]binPending) *binPending {
	if len(*pend) < cap(*pend) {
		*pend = (*pend)[:len(*pend)+1]
	} else {
		*pend = append(*pend, binPending{})
	}
	p := &(*pend)[len(*pend)-1]
	p.j = nil
	p.verb = ""
	p.nsh = 0
	p.t0 = 0
	p.quit = false
	p.reply = p.reply[:0]
	return p
}
