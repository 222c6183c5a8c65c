package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// A connRun drives one connection: a sender that issues the request stream
// (on a schedule, or as fast as the window allows) and a receiver that
// matches replies in order, checks each against the oracle and records its
// latency. Requests are sorted into sub-windows of the measured interval by
// the time they entered the system: the due time in an open loop, the send
// time in a closed one.

const (
	opKinds  = 2
	maxSpans = 1 << 18 // traced requests kept per connection (14 MiB)
	spinFor  = 1500 * time.Microsecond
)

// pending is one request in flight, handed from sender to receiver.
type pending struct {
	o      op
	expect uint64 // GET: the last value this connection stored under the key
	due    int64  // ns since the run's base
	bucket int    // sub-window, -1 outside the measured interval
	span   int    // index into spans, -1 when untraced
}

// spanRec holds one traced request's timestamps (ns since base). The sender
// writes due..wrote and the receiver recv and done; no field has two
// writers.
type spanRec struct {
	kind                                   uint8
	due, begin, encoded, wrote, recv, done int64
}

type connRun struct {
	wc      *wireConn
	src     func() (op, bool) // the request stream; false ends the run
	window  int
	nextDue func() int64 // open loop: the next send's due time, ns since base; nil = closed loop
	base    time.Time
	t0, t1  int64 // measured interval, ns since base
	buckets int   // sub-windows in [t0, t1)
	traced  func(bucket int) bool
	expect  []uint64 // oracle, indexed by key/nConns; nil skips GET checks

	slots chan struct{}
	pend  chan pending
	dead  atomic.Bool

	// Results, valid after run returns.
	lat       [][opKinds][]int64 // per sub-window, per op kind: ns
	late      []int64            // open loop: send start minus due time, ns
	attempted int
	failed    int
	due       int // open loop: requests whose due time fell in [t0, t1)
	spans     []spanRec
	nSpans    int
}

func (cr *connRun) now() int64 { return int64(time.Since(cr.base)) }

func (cr *connRun) bucketOf(t int64) int {
	if t < cr.t0 || t >= cr.t1 {
		return -1
	}
	return int((t - cr.t0) * int64(cr.buckets) / (cr.t1 - cr.t0))
}

// run sends until the stream ends or t1 passes, then waits for every
// outstanding reply.
func (cr *connRun) run() {
	cr.slots = make(chan struct{}, cr.window)
	cr.pend = make(chan pending, cr.window)
	cr.lat = make([][opKinds][]int64, cr.buckets)
	if cr.traced != nil {
		cr.spans = make([]spanRec, maxSpans)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); cr.receive() }()
	cr.send()
	close(cr.pend)
	wg.Wait()
}

func (cr *connRun) send() {
	buf := make([]byte, 0, 64)
	for !cr.dead.Load() {
		o, ok := cr.src()
		if !ok {
			return
		}
		var due int64
		if cr.nextDue != nil {
			if due = cr.nextDue(); due >= cr.t1 {
				return
			}
			if d := due - cr.now() - int64(spinFor); d > 0 {
				time.Sleep(time.Duration(d))
			}
			for cr.now() < due {
				runtime.Gosched()
			}
		}
		cr.slots <- struct{}{}
		begin := cr.now()
		if cr.nextDue == nil {
			if due = begin; due >= cr.t1 {
				return
			}
		}
		p := pending{o: o, due: due, bucket: cr.bucketOf(due), span: -1}
		if p.bucket >= 0 && cr.nextDue != nil {
			cr.due++
			cr.late = append(cr.late, begin-due)
		}
		if cr.expect != nil {
			if o.kind == opGet {
				p.expect = cr.expect[o.key/nConns]
			} else {
				cr.expect[o.key/nConns] = o.val
			}
		}
		var sp *spanRec
		if p.bucket >= 0 && cr.traced != nil && cr.traced(p.bucket) && cr.nSpans < len(cr.spans) {
			p.span = cr.nSpans
			sp = &cr.spans[p.span]
			cr.nSpans++
			sp.kind, sp.due, sp.begin = o.kind, due, begin
		}
		buf = appendOp(buf[:0], cr.wc.binary, o)
		if sp != nil {
			sp.encoded = cr.now()
		}
		cr.pend <- p
		err := cr.wc.send(buf)
		if sp != nil {
			sp.wrote = cr.now()
		}
		if err != nil {
			cr.dead.Store(true)
		}
	}
}

func (cr *connRun) receive() {
	for p := range cr.pend {
		ok := false
		var recv int64
		if !cr.dead.Load() {
			raw, err := cr.wc.recv()
			if p.span >= 0 {
				recv = cr.now()
			}
			if err != nil {
				// The stream is out of step from here on: fail what is
				// outstanding and stop sending.
				cr.dead.Store(true)
			} else if r, err := decodeReply(raw, cr.wc.binary); err == nil {
				if p.o.kind == opSet {
					ok = r.status == stOK
				} else {
					ok = r.status == stValue && (cr.expect == nil || r.val == p.expect)
				}
			}
		}
		done := cr.now()
		if p.span >= 0 {
			cr.spans[p.span].recv, cr.spans[p.span].done = recv, done
		}
		cr.attempted++
		if !ok {
			cr.failed++
		} else if p.bucket >= 0 {
			cr.lat[p.bucket][p.o.kind] = append(cr.lat[p.bucket][p.o.kind], done-p.due)
		}
		<-cr.slots
	}
}
