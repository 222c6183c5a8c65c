package server

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// Tests for the batching rule itself (collectBatch): a shard worker commits
// what is queued the moment its queue runs dry, and a queue is not dry while
// a binary handler is still dispatching a window it has already read.

// TestLoneRequestDoesNotWait: on an idle server nothing overlaps a lone
// request, so it must commit at once. The bound is half the 200 µs window
// the batcher used to sleep out (which cost ~1.1 ms on an idle host); the
// timerless path measures a few µs.
func TestLoneRequestDoesNotWait(t *testing.T) {
	s, err := New(Config{Shards: 1, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 200
	lat := make([]time.Duration, n)
	var res []Result
	for i := range lat {
		t0 := time.Now()
		res, err = s.ApplyAt(uint64(i+1), []Op{{Kind: OpSet, Key: uint64(i % 16), Arg1: uint64(i)}}, nil, res[:0])
		lat[i] = time.Since(t0)
		if err != nil || res[0].Status != StatusOK {
			t.Fatalf("SET %d: %+v %v", i, res, err)
		}
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	t.Logf("lone SET: p50=%v p95=%v", lat[n/2], lat[n*95/100])
	if lat[n/2] >= 100*time.Microsecond {
		t.Fatalf("median lone SET took %v, want < 100µs: the worker is waiting for a batch", lat[n/2])
	}
}

// pipeClient serves one end of a net.Pipe and returns a binary client on the
// other. A pipe hands the server's buffered reader a whole Write in one
// Read, so a burst flushed at once is fully buffered when its first frame
// is dispatched — on any host.
func pipeClient(t *testing.T, s *Server) *Client {
	t.Helper()
	srv, cli := net.Pipe()
	go s.ServeConn(srv)
	c, err := NewClientProto(cli, "binary")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sendSets buffers one SET per key; the client's next Flush or RecvResult
// puts them on the wire in a single Write.
func sendSets(c *Client, keys []uint64, val uint64) error {
	for _, k := range keys {
		if err := c.SendOp(Op{Kind: OpSet, Key: k, Arg1: val}); err != nil {
			return err
		}
	}
	return nil
}

// burst sends one SET per key in a single Write and collects the replies.
func burst(c *Client, keys []uint64, val uint64) error {
	if err := sendSets(c, keys, val); err != nil {
		return err
	}
	for _, k := range keys {
		if r, err := c.RecvResult(); err != nil || r.Status != StatusOK {
			return fmt.Errorf("burst SET %d: %+v %v", k, r, err)
		}
	}
	return nil
}

func seqKeys(n int) []uint64 {
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)
	}
	return keys
}

// TestBurstCommitsOncePerShard is the regression test for the dispatching
// rule: one connection's burst must commit as at most one transaction per
// shard, not one per frame — a worker that wakes on the first frame holds
// its batch open until the handler has enqueued the last. The burst is a
// full connection window, the longest a worker has to hold out; without the
// rule about one such burst in ten splits on a quiet two-CPU host.
func TestBurstCommitsOncePerShard(t *testing.T) {
	s, err := New(Config{Shards: 4, PoolSize: 64 << 20, MaxBatch: maxConnWindow})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	keys := seqKeys(maxConnWindow)
	// Insert the keys first: table growth commits transactions of its own.
	if err := burst(c, keys, 0); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 200; round++ {
		before, _, _ := s.snapshot()
		if err := burst(c, keys, uint64(round)); err != nil {
			t.Fatal(err)
		}
		after, _, _ := s.snapshot()
		if d := after.TxCommitted - before.TxCommitted; d < 1 || d > uint64(s.Shards()) {
			t.Fatalf("round %d: a %d-frame burst committed %d transactions, want 1..%d",
				round, len(keys), d, s.Shards())
		}
	}
}

// TestBurstExitPaths runs bursts against concurrent cross-shard MULTIs and
// Freezes, then takes every early exit out of the dispatch window — MOVED,
// a poisoned frame, shutdown — and requires the dispatching count back at
// zero each time: a leaked count would leave every worker yielding forever
// with its batch uncommitted. Part of the -race run.
func TestBurstExitPaths(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 4})
	idle := func(when string) {
		t.Helper()
		if n := s.dispatching.Load(); n != 0 {
			t.Fatalf("dispatching = %d %s", n, when)
		}
	}

	// The burst loop paces the other two: one cross-shard MULTI and one
	// Freeze are started per round and run concurrently with the next burst.
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	multiTick, freezeTick := make(chan uint64, 1), make(chan uint64, 1)
	wg.Add(3)
	go func() { // bursts, with read-your-writes checked through the window
		defer wg.Done()
		defer close(multiTick)
		defer close(freezeTick)
		c, err := DialProto(addr, 5*time.Second, "binary")
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		keys := seqKeys(16)
		for round := uint64(1); round <= 200; round++ {
			for _, tick := range []chan uint64{multiTick, freezeTick} {
				select {
				case tick <- round:
				default:
				}
			}
			if err := burst(c, keys, round); err != nil {
				errs <- err
				return
			}
			if r, err := c.Get(round % 16); err != nil || r.Val != round {
				errs <- fmt.Errorf("round %d GET = %+v %v", round, r, err)
				return
			}
		}
	}()
	go func() { // cross-shard MULTIs: 8 consecutive keys span several shards
		defer wg.Done()
		c, err := DialProto(addr, 5*time.Second, "binary")
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		ops := make([]Op, 8)
		for round := range multiTick {
			for k := range ops {
				ops[k] = Op{Kind: OpSet, Key: uint64(100 + k), Arg1: round}
			}
			if _, _, err := c.Exec(ops); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range freezeTick {
			if err := s.Freeze(func() {}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	idle("after bursts against MULTIs and Freezes")

	// MOVED: every frame of the burst is redirected at admission.
	owner := make([]string, s.Shards())
	for i := range owner {
		owner[i] = "elsewhere:1"
	}
	s.SetRoute(7, owner, "self:1")
	c, err := DialProto(addr, 5*time.Second, "binary")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := sendSets(c, seqKeys(16), 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := c.RecvResult(); AsMoved(err) == nil {
			t.Fatalf("want MOVED, got %v", err)
		}
	}
	idle("after a MOVED burst")
	s.SetRoute(0, nil, "")

	// A poisoned frame mid-burst: the frames ahead of it are answered, then
	// the ERR frame, then the server hangs up.
	bad, err := DialProto(addr, 5*time.Second, "binary")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.conn.Close()
	if err := sendSets(bad, seqKeys(4), 2); err != nil {
		t.Fatal(err)
	}
	bad.bw.Write([]byte{1, 0, 0, 0, 0x7f}) // unknown frame type
	for i := 0; i < 4; i++ {
		if r, err := bad.RecvResult(); err != nil || r.Status != StatusOK {
			t.Fatalf("frame ahead of the poisoned one: %+v %v", r, err)
		}
	}
	if _, err := bad.RecvResult(); err == nil {
		t.Fatal("poisoned frame was answered")
	}
	idle("after a poisoned frame")

	// Shutdown with a burst in flight: whatever the handler was doing, Close
	// returns (it waits for every handler and worker) and the count is zero.
	if err := sendSets(c, seqKeys(16), 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	idle("after Close")
}

// TestBlockedDispatcherDoesNotHoldBatches pins the two escapes from the
// dispatching rule. A handler that blocks inside its dispatch window — on
// the in-flight gate, or on a shard frozen at admission — is waiting for
// requests the workers hold to finish, so the workers must commit without
// it. Either escape missing turns this test into a hang.
func TestBlockedDispatcherDoesNotHoldBatches(t *testing.T) {
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			runtime.Gosched()
		}
	}

	t.Run("in-flight gate full", func(t *testing.T) {
		s, err := New(Config{Shards: 1, PoolSize: 64 << 20, MaxInFlight: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		a, b := pipeClient(t, s), pipeClient(t, s)
		// Hold the worker so both of a's requests sit in the queue with every
		// in-flight slot taken, and b's handler blocks on the gate inside its
		// dispatch window.
		held, release := make(chan struct{}), make(chan struct{})
		frozen := make(chan error, 1)
		go func() { frozen <- s.Freeze(func() { close(held); <-release }) }()
		<-held
		if err := sendSets(a, seqKeys(2), 1); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor("a's burst to take both slots", func() bool {
			return len(s.inflight) == 2 && s.dispatching.Load() == 0
		})
		if err := b.SendOp(Op{Kind: OpSet, Key: 9, Arg1: 9}); err != nil {
			t.Fatal(err)
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor("b's handler to block on the gate", func() bool { return s.dispatching.Load() == 1 })
		close(release)
		if err := <-frozen; err != nil {
			t.Fatal(err)
		}
		for _, c := range []*Client{a, a, b} {
			if r, err := c.RecvResult(); err != nil || r.Status != StatusOK {
				t.Fatalf("SET behind a full gate: %+v %v", r, err)
			}
		}
	})

	t.Run("shard frozen at admission", func(t *testing.T) {
		s, err := New(Config{Shards: 2, PoolSize: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var onFrozen, onOther uint64
		for s.shardOf(onFrozen) != 0 {
			onFrozen++
		}
		for s.shardOf(onOther) != 1 {
			onOther++
		}
		a, b := pipeClient(t, s), pipeClient(t, s)
		s.FreezeShard(0)
		if err := a.SendOp(Op{Kind: OpSet, Key: onFrozen, Arg1: 1}); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor("a's handler to park on the frozen shard", func() bool {
			return s.frozenWaits.Load() > 0 && s.dispatching.Load() == 1
		})
		// a is parked inside its dispatch window; b's request on the other
		// shard must still commit.
		if r, err := b.Set(onOther, 2); err != nil || r.Status != StatusOK {
			t.Fatalf("SET beside a frozen shard: %+v %v", r, err)
		}
		s.UnfreezeShard(0)
		if r, err := a.RecvResult(); err != nil || r.Status != StatusOK {
			t.Fatalf("SET after unfreeze: %+v %v", r, err)
		}
	})
}

// TestWindowLargerThanInFlightGate is the regression test for the in-flight
// slot deadlock: a binary handler holds its window's slots until the whole
// window is answered, so a handler that blocked on the gate while holding
// slots waited for itself. A window may wait for a slot only while it holds
// none; a later frame that finds no slot free ends the window and leads the
// next one. Here one 8-frame window meets a 4-slot gate.
func TestWindowLargerThanInFlightGate(t *testing.T) {
	s, err := New(Config{Shards: 2, PoolSize: 64 << 20, MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := pipeClient(t, s)
	keys := seqKeys(8)
	done := make(chan error, 1)
	go func() { done <- burst(c, keys, 1) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%d-frame window against a %d-slot gate: replies never arrived", len(keys), cap(s.inflight))
	}
	for _, k := range keys {
		if r, err := c.Get(k); err != nil || r.Status != StatusValue || r.Val != 1 {
			t.Fatalf("GET %d after the window: %+v %v", k, r, err)
		}
	}
}
