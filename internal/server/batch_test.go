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

// Tests for the batching rule itself (commitThrough): the handler that queued
// a window commits it under each shard's combiner lock, one batch of the
// oldest queued jobs per hold, and queues its whole window before it commits
// any of it. The window tests run over both codecs: the window loop is the
// same.

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
		t.Fatalf("median lone SET took %v, want < 100µs: the commit is waiting for a batch", lat[n/2])
	}
}

// pipeClient serves one end of a net.Pipe and returns a client of the given
// protocol on the other. A pipe hands the server's buffered reader a whole
// Write in one Read, so a burst flushed at once is fully buffered when its
// first request is dispatched — on any host.
func pipeClient(t *testing.T, s *Server, proto string) *Client {
	t.Helper()
	srv, cli := net.Pipe()
	go s.ServeConn(srv)
	c, err := NewClientProto(cli, proto)
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

// TestBurstCommitsOncePerShard is the regression test for the window rule:
// one connection's burst must commit as at most one transaction per shard,
// not one per request — the handler queues its whole window before its
// first commit, so each shard's first commit turn takes all of it. The
// binary burst is a full connection window; the text burst is 16 SETs on
// one shard, which a handler that answered one line at a time would commit
// as 16 transactions.
func TestBurstCommitsOncePerShard(t *testing.T) {
	for _, tc := range []struct {
		proto     string
		shards, n int
	}{{"binary", 4, maxConnWindow}, {"text", 1, 16}} {
		t.Run(tc.proto, func(t *testing.T) {
			s, err := New(Config{Shards: tc.shards, PoolSize: 64 << 20, MaxBatch: maxConnWindow})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c := pipeClient(t, s, tc.proto)
			keys := seqKeys(tc.n)
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
					t.Fatalf("round %d: a %d-request burst committed %d transactions, want 1..%d",
						round, len(keys), d, s.Shards())
				}
			}
		})
	}
}

// TestBurstExitPaths runs bursts against concurrent cross-shard MULTIs and
// Freezes, then takes every early exit out of a window — MOVED, a poisoned
// request, shutdown — and requires every shard queue empty and every
// in-flight slot back each time: a job left queued has no committer, and a
// leaked slot shrinks the gate for good. Part of the -race run.
func TestBurstExitPaths(t *testing.T) {
	for _, tc := range []struct {
		proto  string
		poison []byte
	}{
		{"binary", []byte{1, 0, 0, 0, 0x7f}}, // unknown frame type
		{"text", []byte{BinVersion, '\n'}},   // a binary frame mid-text
	} {
		t.Run(tc.proto, func(t *testing.T) { testBurstExitPaths(t, tc.proto, tc.poison) })
	}
}

func testBurstExitPaths(t *testing.T, proto string, poison []byte) {
	s, addr := startServer(t, Config{Shards: 4})
	idle := func(when string) {
		t.Helper()
		if err := quiet(s); err != nil {
			t.Fatalf("%v %s", err, when)
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
		c, err := DialProto(addr, 5*time.Second, proto)
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
		c, err := DialProto(addr, 5*time.Second, proto)
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
	c, err := DialProto(addr, 5*time.Second, proto)
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

	// A poisoned request mid-burst: the requests ahead of it are answered,
	// then the ERR reply, then the server hangs up.
	bad, err := DialProto(addr, 5*time.Second, proto)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.conn.Close()
	if err := sendSets(bad, seqKeys(4), 2); err != nil {
		t.Fatal(err)
	}
	bad.bw.Write(poison)
	for i := 0; i < 4; i++ {
		if r, err := bad.RecvResult(); err != nil || r.Status != StatusOK {
			t.Fatalf("request ahead of the poisoned one: %+v %v", r, err)
		}
	}
	if _, err := bad.RecvResult(); err == nil {
		t.Fatal("poisoned request was answered")
	}
	idle("after a poisoned request")

	// Shutdown with a burst in flight: whatever the handler was doing, Close
	// returns (it waits for every handler) and nothing is left behind.
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

// quiet reports a job left in a shard queue or an in-flight slot still held.
func quiet(s *Server) error {
	for _, sh := range s.shards {
		if n := sh.queued(); n != 0 {
			return fmt.Errorf("shard %d holds %d queued jobs", sh.id, n)
		}
	}
	if n := len(s.inflight); n != 0 {
		return fmt.Errorf("%d in-flight slots held", n)
	}
	return nil
}

// TestBlockedDispatcherDoesNotHoldBatches pins that a handler blocked inside
// its window — on the in-flight gate, or on a shard frozen at admission —
// never holds back the commits other requests wait on: a handler blocks at
// the gate only while its window holds no job, and commits what its window
// has queued before it parks at admission. A break turns a subtest into a
// hang, cut by waitFor's deadline.
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
	keyOn := func(s *Server, shard int) uint64 {
		var k uint64
		for s.shardOf(k) != shard {
			k++
		}
		return k
	}

	t.Run("in-flight gate full", func(t *testing.T) {
		s, err := New(Config{Shards: 1, PoolSize: 64 << 20, MaxInFlight: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		a, b := pipeClient(t, s, "binary"), pipeClient(t, s, "binary")
		// Hold the shard so both of a's requests sit in the queue with every
		// in-flight slot taken, and b's handler blocks on the gate.
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
			return len(s.inflight) == 2 && s.shards[0].queued() == 2
		})
		if err := b.SendOp(Op{Kind: OpSet, Key: 9, Arg1: 9}); err != nil {
			t.Fatal(err)
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor("b's request to reach the gate", func() bool { return s.binFrames.Load() == 3 })
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
		onFrozen, onOther := keyOn(s, 0), keyOn(s, 1)
		a, b := pipeClient(t, s, "binary"), pipeClient(t, s, "binary")
		s.FreezeShard(0)
		if err := a.SendOp(Op{Kind: OpSet, Key: onFrozen, Arg1: 1}); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor("a's handler to park on the frozen shard", func() bool { return s.frozenWaits.Load() > 0 })
		// a is parked inside its window; b's request on the other shard must
		// still commit.
		if r, err := b.Set(onOther, 2); err != nil || r.Status != StatusOK {
			t.Fatalf("SET beside a frozen shard: %+v %v", r, err)
		}
		s.UnfreezeShard(0)
		if r, err := a.RecvResult(); err != nil || r.Status != StatusOK {
			t.Fatalf("SET after unfreeze: %+v %v", r, err)
		}
	})

	t.Run("queued job ahead of a frozen shard", func(t *testing.T) {
		s, err := New(Config{Shards: 2, PoolSize: 64 << 20})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		onFrozen, onOther := keyOn(s, 0), keyOn(s, 1)
		a, b := pipeClient(t, s, "binary"), pipeClient(t, s, "binary")
		s.FreezeShard(0)
		// One window: the first SET queues on shard 1, the second parks at
		// admission on frozen shard 0. Nobody else commits on shard 1, so
		// the first SET becomes visible only if a commits it before parking.
		if err := a.SendOp(Op{Kind: OpSet, Key: onOther, Arg1: 7}); err != nil {
			t.Fatal(err)
		}
		if err := a.SendOp(Op{Kind: OpSet, Key: onFrozen, Arg1: 8}); err != nil {
			t.Fatal(err)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor("a's queued SET to be visible while a is parked", func() bool {
			r, err := b.Get(onOther)
			return err == nil && r.Status == StatusValue && r.Val == 7
		})
		waitFor("a's second SET to park on the frozen shard", func() bool { return s.frozenWaits.Load() > 0 })
		s.UnfreezeShard(0)
		for _, want := range []uint64{onOther, onFrozen} {
			if r, err := a.RecvResult(); err != nil || r.Status != StatusOK {
				t.Fatalf("SET %d: %+v %v", want, r, err)
			}
		}
	})
}

// TestWindowLargerThanInFlightGate is the regression test for the in-flight
// slot deadlock: a handler holds its window's slots until the whole window
// is answered, so a handler that blocked on the gate while holding slots
// waited for itself. A window may wait for a slot only while it holds none;
// a later request that finds no slot free ends the window and leads the
// next one. Here one 8-request window meets a 4-slot gate.
func TestWindowLargerThanInFlightGate(t *testing.T) {
	for _, proto := range []string{"binary", "text"} {
		t.Run(proto, func(t *testing.T) {
			s, err := New(Config{Shards: 2, PoolSize: 64 << 20, MaxInFlight: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			c := pipeClient(t, s, proto)
			keys := seqKeys(8)
			done := make(chan error, 1)
			go func() { done <- burst(c, keys, 1) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%d-request window against a %d-slot gate: replies never arrived", len(keys), cap(s.inflight))
			}
			for _, k := range keys {
				if r, err := c.Get(k); err != nil || r.Status != StatusValue || r.Val != 1 {
					t.Fatalf("GET %d after the window: %+v %v", k, r, err)
				}
			}
		})
	}
}

// TestCombinerHammer drives every commit path at once (part of the -race
// run): binary and text connections pipelining windows over every shard,
// concurrent Apply and ApplyAt, cross-shard MULTIs, and Freezes. Every reply
// must arrive and read its own writes; afterwards no queue holds a job, no
// in-flight slot is held, and no batch was larger than MaxBatch — one batch
// per hold of a combiner lock.
func TestCombinerHammer(t *testing.T) {
	// 7 = 2^3-1 is the top of the batch_jobs histogram's bucket 3, so the
	// bucket bound below is exact.
	const maxBatch, rounds = 7, 200
	s, addr := startServer(t, Config{Shards: 4, MaxBatch: maxBatch})
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	stop := make(chan struct{})
	var drivers sync.WaitGroup
	spawn := func(group *sync.WaitGroup, f func() error) {
		group.Add(1)
		go func() {
			defer group.Done()
			if err := f(); err != nil {
				errs <- err
			}
		}()
	}
	keysAt := func(base uint64, n int) []uint64 {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = base + uint64(i)
		}
		return keys
	}
	check := func(what string, r OpResult, err error, status Status, val uint64) error {
		if err != nil || r.Status != status || status == StatusValue && r.Val != val {
			return fmt.Errorf("%s: %+v %v, want %v %d", what, r, err, status, val)
		}
		return nil
	}

	// Windows: 16 SETs then 16 GETs of the same keys in one flush; the GETs
	// queue behind the SETs, so each must read its own round.
	for id, proto := range []string{"binary", "binary", "text", "text"} {
		keys := keysAt(uint64(id+1)<<32, 16)
		spawn(&drivers, func() error {
			c, err := DialProto(addr, 5*time.Second, proto)
			if err != nil {
				return err
			}
			defer c.Close()
			for round := uint64(1); round <= rounds; round++ {
				for _, k := range keys {
					if err := c.SendOp(Op{Kind: OpSet, Key: k, Arg1: round}); err != nil {
						return err
					}
				}
				for _, k := range keys {
					if err := c.SendOp(Op{Kind: OpGet, Key: k}); err != nil {
						return err
					}
				}
				for range keys {
					r, err := c.RecvResult()
					if err := check(proto+" SET", r, err, StatusOK, 0); err != nil {
						return err
					}
				}
				for _, k := range keys {
					r, err := c.RecvResult()
					if err := check(fmt.Sprintf("%s GET %d", proto, k), r, err, StatusValue, round); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	// Cross-shard MULTIs, each read back by a cross-shard read-only MULTI.
	for id, proto := range []string{"binary", "text"} {
		keys := keysAt(uint64(id+10)<<32, 8)
		spawn(&drivers, func() error {
			c, err := DialProto(addr, 5*time.Second, proto)
			if err != nil {
				return err
			}
			defer c.Close()
			set, get := make([]Op, len(keys)), make([]Op, len(keys))
			for round := uint64(1); round <= rounds; round++ {
				for i, k := range keys {
					set[i] = Op{Kind: OpSet, Key: k, Arg1: round}
					get[i] = Op{Kind: OpGet, Key: k}
				}
				if _, _, err := c.Exec(set); err != nil {
					return err
				}
				res, _, err := c.Exec(get)
				if err != nil {
					return err
				}
				for i, r := range res {
					if err := check(proto+" MULTI GET", r, nil, StatusValue, round); err != nil {
						return fmt.Errorf("key %d: %w", keys[i], err)
					}
				}
			}
			return nil
		})
	}
	// Apply and ApplyAt, single- and cross-shard, each read back by Apply.
	for id := 0; id < 2; id++ {
		keys := keysAt(uint64(id+20)<<32, 4)
		spawn(&drivers, func() error {
			ops := make([]Op, len(keys))
			var res []Result
			for round := uint64(1); round <= rounds; round++ {
				for i, k := range keys {
					ops[i] = Op{Kind: OpSet, Key: k, Arg1: round}
				}
				var err error
				if id == 0 {
					_, err = s.Apply(ops[:1], nil, nil)
				} else {
					_, err = s.ApplyAt(s.PublishedLSN()+1, ops, nil, nil)
				}
				if err != nil {
					return err
				}
				if res, err = s.Apply([]Op{{Kind: OpGet, Key: keys[0]}}, nil, res[:0]); err != nil {
					return err
				}
				if res[0].Status != StatusValue || res[0].Val != round {
					return fmt.Errorf("Apply GET %d = %+v, want %d", keys[0], res[0], round)
				}
			}
			return nil
		})
	}
	spawn(&wg, func() error {
		for {
			select {
			case <-stop:
				return nil
			default:
			}
			if err := s.Freeze(func() { s.RangeAll(func(int, uint64, uint64) bool { return true }) }); err != nil {
				return err
			}
		}
	})
	drivers.Wait()
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := quiet(s); err != nil {
		t.Fatal(err)
	}
	for _, sh := range s.shards {
		for b, n := range sh.batchJobs.Snapshot().Counts {
			if top := 1<<b - 1; n > 0 && top > maxBatch {
				t.Fatalf("shard %d: %d batches in bucket %d (up to %d jobs), MaxBatch %d", sh.id, n, b, top, maxBatch)
			}
		}
	}
}
