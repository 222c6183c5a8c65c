package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startServer builds a server over a small pool and serves it on an
// ephemeral loopback port.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 64 << 20
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Start up here, not on the Serve goroutine: tests read
	// model-clock-advancing state (s.Counters) right after this returns,
	// which must not race the shards' initial stats publish.
	s.startup()
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestLoopbackMixed64Conns is the acceptance workload: 64 concurrent
// connections run a mixed GET/SET/CAS/DEL workload against engine=spec
// with zero protocol errors, and the stats add up.
func TestLoopbackMixed64Conns(t *testing.T) {
	s, addr := startServer(t, Config{Engine: "SpecSPMT", Shards: 4})
	const conns, rounds = 64, 25
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for id := 0; id < conns; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			base := uint64(id * 1000)
			for i := uint64(0); i < rounds; i++ {
				k := base + i
				if r, err := c.Set(k, k*3); err != nil || r.Status != StatusOK {
					errs <- fmt.Errorf("SET %d: %v %v", k, r.Status, err)
					return
				}
				if r, err := c.Get(k); err != nil || r.Status != StatusValue || r.Val != k*3 || r.ModelNs < 0 {
					errs <- fmt.Errorf("GET %d = %+v, %v", k, r, err)
					return
				}
				if r, err := c.CAS(k, k*3, k*4); err != nil || r.Status != StatusOK {
					errs <- fmt.Errorf("CAS %d: %v %v", k, r.Status, err)
					return
				}
				if r, err := c.CAS(k, 12345678, 1); err != nil || r.Status != StatusConflict || r.Val != k*4 {
					errs <- fmt.Errorf("CAS conflict %d = %+v, %v", k, r, err)
					return
				}
				if i%5 == 4 {
					if r, err := c.Del(k); err != nil || r.Status != StatusOK {
						errs <- fmt.Errorf("DEL %d: %v %v", k, r.Status, err)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c := dialT(t, addr)
	defer c.Close()
	nums, strs, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if strs["engine"] != "SpecSPMT" {
		t.Fatalf("STATS engine = %q", strs["engine"])
	}
	if nums["protocol_errors"] != 0 {
		t.Fatalf("protocol_errors = %d, want 0", nums["protocol_errors"])
	}
	wantSets := uint64(conns * rounds)
	if nums["ops_set"] != wantSets {
		t.Fatalf("ops_set = %d, want %d", nums["ops_set"], wantSets)
	}
	wantKeys := uint64(conns * (rounds - rounds/5))
	if nums["keys"] != wantKeys {
		t.Fatalf("keys = %d, want %d", nums["keys"], wantKeys)
	}
	if nums["fences"] == 0 || nums["tx_committed"] == 0 {
		t.Fatalf("expected nonzero engine counters, got %v", nums)
	}
	_ = s
}

// TestCASLinearizable hammers one key with CAS increments from many
// connections (run it under -race): the final value must equal the number
// of successful CAS operations, and shutdown must be clean.
func TestCASLinearizable(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2})
	const key = 7
	init := dialT(t, addr)
	if r, err := init.Set(key, 0); err != nil || r.Status != StatusOK {
		t.Fatalf("seed SET: %+v %v", r, err)
	}
	init.Close()

	const conns = 8
	const target = 25 // successful increments per connection
	var succeeded atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for id := 0; id < conns; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			wins := 0
			for wins < target {
				g, err := c.Get(key)
				if err != nil || g.Status != StatusValue {
					errs <- fmt.Errorf("GET: %+v %v", g, err)
					return
				}
				r, err := c.CAS(key, g.Val, g.Val+1)
				if err != nil {
					errs <- err
					return
				}
				switch r.Status {
				case StatusOK:
					wins++
					succeeded.Add(1)
				case StatusConflict:
					// lost the race; retry
				default:
					errs <- fmt.Errorf("CAS: %+v", r)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	c := dialT(t, addr)
	g, err := c.Get(key)
	if err != nil || g.Status != StatusValue {
		t.Fatalf("final GET: %+v %v", g, err)
	}
	c.Close()
	if g.Val != succeeded.Load() {
		t.Fatalf("CAS lost updates: final=%d successful=%d", g.Val, succeeded.Load())
	}
	if g.Val != conns*target {
		t.Fatalf("final=%d want %d", g.Val, conns*target)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
	if _, err := Dial(addr, 200*time.Millisecond); err == nil {
		t.Fatal("dial after Close must fail")
	}
}

// TestGroupCommitFewerFences pins the batching claim: the same 40 SETs
// cost far fewer fences per write under group commit than with batching
// disabled. The jobs are queued together behind a Freeze (runSets), so both
// runs batch deterministically.
func TestGroupCommitFewerFences(t *testing.T) {
	const n = 40
	batchedFences := runSets(t, 64, n)
	unbatchedFences := runSets(t, 1, n)
	t.Logf("fences per SET: batched=%.2f unbatched=%.2f",
		float64(batchedFences)/n, float64(unbatchedFences)/n)
	if unbatchedFences < n {
		t.Fatalf("unbatched run must fence at least once per SET, got %d/%d", unbatchedFences, n)
	}
	if batchedFences*4 >= unbatchedFences {
		t.Fatalf("group commit did not amortize fences: batched=%d unbatched=%d",
			batchedFences, unbatchedFences)
	}
}

// TestMultiExecCrossShard checks MULTI...EXEC atomicity when the keys span
// shards, and that concurrent cross-shard transactions make progress.
func TestMultiExecCrossShard(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 4})
	c := dialT(t, addr)
	defer c.Close()

	// 8 consecutive keys are guaranteed to span more than one of 4 shards.
	var ops []Op
	for k := uint64(0); k < 8; k++ {
		ops = append(ops, Op{Kind: OpSet, Key: k, Arg1: k + 100})
	}
	results, modelNs, err := c.Exec(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ops) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Status != StatusOK {
			t.Fatalf("op %d: %+v", i, r)
		}
	}
	if modelNs <= 0 {
		t.Fatalf("modelNs = %d", modelNs)
	}
	for k := uint64(0); k < 8; k++ {
		if r, err := c.Get(k); err != nil || r.Val != k+100 {
			t.Fatalf("GET %d after EXEC: %+v %v", k, r, err)
		}
	}

	// A transaction mixing reads, writes, and a conflict-free CAS.
	results, _, err = c.Exec([]Op{
		{Kind: OpGet, Key: 0},
		{Kind: OpCAS, Key: 1, Arg1: 101, Arg2: 999},
		{Kind: OpDel, Key: 2},
		{Kind: OpSet, Key: 3, Arg1: 303},
		{Kind: OpGet, Key: 3}, // must observe the SET in the same txn
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Status: StatusValue, Val: 100},
		{Status: StatusOK},
		{Status: StatusOK},
		{Status: StatusOK},
		{Status: StatusValue, Val: 303},
	}
	for i, w := range want {
		if results[i].Status != w.Status || results[i].Val != w.Val {
			t.Fatalf("mixed EXEC op %d = %+v, want %+v", i, results[i], w)
		}
	}

	// Concurrent overlapping cross-shard transactions must not deadlock.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for id := 0; id < 8; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cc.Close()
			for round := 0; round < 10; round++ {
				ops := []Op{
					{Kind: OpSet, Key: 50, Arg1: uint64(id)},
					{Kind: OpSet, Key: 51, Arg1: uint64(id)},
					{Kind: OpSet, Key: 52, Arg1: uint64(id)},
					{Kind: OpSet, Key: uint64(60 + id), Arg1: uint64(round)},
				}
				if _, _, err := cc.Exec(ops); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The three co-written keys must agree (each EXEC wrote them together).
	a, _ := c.Get(50)
	b, _ := c.Get(51)
	d, _ := c.Get(52)
	if a.Val != b.Val || b.Val != d.Val {
		t.Fatalf("cross-shard atomicity violated: %d %d %d", a.Val, b.Val, d.Val)
	}
}

// TestServeConnPipe drives the full conn handler over a net.Pipe — no TCP —
// covering the error paths a well-behaved client never hits.
func TestServeConnPipe(t *testing.T) {
	s, err := New(Config{Shards: 2, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	srv, cli := net.Pipe()
	go s.ServeConn(srv)
	c, err := NewClient(cli)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Banner, "engine=SpecSPMT") || !strings.Contains(c.Banner, "shards=2") {
		t.Fatalf("banner = %q", c.Banner)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Unknown and malformed commands answer ERR but keep the session.
	raw := func(line string) string {
		t.Helper()
		if _, err := cli.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		reply, err := c.readLine()
		if err != nil {
			t.Fatal(err)
		}
		return string(reply)
	}
	if got := raw("BLORP 1"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("unknown command reply %q", got)
	}
	if got := raw("SET 1"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("malformed SET reply %q", got)
	}
	if got := raw("EXEC"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("EXEC without MULTI reply %q", got)
	}
	if got := raw("SET 1 11"); !strings.HasPrefix(got, "OK") {
		t.Fatalf("SET reply %q", got)
	}
	// MULTI then DISCARD leaves nothing behind.
	if got := raw("MULTI"); got != "OK" {
		t.Fatalf("MULTI reply %q", got)
	}
	if got := raw("SET 2 22"); got != "QUEUED" {
		t.Fatalf("queued SET reply %q", got)
	}
	if got := raw("MULTI"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("nested MULTI reply %q", got)
	}
	if got := raw("DISCARD"); got != "OK" {
		t.Fatalf("DISCARD reply %q", got)
	}
	if r, err := c.Get(2); err != nil || r.Status != StatusNotFound {
		t.Fatalf("discarded SET leaked: %+v %v", r, err)
	}
	if r, err := c.Get(1); err != nil || r.Val != 11 {
		t.Fatalf("GET 1: %+v %v", r, err)
	}
	// Empty EXEC is a no-op transaction.
	if rs, _, err := c.Exec(nil); err != nil || len(rs) != 0 {
		t.Fatalf("empty EXEC: %v %v", rs, err)
	}
	// An over-long line is a protocol error that ends the connection. The
	// write runs concurrently: net.Pipe is unbuffered, so the server replies
	// (and hangs up) before the full oversized line drains.
	go cli.Write([]byte(strings.Repeat("9", 2*MaxLineLen) + "\n"))
	reply, err := c.readLine()
	if err != nil || !strings.HasPrefix(string(reply), "ERR") {
		t.Fatalf("long line reply %q err %v", reply, err)
	}
	cli.Close()
}

// TestConnLimit checks that connections over MaxConns are refused with an
// ERR line.
func TestConnLimit(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1, MaxConns: 2})
	c1 := dialT(t, addr)
	defer c1.Close()
	c2 := dialT(t, addr)
	defer c2.Close()
	if _, err := Dial(addr, 200*time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "max connections") {
		t.Fatalf("third connection: %v, want max-connections refusal", err)
	}
}

// TestGracefulShutdownUnderLoad closes the server while requests are in
// flight: every outstanding request must complete or fail cleanly, and
// Close must return.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	s, addr := startServer(t, Config{Shards: 2})
	const conns = 8
	var wg sync.WaitGroup
	for id := 0; id < conns; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				return
			}
			defer c.conn.Close()
			for i := uint64(0); ; i++ {
				if _, err := c.Set(uint64(id)*100+i%10, i); err != nil {
					return // server draining: connection closed mid-stream
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond) // let traffic build
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not drain within 30s")
	}
	wg.Wait()
}

// TestCrashAfterUnstampedApply is the regression test for Crash racing the
// idle-time version-store rebuild (part of the -race run): a plain Apply
// carries no publication LSN, so it marks its store stale, and the rebuild
// that catches the store up must never run while Crash swaps the shard's
// engine thread and map. Afterwards every applied key survives, and the
// snapshot path serves it.
func TestCrashAfterUnstampedApply(t *testing.T) {
	s, err := New(Config{Shards: 2, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for round := uint64(1); round <= 20; round++ {
		if _, err := s.Apply([]Op{{Kind: OpSet, Key: round, Arg1: round}}, nil, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Crash(round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	c := pipeClient(t, s, "binary")
	for k := uint64(1); k <= 20; k++ {
		if r, err := c.Get(k); err != nil || r.Status != StatusValue || r.Val != k || !r.Snap {
			t.Fatalf("GET %d after crashes = %+v %v, want %d from a snapshot", k, r, err, k)
		}
	}
}
