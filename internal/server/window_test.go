package server

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// enqueueHeld queues jobs on shard 0 inside a Freeze, so nothing commits
// them while they are queued, then commits through each in order: the
// batches then depend only on MaxBatch — never on how fast the host runs
// the enqueuer.
func enqueueHeld(t *testing.T, s *Server, jobs []*job) {
	t.Helper()
	err := s.Freeze(func() {
		for _, j := range jobs {
			s.shards[0].enqueue(j)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		s.commitThrough(j)
	}
}

// setJobs builds n single-SET jobs over `keys` distinct keys.
func setJobs(n, keys int) []*job {
	jobs := make([]*job, n)
	for i := range jobs {
		j := &job{}
		j.ops = append(j.ops, Op{Kind: OpSet, Key: uint64(i % keys), Arg1: uint64(i)})
		jobs[i] = j
	}
	return jobs
}

// runSets pushes n single-SET jobs, queued together behind a Freeze, through
// a fresh one-shard server with the given batch cap and returns the engine
// fence delta.
func runSets(t *testing.T, maxBatch, n int) uint64 {
	t.Helper()
	s, err := New(Config{
		Shards:   1,
		PoolSize: 64 << 20,
		MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Counters()
	jobs := setJobs(n, n)
	enqueueHeld(t, s, jobs)
	for _, j := range jobs {
		if len(j.results) != 1 || j.results[0].Status != StatusOK {
			t.Fatalf("maxBatch=%d: bad result %+v", maxBatch, j.results)
		}
	}
	after := s.Counters()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return after.Fences - before.Fences
}

// TestPublishedStatsCoverEveryReply: a combiner publishes its STATS snapshot
// before it releases a batch's replies, so once the last reply has arrived
// the published counters already account for every commit the engine made.
func TestPublishedStatsCoverEveryReply(t *testing.T) {
	s, err := New(Config{Shards: 1, PoolSize: 64 << 20, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.startup()
	beforeStats, _, _ := s.shards[0].published()
	beforeLive := s.Counters()
	// The whole load is queued before any of it commits, so it coalesces
	// deterministically.
	jobs := setJobs(60, 7)
	enqueueHeld(t, s, jobs)
	for _, j := range jobs {
		if len(j.results) != 1 || j.results[0].Status != StatusOK {
			t.Fatalf("bad result %+v", j.results)
		}
	}
	afterStats, _, _ := s.shards[0].published()
	afterLive := s.Counters()
	commits := afterStats.TxCommitted - beforeStats.TxCommitted
	if live := afterLive.TxCommitted - beforeLive.TxCommitted; commits != live || commits == 0 {
		t.Fatalf("published snapshot counts %d commits, engine made %d", commits, live)
	}
	if fences, live := afterStats.Fences-beforeStats.Fences, afterLive.Fences-beforeLive.Fences; fences != live {
		t.Fatalf("published snapshot counts %d fences, engine issued %d", fences, live)
	}
}

// TestBinaryWindowedLoopback runs concurrent binary-protocol connections,
// each keeping a window of frames in flight, and checks per-connection
// read-your-writes ordering — a reply stream that reordered or dropped a
// reply fails immediately. This test is part of the -race CI step.
func TestBinaryWindowedLoopback(t *testing.T) {
	_, addr := startServer(t, Config{
		Engine:   "SpecSPMT",
		Shards:   4,
		MaxBatch: 8,
	})
	const conns, rounds, window = 8, 120, 16
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for id := 0; id < conns; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialProto(addr, 5*time.Second, "binary")
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			type sent struct {
				kind OpKind
				key  uint64
				want uint64
			}
			var inflight []sent
			recvOne := func() error {
				r, err := c.RecvResult()
				if err != nil {
					return err
				}
				sd := inflight[0]
				inflight = inflight[1:]
				switch sd.kind {
				case OpSet:
					if r.Status != StatusOK {
						return fmt.Errorf("conn %d SET %d: %v", id, sd.key, r.Status)
					}
				case OpGet:
					if r.Status != StatusValue || r.Val != sd.want {
						return fmt.Errorf("conn %d GET %d = (%v,%d), want %d", id, sd.key, r.Status, r.Val, sd.want)
					}
				}
				return nil
			}
			last := map[uint64]uint64{}
			for i := 0; i < rounds; i++ {
				k := uint64(id*1000 + i%13)
				v := uint64(i + 1)
				if err := c.SendOp(Op{Kind: OpSet, Key: k, Arg1: v}); err != nil {
					errs <- err
					return
				}
				last[k] = v
				inflight = append(inflight, sent{OpSet, k, v})
				// Read-your-writes: a GET queued behind the SET on the same
				// connection must observe it, even in the same window.
				if err := c.SendOp(Op{Kind: OpGet, Key: k}); err != nil {
					errs <- err
					return
				}
				inflight = append(inflight, sent{OpGet, k, v})
				for len(inflight) >= window {
					if err := recvOne(); err != nil {
						errs <- err
						return
					}
				}
			}
			for len(inflight) > 0 {
				if err := recvOne(); err != nil {
					errs <- err
					return
				}
			}
			// Final closed-loop check of every key this connection owns.
			for k, v := range last {
				r, err := c.Get(k)
				if err != nil || r.Status != StatusValue || r.Val != v {
					errs <- fmt.Errorf("conn %d final GET %d = (%+v, %v), want %d", id, k, r, err, v)
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
}

// TestWindowReadYourWrites pins the queuedAhead diversion: a GET sent in
// the same window as a SET to its key must not be served from the MVCC
// snapshot (which may not hold the SET yet) but queue behind the SET, and
// report the value just written.
func TestWindowReadYourWrites(t *testing.T) {
	_, addr := startServer(t, Config{
		Engine:   "SpecSPMT",
		Shards:   1,
		MaxBatch: 4,
	})
	c, err := DialProto(addr, 5*time.Second, "binary")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 32
	for i := 0; i < n; i++ {
		if err := c.SendOp(Op{Kind: OpSet, Key: 42, Arg1: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := c.SendOp(Op{Kind: OpGet, Key: 42}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if r, err := c.RecvResult(); err != nil || r.Status != StatusOK {
			t.Fatalf("SET %d: %+v %v", i, r, err)
		}
		if r, err := c.RecvResult(); err != nil || r.Status != StatusValue || r.Val != uint64(i) {
			t.Fatalf("GET after SET %d = %+v, %v", i, r, err)
		}
	}
}

// TestWindowedCrossShardMulti checks that MULTI...EXEC transactions
// spanning shards commit atomically between windows of single-shard SETs
// on the same shards.
func TestWindowedCrossShardMulti(t *testing.T) {
	_, addr := startServer(t, Config{
		Engine:   "SpecSPMT",
		Shards:   4,
		MaxBatch: 8,
	})
	c, err := DialProto(addr, 5*time.Second, "binary")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 20; round++ {
		// A window of SETs spread over every shard.
		for k := uint64(0); k < 16; k++ {
			if err := c.SendOp(Op{Kind: OpSet, Key: k, Arg1: uint64(round)}); err != nil {
				t.Fatal(err)
			}
		}
		// 8 consecutive keys always span more than one of 4 shards.
		ops := make([]Op, 0, 8)
		for k := uint64(0); k < 8; k++ {
			ops = append(ops, Op{Kind: OpSet, Key: k, Arg1: uint64(round*100) + k})
		}
		// Drain the window first: Exec is synchronous on this connection.
		for i := 0; i < 16; i++ {
			if r, err := c.RecvResult(); err != nil || r.Status != StatusOK {
				t.Fatalf("round %d seed SET %d: %+v %v", round, i, r, err)
			}
		}
		res, _, err := c.Exec(ops)
		if err != nil {
			t.Fatalf("round %d EXEC: %v", round, err)
		}
		for i, r := range res {
			if r.Status != StatusOK {
				t.Fatalf("round %d EXEC op %d: %v", round, i, r.Status)
			}
		}
		for k := uint64(0); k < 8; k++ {
			r, err := c.Get(k)
			if err != nil || r.Status != StatusValue || r.Val != uint64(round*100)+k {
				t.Fatalf("round %d GET %d = %+v, %v", round, k, r, err)
			}
		}
	}
}

// sendRaw puts lines on the wire in one Write.
func sendRaw(c *Client, lines string) error {
	c.bw.WriteString(lines)
	return c.Flush()
}

// barrierServer is a one-shard server for the barrier tests. A barrier
// verb run inside a dispatch window deadlocks the handler, and Close would
// wait for it forever, so a failed test leaves the server open.
func barrierServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Shards: 1, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if !t.Failed() {
			s.Close()
		}
	})
	return s
}

// within fails the test when fn does not return within d, hanging up c so
// nothing else blocks on it — a barrier verb run inside a dispatch window
// hangs instead of failing.
func within(t *testing.T, c *Client, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		c.conn.Close()
		t.Fatalf("%s: no reply within %v", what, d)
	}
}

// expectLine reads one reply line and checks its prefix.
func expectLine(c *Client, prefix string) (string, error) {
	line, err := c.readLine()
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(string(line), prefix) {
		return "", fmt.Errorf("got %q, want %s...", line, prefix)
	}
	return string(line), nil
}

// TestBarrierLSNAfterQueuedSet: LSN pipelined behind a SET must wait for it.
// Inside the SET's window the token would be taken before the SET
// publishes, and a GETAT carrying it could not promise the SET.
func TestBarrierLSNAfterQueuedSet(t *testing.T) {
	s := barrierServer(t)
	c := pipeClient(t, s, "text")
	within(t, c, 10*time.Second, "SET+LSN", func() error {
		if err := sendRaw(c, "SET 5 77\nLSN\n"); err != nil {
			return err
		}
		if _, err := expectLine(c, "OK"); err != nil {
			return err
		}
		line, err := expectLine(c, "LSN ")
		if err != nil {
			return err
		}
		token, err := strconv.ParseUint(strings.TrimPrefix(line, "LSN "), 10, 64)
		if err != nil {
			return err
		}
		if pub := s.PublishedLSN(); token < pub {
			return fmt.Errorf("LSN token %d is older than the SET it follows (published %d)", token, pub)
		}
		if r, err := c.GetAt(5, token); err != nil || r.Status != StatusValue || r.Val != 77 {
			return fmt.Errorf("GETAT 5 %d = %+v %v", token, r, err)
		}
		return nil
	})
}

// TestBarrierExtApplyBehindQueuedSet: an extension verb whose hook calls
// Apply, pipelined behind a SET, must complete.
func TestBarrierExtApplyBehindQueuedSet(t *testing.T) {
	s := barrierServer(t)
	s.OnExtCommand(func(verb string, args [][]byte) ([]byte, bool) {
		if verb != "APPLYSET" {
			return nil, false
		}
		if _, err := s.Apply([]Op{{Kind: OpSet, Key: 9, Arg1: 1}}, nil, nil); err != nil {
			return []byte("ERR " + err.Error() + "\n"), true
		}
		return []byte("APPLIED\n"), true
	})
	c := pipeClient(t, s, "text")
	within(t, c, 10*time.Second, "SET+APPLYSET", func() error {
		if err := sendRaw(c, "SET 5 1\nAPPLYSET\n"); err != nil {
			return err
		}
		if _, err := expectLine(c, "OK"); err != nil {
			return err
		}
		_, err := expectLine(c, "APPLIED")
		return err
	})
}

// TestBarrierGetAtBehindQueuedSet: a GETAT waiting for the LSN of a SET
// pipelined ahead of it must be answered at once. Inside the SET's window
// it would wait out getAtTimeout for a SET only its own handler, blocked in
// that wait, is bound to commit.
func TestBarrierGetAtBehindQueuedSet(t *testing.T) {
	s := barrierServer(t)
	c := pipeClient(t, s, "text")
	within(t, c, getAtTimeout/2, "SET+GETAT", func() error {
		if err := sendRaw(c, fmt.Sprintf("SET 5 42\nGETAT 5 %d\n", s.PublishedLSN()+1)); err != nil {
			return err
		}
		if _, err := expectLine(c, "OK"); err != nil {
			return err
		}
		r, err := c.RecvResult()
		if err != nil || r.Status != StatusValue || r.Val != 42 {
			return fmt.Errorf("GETAT behind the SET = %+v %v", r, err)
		}
		return nil
	})
}

// TestCodecAllocs: a text GET or SET round trip allocates no more than a
// binary one, client and server together.
func TestCodecAllocs(t *testing.T) {
	s, err := New(Config{Shards: 1, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	allocs := map[string][2]float64{}
	for _, proto := range []string{"text", "binary"} {
		c := pipeClient(t, s, proto)
		if _, err := c.Set(1, 1); err != nil {
			t.Fatal(err)
		}
		get := testing.AllocsPerRun(200, func() { c.Get(1) })
		set := testing.AllocsPerRun(200, func() { c.Set(1, 2) })
		allocs[proto] = [2]float64{get, set}
	}
	txt, bin := allocs["text"], allocs["binary"]
	t.Logf("allocs per round trip: text GET %v SET %v, binary GET %v SET %v", txt[0], txt[1], bin[0], bin[1])
	if txt[0] > bin[0] || txt[1] > bin[1] {
		t.Fatalf("text allocates more than binary: GET %v > %v or SET %v > %v", txt[0], bin[0], txt[1], bin[1])
	}
}
