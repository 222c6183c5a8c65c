package server

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// enqueueHeld queues jobs on shard 0 while every worker is parked in a
// Freeze and releases them together, so the batches the worker then forms
// depend only on MaxBatch and PipelineDepth — never on how fast the host
// runs the enqueuer against the worker. len(jobs) must fit the shard queue.
func enqueueHeld(t *testing.T, s *Server, jobs []*job) {
	t.Helper()
	if len(jobs) > cap(s.shards[0].jobs) {
		t.Fatalf("%d held jobs exceed the shard queue (%d)", len(jobs), cap(s.shards[0].jobs))
	}
	err := s.Freeze(func() {
		for _, j := range jobs {
			s.shards[0].jobs <- j
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// setJobs builds n single-SET jobs over `keys` distinct keys.
func setJobs(n, keys int) []*job {
	jobs := make([]*job, n)
	for i := range jobs {
		j := newJob()
		j.ops = append(j.ops, Op{Kind: OpSet, Key: uint64(i % keys), Arg1: uint64(i)})
		jobs[i] = j
	}
	return jobs
}

// runSets pushes n single-SET jobs, queued together behind a Freeze, through
// a fresh one-shard server with the given batching/pipelining shape and
// returns the engine fence and commit deltas.
func runSets(t *testing.T, maxBatch, depth, n int) (fences, commits uint64) {
	t.Helper()
	s, err := New(Config{
		Shards:        1,
		PoolSize:      64 << 20,
		MaxBatch:      maxBatch,
		PipelineDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Counters()
	jobs := setJobs(n, n)
	enqueueHeld(t, s, jobs)
	for _, j := range jobs {
		<-j.done
	}
	for _, j := range jobs {
		if len(j.results) != 1 || j.results[0].Status != StatusOK {
			t.Fatalf("maxBatch=%d depth=%d: bad result %+v", maxBatch, depth, j.results)
		}
	}
	after := s.Counters()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return after.Fences - before.Fences, after.TxCommitted - before.TxCommitted
}

// TestPipelinedFencesPerOp is the fences-per-op regression gate: group
// commit amortizes the fence over a batch, and pipelining amortizes it again
// over a window of batches, so the three shapes must order strictly:
//
//	pipelined < batched < unbatched
func TestPipelinedFencesPerOp(t *testing.T) {
	const n = 40
	unbatched, _ := runSets(t, 1, 1, n)
	batched, _ := runSets(t, 8, 1, n)
	pipelined, _ := runSets(t, 8, 4, n)
	t.Logf("fences per SET: unbatched=%.2f batched=%.2f pipelined=%.2f",
		float64(unbatched)/n, float64(batched)/n, float64(pipelined)/n)
	if unbatched < n {
		t.Fatalf("unbatched must fence at least once per SET: %d/%d", unbatched, n)
	}
	if batched >= unbatched {
		t.Fatalf("group commit did not reduce fences: batched=%d unbatched=%d", batched, unbatched)
	}
	if pipelined >= batched {
		t.Fatalf("pipelining did not reduce fences further: pipelined=%d batched=%d", pipelined, batched)
	}
}

// TestParkedSpeculativeReplies drives a depth-4 pipeline and checks the
// retire machinery's observable invariants: every reply arrives, nothing
// aborted-and-replayed, the parked gauge drains to zero, the engine issued
// fewer fences than transactions (the speculative fences really coalesced),
// and the shard's published STATS snapshot is a fence-time cut that already
// covers every committed transaction.
func TestParkedSpeculativeReplies(t *testing.T) {
	s, err := New(Config{
		Shards:        1,
		PoolSize:      64 << 20,
		MaxBatch:      8,
		PipelineDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.startWorkers()
	beforeStats, _, _ := s.shards[0].published()
	// The whole load is queued before the worker is released, so it
	// coalesces deterministically.
	jobs := setJobs(60, 7)
	enqueueHeld(t, s, jobs)
	for _, j := range jobs {
		<-j.done
		if len(j.results) != 1 || j.results[0].Status != StatusOK {
			t.Fatalf("bad result %+v", j.results)
		}
	}
	if got := s.specAborts.Load(); got != 0 {
		t.Fatalf("spec aborts = %d on a conflict-free workload", got)
	}
	// Every reply we received was released by the retirer, so the parked
	// gauge must be back to zero the moment the last done fires.
	if parked := s.shards[0].parked.Load(); parked != 0 {
		t.Fatalf("parked gauge = %d after all replies", parked)
	}
	// The published snapshot was cut AFTER the retire fence that released
	// the final reply: it must already account for every commit and show
	// the fence amortization.
	afterStats, _, _ := s.shards[0].published()
	commits := afterStats.TxCommitted - beforeStats.TxCommitted
	fences := afterStats.Fences - beforeStats.Fences
	if commits == 0 {
		t.Fatal("published snapshot saw no commits")
	}
	if fences >= commits {
		t.Fatalf("pipelined run published fences=%d >= commits=%d", fences, commits)
	}
}

// TestBinaryPipelinedLoopback runs concurrent binary-protocol connections,
// each keeping a window of frames in flight against a pipelined server, and
// checks per-connection read-your-writes ordering — a reply stream that
// reordered or dropped a parked reply fails immediately. This test is part
// of the -race CI step.
func TestBinaryPipelinedLoopback(t *testing.T) {
	s, addr := startServer(t, Config{
		Engine:        "SpecSPMT",
		Shards:        4,
		MaxBatch:      8,
		PipelineDepth: 4,
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
				// connection must observe it, even while both are parked.
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
	if got := s.specAborts.Load(); got != 0 {
		t.Fatalf("spec aborts = %d", got)
	}
}

// TestPipelinedReadYourWrites pins the read-parking path specifically: with
// speculative batches pending, a read-only batch must park behind the same
// retire fence instead of replying early (runBatch's readOnly branch), and
// the value it reports must be the speculative one.
func TestPipelinedReadYourWrites(t *testing.T) {
	_, addr := startServer(t, Config{
		Engine:        "SpecSPMT",
		Shards:        1,
		MaxBatch:      4,
		PipelineDepth: 8,
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

// TestPipelinedCrossShardDrain checks that MULTI...EXEC transactions spanning
// shards still commit atomically when every involved worker first has to
// retire and drain a speculative window.
func TestPipelinedCrossShardDrain(t *testing.T) {
	_, addr := startServer(t, Config{
		Engine:        "SpecSPMT",
		Shards:        4,
		MaxBatch:      8,
		PipelineDepth: 4,
	})
	c, err := DialProto(addr, 5*time.Second, "binary")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 20; round++ {
		// Seed traffic so windows are speculatively parked on several shards.
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
