package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSnapshotGetBasics pins the text-protocol surface of the snapshot-read
// subsystem: GETs and single-shard read-only MULTIs carry the s=1 marker and
// count in STATS, LSN hands out the published watermark, and GETAT serves
// read-your-writes against a token on the same server.
func TestSnapshotGetBasics(t *testing.T) {
	s, addr := startServer(t, Config{Engine: "SpecSPMT", Shards: 1})
	c := dialT(t, addr)
	defer c.Close()

	if r, err := c.Set(7, 70); err != nil || r.Status != StatusOK {
		t.Fatalf("SET: %+v %v", r, err)
	}
	r, err := c.Get(7)
	if err != nil || r.Status != StatusValue || r.Val != 70 {
		t.Fatalf("GET: %+v %v", r, err)
	}
	if !r.Snap {
		t.Fatalf("GET not served from snapshot: %+v", r)
	}
	if r.ModelNs != 0 {
		t.Fatalf("snapshot GET modeled time = %d, want 0", r.ModelNs)
	}
	if r, err := c.Get(999); err != nil || r.Status != StatusNotFound || !r.Snap {
		t.Fatalf("GET missing: %+v %v", r, err)
	}

	token, err := c.LSN()
	if err != nil || token == 0 {
		t.Fatalf("LSN: %d %v", token, err)
	}
	// GETAT at the current token answers immediately with a fresh token.
	ra, err := c.GetAt(7, token)
	if err != nil || ra.Status != StatusValue || ra.Val != 70 {
		t.Fatalf("GETAT: %+v %v", ra, err)
	}
	if ra.LSN < token {
		t.Fatalf("GETAT token regressed: got lsn=%d, sent %d", ra.LSN, token)
	}

	// Single-shard read-only MULTI: whole block from one snapshot.
	results, ns, err := c.Exec([]Op{{Kind: OpGet, Key: 7}, {Kind: OpGet, Key: 999}})
	if err != nil || len(results) != 2 {
		t.Fatalf("EXEC: %v %v", results, err)
	}
	if results[0].Status != StatusValue || results[0].Val != 70 || results[1].Status != StatusNotFound {
		t.Fatalf("EXEC results: %+v", results)
	}
	if ns != 0 {
		t.Fatalf("read-only MULTI modeled time = %d, want 0 (snapshot)", ns)
	}
	if got := s.snapMultis.Load(); got != 1 {
		t.Fatalf("snapshot_multis = %d, want 1", got)
	}
	if got := s.SnapshotReads(); got < 3 {
		t.Fatalf("snapshot_reads = %d, want >= 3", got)
	}

	nums, _, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, stat := range []string{"mvcc_enabled", "snapshot_reads", "snapshot_multis",
		"snapshot_fallbacks", "versions_live", "version_reclaims", "published_lsn"} {
		if _, ok := nums[stat]; !ok {
			t.Errorf("STATS missing %q", stat)
		}
	}
	if nums["mvcc_enabled"] != 1 {
		t.Errorf("mvcc_enabled = %d", nums["mvcc_enabled"])
	}
	if nums["snapshot_reads"] == 0 || nums["published_lsn"] == 0 {
		t.Errorf("snapshot_reads=%d published_lsn=%d, want non-zero",
			nums["snapshot_reads"], nums["published_lsn"])
	}
}

// TestSnapshotBinaryGet pins the binary protocol's SNAPREPLY frame: a
// single GET frame is served from the snapshot path and decodes with
// Snap=true.
func TestSnapshotBinaryGet(t *testing.T) {
	s, addr := startServer(t, Config{Engine: "SpecSPMT", Shards: 2})
	c, err := DialProto(addr, 5*time.Second, "binary")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r, err := c.Set(3, 33); err != nil || r.Status != StatusOK {
		t.Fatalf("SET: %+v %v", r, err)
	}
	r, err := c.Get(3)
	if err != nil || r.Status != StatusValue || r.Val != 33 || !r.Snap {
		t.Fatalf("binary GET: %+v %v", r, err)
	}
	// A multi-GET frame on one shard is a snapshot MULTI.
	var k2 uint64
	for k2 = 100; ShardOf(k2, 2) != ShardOf(3, 2); k2++ {
	}
	results, ns, err := c.Exec([]Op{{Kind: OpGet, Key: 3}, {Kind: OpGet, Key: k2}})
	if err != nil || len(results) != 2 {
		t.Fatalf("EXEC: %v %v", results, err)
	}
	if !results[0].Snap || ns != 0 {
		t.Fatalf("binary read-only MULTI not snapshot-served: %+v ns=%d", results, ns)
	}
	if got := s.snapMultis.Load(); got != 1 {
		t.Fatalf("snapshot_multis = %d, want 1", got)
	}
}

// TestSnapshotCrossShardMultiFallsBack pins the consistency decision: a
// read-only MULTI spanning shards must NOT be served from per-shard
// snapshots (their watermarks advance independently), so it takes the
// queued path.
func TestSnapshotCrossShardMultiFallsBack(t *testing.T) {
	s, addr := startServer(t, Config{Engine: "SpecSPMT", Shards: 4})
	c := dialT(t, addr)
	defer c.Close()
	var k2 uint64
	for k2 = 1; ShardOf(k2, 4) == ShardOf(0, 4); k2++ {
	}
	if _, err := c.Set(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set(k2, 2); err != nil {
		t.Fatal(err)
	}
	results, _, err := c.Exec([]Op{{Kind: OpGet, Key: 0}, {Kind: OpGet, Key: k2}})
	if err != nil || len(results) != 2 || results[0].Val != 1 || results[1].Val != 2 {
		t.Fatalf("EXEC: %v %v", results, err)
	}
	if got := s.snapMultis.Load(); got != 0 {
		t.Fatalf("cross-shard MULTI counted as snapshot multi (%d)", got)
	}
}

// TestSnapshotDisabled pins -mvcc=false: reads work, nothing is
// snapshot-served, and GETAT still functions through the queued path
// (published LSNs advance regardless).
func TestSnapshotDisabled(t *testing.T) {
	s, addr := startServer(t, Config{Engine: "SpecSPMT", Shards: 1, NoMVCC: true})
	c := dialT(t, addr)
	defer c.Close()
	if _, err := c.Set(1, 10); err != nil {
		t.Fatal(err)
	}
	r, err := c.Get(1)
	if err != nil || r.Status != StatusValue || r.Val != 10 {
		t.Fatalf("GET: %+v %v", r, err)
	}
	if r.Snap {
		t.Fatal("NoMVCC server served a snapshot read")
	}
	if got := s.SnapshotReads(); got != 0 {
		t.Fatalf("snapshot_reads = %d with MVCC off", got)
	}
	token, err := c.LSN()
	if err != nil || token == 0 {
		t.Fatalf("LSN: %d %v", token, err)
	}
	ra, err := c.GetAt(1, token)
	if err != nil || ra.Status != StatusValue || ra.Val != 10 || ra.Snap {
		t.Fatalf("GETAT with MVCC off: %+v %v", ra, err)
	}
	if ra.LSN < token {
		t.Fatalf("GETAT lsn=%d below token %d", ra.LSN, token)
	}
}

// TestSnapshotLinearizable checks the visibility invariant under
// concurrency: one writer bumps a key through acknowledged SETs while
// readers hammer snapshot GETs. A reader must never observe a value ahead
// of the writer's in-flight write (writes are acknowledged one at a time,
// and installation precedes the ack), and each reader's observed values
// must be monotonic (the snapshot watermark never goes backwards).
func TestSnapshotLinearizable(t *testing.T) {
	_, addr := startServer(t, Config{
		Engine: "SpecSPMT", Shards: 1, MaxBatch: 4,
	})
	const key = 42
	var acked atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 9)

	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Dial(addr, 5*time.Second)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for v := uint64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Set(key, v); err != nil {
				errs <- err
				return
			}
			acked.Store(v)
		}
	}()
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			var last uint64
			snapped := false
			for {
				select {
				case <-stop:
					if !snapped {
						errs <- fmt.Errorf("reader never hit the snapshot path")
					}
					return
				default:
				}
				r, err := c.Get(key)
				if err != nil {
					errs <- err
					return
				}
				snapped = snapped || r.Snap
				v := uint64(0)
				if r.Status == StatusValue {
					v = r.Val
				}
				// One write is in flight at most, and installs precede acks:
				// an observed value may lead the ack by exactly one.
				if hi := acked.Load() + 1; v > hi {
					errs <- fmt.Errorf("observed %d ahead of acked+1 = %d", v, hi)
					return
				}
				if v < last {
					errs <- fmt.Errorf("non-monotonic read: %d after %d", v, last)
					return
				}
				last = v
			}
		}()
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// runReadHeavy drives a ~90/10 read-heavy mixed load over binary
// pipelined connections (bursts of depth frames per flush, as
// specpmt-load's pipelined mode does): readers conns run pure GETs and
// writers conns run pure SETs concurrently — the read-throughput-at-a-
// write-rate shape of the EXPERIMENTS matrix. Returns the number of GETs
// the readers completed in dur.
func runReadHeavy(t *testing.T, addr string, readers, writers, depth int, dur time.Duration) uint64 {
	t.Helper()
	var gets atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers)
	conn := func(i int, write bool) {
		defer wg.Done()
		c, err := DialProto(addr, 5*time.Second, "binary")
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		n := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for f := 0; f < depth; f++ {
				n++
				k := (uint64(i)*7919 + n) % 1024
				op := Op{Kind: OpGet, Key: k}
				if write {
					op = Op{Kind: OpSet, Key: k, Arg1: n}
				}
				if err := c.SendOp(op); err != nil {
					errs <- err
					return
				}
			}
			for f := 0; f < depth; f++ {
				if _, err := c.RecvResult(); err != nil {
					errs <- err
					return
				}
			}
			if !write {
				gets.Add(uint64(depth))
			}
		}
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go conn(i, false)
	}
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go conn(readers+i, true)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return gets.Load()
}

// TestSnapshotServedShare is the host-independent half of the snapshot-read
// acceptance gate: under a 90/10 read-heavy load, the MVCC path must serve
// the majority of the readers' GETs off the worker queues. How much faster
// that makes them is the repository benchmark's question (read-text), not
// tier-1's.
func TestSnapshotServedShare(t *testing.T) {
	s, addr := startServer(t, Config{Engine: "SpecSPMT", Shards: 4, MaxBatch: 8})
	gets := runReadHeavy(t, addr, 8, 1, 4, 400*time.Millisecond)
	if gets == 0 {
		t.Fatal("readers completed no GETs")
	}
	share := float64(s.SnapshotReads()) / float64(gets)
	t.Logf("snapshot-served %d of %d GETs (%.1f%%)", s.SnapshotReads(), gets, 100*share)
	if share <= 0.5 {
		t.Fatalf("snapshot path served %.1f%% of GETs, want > 50%%", 100*share)
	}
}
