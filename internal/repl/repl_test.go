package repl

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"specpmt/internal/server"
)

func startServer(t *testing.T, shards int) (*server.Server, string) {
	t.Helper()
	s, err := server.New(server.Config{Engine: "SpecSPMT", Shards: shards, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln.Addr().String()
}

func startPrimary(t *testing.T, srv *server.Server, opts PrimaryOptions) *Primary {
	t.Helper()
	opts.Logf = t.Logf
	p := NewPrimary(srv, opts)
	if err := p.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func startReplica(t *testing.T, srv *server.Server, primary *Primary) *Replica {
	t.Helper()
	r, err := NewReplica(srv, primary.Addr().String(), ReplicaOptions{
		RetryEvery: 20 * time.Millisecond,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Start()
	t.Cleanup(func() { r.Close() })
	return r
}

func dial(t *testing.T, addr string) *server.Client {
	t.Helper()
	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// waitBootstrapped waits until the replica's first snapshot has durably
// completed (it adopted the primary's stream id).
func waitBootstrapped(t *testing.T, r *Replica) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for r.Applier().PrimaryID() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica never bootstrapped")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitStreaming waits until the primary reports n streaming replicas.
func waitStreaming(t *testing.T, c *server.Client, n uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		nums, _, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if nums["repl_streaming"] >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d streaming replicas: %v", n, nums)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitApplied(t *testing.T, r *Replica, p *Primary) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for r.AppliedLSN() < p.Log().Head() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at lsn %d, primary head %d", r.AppliedLSN(), p.Log().Head())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// compareState asserts the replica answers every key in [0, keys) exactly
// like the primary.
func compareState(t *testing.T, primAddr, repAddr string, keys uint64) {
	t.Helper()
	pc, rc := dial(t, primAddr), dial(t, repAddr)
	var mismatches int
	for k := uint64(0); k < keys; k++ {
		pv, err := pc.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := rc.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if pv.Status != rv.Status || pv.Val != rv.Val {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("key %d: primary (%d,%d), replica (%d,%d)", k, pv.Status, pv.Val, rv.Status, rv.Val)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d keys diverged", mismatches, keys)
	}
}

// TestCatchUpFromEmpty is the acceptance-criteria test: a replica started
// from empty bootstraps via snapshot, tails the live log, and after quiesce
// serves GETs whose values match the primary.
func TestCatchUpFromEmpty(t *testing.T) {
	const keys = 200
	primSrv, primAddr := startServer(t, 4)
	primary := startPrimary(t, primSrv, PrimaryOptions{})
	c := dial(t, primAddr)

	// Pre-replica history: the replica must receive this via snapshot.
	for k := uint64(0); k < keys; k++ {
		if _, err := c.Set(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < keys; k += 17 {
		if _, err := c.Del(k); err != nil {
			t.Fatal(err)
		}
	}

	repSrv, repAddr := startServer(t, 4)
	replica := startReplica(t, repSrv, primary)
	waitApplied(t, replica, primary)

	// Post-connect history: the replica must receive this by tailing,
	// including cross-shard MULTI transactions.
	for k := uint64(0); k < keys; k += 3 {
		if _, err := c.Set(k, k+1_000_000); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 30; k++ {
		ops := []server.Op{
			{Kind: server.OpSet, Key: k, Arg1: k + 2_000_000},
			{Kind: server.OpSet, Key: k + 100, Arg1: k + 3_000_000},
			{Kind: server.OpDel, Key: k + 50},
		}
		if _, _, err := c.Exec(ops); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, replica, primary)
	compareState(t, primAddr, repAddr, keys+100)

	rc := dial(t, repAddr)
	nums, _, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if nums["repl_role_replica"] != 1 || nums["repl_snapshots"] < 1 {
		t.Fatalf("replica stats missing replication counters: %v", nums)
	}
	if nums["repl_lag"] != 0 {
		t.Fatalf("lag = %d after quiesce", nums["repl_lag"])
	}
	if nums["repl_applied_lsn"] != primary.Log().Head() {
		t.Fatalf("applied %d != head %d", nums["repl_applied_lsn"], primary.Log().Head())
	}
}

// TestKillAndResume severs the replica's connection repeatedly under live
// write load and asserts byte-for-byte convergence with no duplicate or
// lost applies: the total records applied across all reconnects must equal
// the primary's head LSN exactly.
func TestKillAndResume(t *testing.T) {
	const keys = 128
	primSrv, primAddr := startServer(t, 4)
	primary := startPrimary(t, primSrv, PrimaryOptions{})
	repSrv, repAddr := startServer(t, 4)
	// Replica attaches before any writes: its snapshot is cut at LSN 0, so
	// every record ever logged must flow through the tail exactly once.
	replica := startReplica(t, repSrv, primary)
	waitBootstrapped(t, replica)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	writerErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		c, err := server.Dial(primAddr, 5*time.Second)
		if err != nil {
			writerErr <- err
			return
		}
		defer c.Close()
		var i uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			if _, err := c.Set(i%keys, i); err != nil {
				writerErr <- err
				return
			}
			if i%10 == 0 {
				ops := []server.Op{
					{Kind: server.OpSet, Key: i % keys, Arg1: i},
					{Kind: server.OpSet, Key: (i + 31) % keys, Arg1: i + 1},
				}
				if _, _, err := c.Exec(ops); err != nil {
					writerErr <- err
					return
				}
			}
		}
	}()

	for i := 0; i < 4; i++ {
		time.Sleep(40 * time.Millisecond)
		replica.DropConn()
	}
	time.Sleep(40 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatal(err)
	default:
	}

	waitApplied(t, replica, primary)
	compareState(t, primAddr, repAddr, keys)

	rc := dial(t, repAddr)
	nums, _, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	head := primary.Log().Head()
	if head == 0 {
		t.Fatal("no records were logged; test drove no load")
	}
	if nums["repl_records_applied"] != head {
		t.Fatalf("records applied %d != head lsn %d: lost or duplicate applies across reconnects",
			nums["repl_records_applied"], head)
	}
	if nums["repl_reconnects"] == 0 {
		t.Fatal("DropConn never forced a reconnect")
	}
	t.Logf("head=%d records_applied=%d reconnects=%d snapshots=%d",
		head, nums["repl_records_applied"], nums["repl_reconnects"], nums["repl_snapshots"])
}

// TestEvictionForcesResnapshot pushes a disconnected replica off the
// primary's bounded log and asserts it converges anyway — via a second
// snapshot rather than a resume.
func TestEvictionForcesResnapshot(t *testing.T) {
	const keys = 64
	primSrv, primAddr := startServer(t, 2)
	primary := startPrimary(t, primSrv, PrimaryOptions{LogCap: 32})
	repSrv, repAddr := startServer(t, 2)
	replica := startReplica(t, repSrv, primary)
	waitApplied(t, replica, primary)
	replica.Close()

	c := dial(t, primAddr)
	for i := uint64(0); i < 200; i++ { // 200 records >> LogCap 32
		if _, err := c.Set(i%keys, i); err != nil {
			t.Fatal(err)
		}
	}

	replica2 := startReplica(t, repSrv, primary)
	waitApplied(t, replica2, primary)
	compareState(t, primAddr, repAddr, keys)
	rc := dial(t, repAddr)
	nums, _, err := rc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if nums["repl_snapshots"] != 1 {
		t.Fatalf("replica2 bootstrapped %d times, want exactly 1 (re-snapshot after eviction)", nums["repl_snapshots"])
	}
}

// TestPromote flips a caught-up replica into a writable primary via the
// wire-level PROMOTE command.
func TestPromote(t *testing.T) {
	primSrv, primAddr := startServer(t, 4)
	primary := startPrimary(t, primSrv, PrimaryOptions{})
	repSrv, repAddr := startServer(t, 4)
	replica := startReplica(t, repSrv, primary)

	c := dial(t, primAddr)
	for k := uint64(0); k < 50; k++ {
		if _, err := c.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, replica, primary)

	rc := dial(t, repAddr)
	if _, err := rc.Set(1, 1); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("write on replica: err = %v, want read-only rejection", err)
	}
	if err := rc.Promote(); err != nil {
		t.Fatal(err)
	}
	if r, err := rc.Set(1, 777); err != nil || r.Status != server.StatusOK {
		t.Fatalf("write after promote: %v / %+v", err, r)
	}
	if r, err := rc.Get(1); err != nil || r.Val != 777 {
		t.Fatalf("read after promote: %v / %+v", err, r)
	}
	// The pre-promotion history must have survived.
	if r, err := rc.Get(40); err != nil || r.Val != 40 {
		t.Fatalf("replicated key after promote: %v / %+v", err, r)
	}
	if err := rc.Promote(); err == nil {
		t.Fatal("second PROMOTE succeeded; want 'not a replica'")
	}
}

// TestSyncAck asserts wait-for-ack commits: when the SET returns, the
// replica has already applied it — and with no replica connected the
// primary degrades to async rather than stalling.
func TestSyncAck(t *testing.T) {
	primSrv, primAddr := startServer(t, 4)
	primary := startPrimary(t, primSrv, PrimaryOptions{Sync: SyncAck, AckTimeout: 5 * time.Second})
	repSrv, _ := startServer(t, 4)
	replica := startReplica(t, repSrv, primary)
	waitBootstrapped(t, replica)

	c := dial(t, primAddr)
	waitStreaming(t, c, 1)
	for i := uint64(0); i < 20; i++ {
		if _, err := c.Set(i, i); err != nil {
			t.Fatal(err)
		}
		if applied, head := replica.AppliedLSN(), primary.Log().Head(); applied < head {
			t.Fatalf("SET %d returned with replica at lsn %d, head %d: ack was not awaited", i, applied, head)
		}
	}

	replica.Close()
	start := time.Now()
	if _, err := c.Set(999, 999); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("degraded SET took %v; want immediate async fallback", d)
	}
}

// TestStatsHookOnPrimary sanity-checks the primary's replication STATS.
func TestStatsHookOnPrimary(t *testing.T) {
	primSrv, primAddr := startServer(t, 2)
	primary := startPrimary(t, primSrv, PrimaryOptions{})
	repSrv, _ := startServer(t, 2)
	replica := startReplica(t, repSrv, primary)

	c := dial(t, primAddr)
	for i := uint64(0); i < 10; i++ {
		if _, err := c.Set(i, i); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, replica, primary)
	// The replica applies a record before its ack reaches the primary, so
	// quiesce means the ack is back too: poll until it is, or time out.
	var nums map[string]uint64
	deadline := time.Now().Add(15 * time.Second)
	for {
		var err error
		if nums, _, err = c.Stats(); err != nil {
			t.Fatal(err)
		}
		if nums["repl_min_acked_lsn"] == nums["repl_head_lsn"] || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if nums["repl_role_primary"] != 1 || nums["repl_replicas"] != 1 || nums["repl_streaming"] != 1 {
		t.Fatalf("primary stats: %v", nums)
	}
	if nums["repl_head_lsn"] == 0 || nums["repl_min_acked_lsn"] != nums["repl_head_lsn"] {
		t.Fatalf("acked/head mismatch after quiesce: %v", nums)
	}
	var shardTx uint64
	for i := 0; i < 2; i++ {
		shardTx += nums[fmt.Sprintf("shard%d_tx_committed", i)]
	}
	if shardTx == 0 {
		t.Fatalf("per-shard commit counters missing: %v", nums)
	}
	if _, ok := nums["uptime_ms"]; !ok {
		t.Fatalf("uptime missing: %v", nums)
	}
}
