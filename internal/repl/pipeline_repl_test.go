package repl

import (
	"net"
	"testing"
	"time"

	"specpmt/internal/server"
)

// TestPipelinedPrimaryConvergence replicates from a primary running the
// binary protocol with depth-4 speculative pipelining. The retirer publishes
// every batch's writes to the replication log only after its retire fence,
// in commit order, so the replica must converge byte-for-byte even though
// the primary acknowledged whole windows of writes with coalesced fences —
// and the applied LSN must land exactly on the primary's head.
func TestPipelinedPrimaryConvergence(t *testing.T) {
	primSrv, err := server.New(server.Config{
		Engine:        "SpecSPMT",
		Shards:        4,
		PoolSize:      64 << 20,
		MaxBatch:      8,
		PipelineDepth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go primSrv.Serve(ln)
	t.Cleanup(func() { primSrv.Close() })
	primAddr := ln.Addr().String()
	primary := startPrimary(t, primSrv, PrimaryOptions{})

	const keys = 160
	c, err := server.DialProto(primAddr, 5*time.Second, "binary")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	// Pre-replica history through the pipelined path: windows of SETs kept
	// in flight so whole speculative windows retire together.
	inflight := 0
	drain := func(n int) {
		for ; n > 0; n-- {
			if r, err := c.RecvResult(); err != nil || r.Status != server.StatusOK {
				t.Fatalf("windowed SET: %+v %v", r, err)
			}
			inflight--
		}
	}
	for k := uint64(0); k < keys; k++ {
		if err := c.SendOp(server.Op{Kind: server.OpSet, Key: k, Arg1: k * 7}); err != nil {
			t.Fatal(err)
		}
		if inflight++; inflight >= 16 {
			drain(8)
		}
	}
	drain(inflight)

	repSrv, repAddr := startServer(t, 4)
	replica := startReplica(t, repSrv, primary)
	waitApplied(t, replica, primary)

	// Post-connect history the replica must tail live: overwrites, deletes,
	// and cross-shard MULTIs interleaved with pipelined windows.
	for k := uint64(0); k < keys; k += 2 {
		if err := c.SendOp(server.Op{Kind: server.OpSet, Key: k, Arg1: k + 500_000}); err != nil {
			t.Fatal(err)
		}
		if inflight++; inflight >= 16 {
			drain(8)
		}
	}
	drain(inflight)
	for k := uint64(0); k < 24; k++ {
		ops := []server.Op{
			{Kind: server.OpSet, Key: k, Arg1: k + 900_000},
			{Kind: server.OpSet, Key: k + 64, Arg1: k + 910_000},
			{Kind: server.OpDel, Key: k + 32},
		}
		if _, _, err := c.Exec(ops); err != nil {
			t.Fatal(err)
		}
	}
	waitApplied(t, replica, primary)
	compareState(t, primAddr, repAddr, keys)

	if got, head := replica.AppliedLSN(), primary.Log().Head(); got != head {
		t.Fatalf("replica applied LSN %d != primary head %d", got, head)
	}
}
