package server

import (
	"sync"
	"testing"
	"time"
)

// runProtoCell drives a default-flag server with loopback connections of
// the given protocol — closed-loop for text (the text protocol is strictly
// request/reply), a 16-frame window for binary — and returns the cell's
// throughput (logged, not gated: the repository benchmark owns wall clock
// claims) and fence rate.
func runProtoCell(t *testing.T, proto string, conns, opsPerConn int) (opsPerSec, fencesPerOp float64) {
	t.Helper()
	s, addr := startServer(t, Config{Engine: "SpecSPMT"})
	before := s.Counters()
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	start := time.Now()
	for id := 0; id < conns; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialProto(addr, 5*time.Second, proto)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			opAt := func(i int) Op {
				k := uint64(id*1_000_000 + i%256)
				if i%2 == 1 {
					return Op{Kind: OpGet, Key: k}
				}
				return Op{Kind: OpSet, Key: k, Arg1: uint64(i)}
			}
			if proto == "text" {
				for i := 0; i < opsPerConn; i++ {
					op := opAt(i)
					var err error
					if op.Kind == OpSet {
						_, err = c.Set(op.Key, op.Arg1)
					} else {
						_, err = c.Get(op.Key)
					}
					if err != nil {
						errs <- err
						return
					}
				}
				return
			}
			const window = 16
			inflight := 0
			for i := 0; i < opsPerConn; i++ {
				if err := c.SendOp(opAt(i)); err != nil {
					errs <- err
					return
				}
				inflight++
				// A sliding window: full, or draining after the last send.
				for inflight >= window || (i == opsPerConn-1 && inflight > 0) {
					if _, err := c.RecvResult(); err != nil {
						errs <- err
						return
					}
					inflight--
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("proto=%s: %v", proto, err)
	}
	elapsed := time.Since(start)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	after := s.Counters()
	ops := float64(conns * opsPerConn)
	return ops / elapsed.Seconds(), float64(after.Fences-before.Fences) / ops
}

// TestProtoFenceRateMatrix compares the protocols on a loopback socket and
// gates on the host-independent half of the comparison: binary clients
// keeping a 16-frame window in flight must pay fewer fences per operation
// than the text closed-loop baseline, because a window's SETs share group
// commits. Throughput is logged only — wall-clock ratios between unlike
// client shapes belong to the repository benchmark, not to tier-1.
func TestProtoFenceRateMatrix(t *testing.T) {
	const conns, opsPerConn = 8, 600
	fences := map[string]float64{}
	for _, proto := range []string{"text", "binary"} {
		opsPerSec, fencesPerOp := runProtoCell(t, proto, conns, opsPerConn)
		t.Logf("proto=%-6s %8.0f ops/s  fences/op=%.3f", proto, opsPerSec, fencesPerOp)
		fences[proto] = fencesPerOp
	}
	if fences["binary"] >= fences["text"] {
		t.Fatalf("binary window-16 fence rate %.3f not below text baseline %.3f", fences["binary"], fences["text"])
	}
}
