package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// The layer ladder (benchmark/layers) is the one part of the benchmark that
// imports this module's packages. It is a program of its own, built and run
// here as a child, so that when a refactor breaks its build the end-to-end
// run still stands. It replays the requests the end-to-end run sent, which
// it gets as a file of the binary protocol's own frames.

const ladderOpsPerConn = 50_000

// writeOpsFile writes the preload and the first ladderOpsPerConn requests of
// each connection's stream: "SPL1", three u32 counts (preload frames,
// connections, frames per connection), then the frames.
func writeOpsFile(path string, w *workload, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	hdr := []byte("SPL1")
	for _, n := range []uint32{nKeys, nConns, ladderOpsPerConn} {
		hdr = binary.LittleEndian.AppendUint32(hdr, n)
	}
	bw.Write(hdr)
	var buf []byte
	for key := uint64(0); key < nKeys; key++ {
		buf = appendOp(buf[:0], true, op{kind: opSet, key: key, val: initialValue(key)})
		bw.Write(buf)
	}
	for c := 0; c < nConns; c++ {
		gen := newOpGen(w, seed, c)
		for i := 0; i < ladderOpsPerConn; i++ {
			buf = appendOp(buf[:0], true, gen.next())
			bw.Write(buf)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLadder builds and runs the ladder on the workload's requests and
// returns the metrics it prints.
func runLadder(ctx context.Context, e *env, w *workload, seed uint64) (map[string]metric, error) {
	ops := filepath.Join(e.out, "ops-"+w.name+".bin")
	if err := writeOpsFile(ops, w, seed); err != nil {
		return nil, err
	}
	bin := filepath.Join(e.out, "bin", "layers")
	build := exec.CommandContext(ctx, "go", "build", "-o", bin, ".")
	build.Dir = filepath.Join(e.root, "benchmark", "layers")
	if msg, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building benchmark/layers: %w\n%s", err, msg)
	}
	run := exec.CommandContext(ctx, bin, "-ops", ops, "-trace", filepath.Join(e.out, "trace-"+w.name+"-layers.json"))
	var stderr bytes.Buffer
	run.Stderr = &stderr
	out, err := run.Output()
	if err != nil {
		return nil, fmt.Errorf("benchmark/layers: %w\n%s", err, stderr.Bytes())
	}
	var ms map[string]metric
	if err := json.Unmarshal(out, &ms); err != nil {
		return nil, fmt.Errorf("benchmark/layers output: %w", err)
	}
	return ms, nil
}

// addResiduals names what lies between the rungs: the wire's median SET
// minus ApplyAt's is the front end (socket, codec, connection handler);
// ApplyAt's minus the bare transaction's is the wait in the shard queue and
// batcher, in an idle process and in a busy one.
func addResiduals(pl map[string]metric) {
	wire, ok1 := pl["client.set_p50_us"]
	apply, ok2 := pl["server.apply_p50_us"]
	busy, ok3 := pl["server.apply_busy_p50_us"]
	tx, ok4 := pl["txn.tx_p50_us"]
	if ok1 && ok2 && ok3 && ok4 {
		pl["server.front_us"] = metric{Value: wire.Value - apply.Value, Unit: "us"}
		pl["server.batch_wait_us"] = metric{Value: apply.Value - tx.Value, Unit: "us"}
		pl["server.batch_wait_busy_us"] = metric{Value: busy.Value - tx.Value, Unit: "us"}
	}
}
