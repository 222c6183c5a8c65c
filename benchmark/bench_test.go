package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// streamBytes encodes the first n requests of one connection's stream.
func streamBytes(w *workload, seed uint64, conn, n int) []byte {
	g := newOpGen(w, seed, conn)
	var b []byte
	for i := 0; i < n; i++ {
		b = appendOp(b, w.binary, g.next())
	}
	return b
}

func TestSameSeedSameBytes(t *testing.T) {
	for i := range kvWorkloads {
		w := &kvWorkloads[i]
		a, b := streamBytes(w, 7, 1, 5000), streamBytes(w, 7, 1, 5000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: one seed gave two streams", w.name)
		}
		if bytes.Equal(a, streamBytes(w, 8, 1, 5000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
		if bytes.Equal(a, streamBytes(w, 7, 0, 5000)) {
			t.Errorf("%s: connections 0 and 1 gave the same stream", w.name)
		}
	}
}

func TestKeysStayWithTheirConnection(t *testing.T) {
	for i := range kvWorkloads {
		w := &kvWorkloads[i]
		for conn := 0; conn < nConns; conn++ {
			g := newOpGen(w, 3, conn)
			gets := 0
			for j := 0; j < 20000; j++ {
				o := g.next()
				if o.key >= nKeys || o.key%nConns != uint64(conn) {
					t.Fatalf("%s: connection %d drew key %d", w.name, conn, o.key)
				}
				if o.kind == opGet {
					gets++
				}
			}
			if got := float64(gets) / 20000; math.Abs(got-w.getFrac) > 0.02 {
				t.Errorf("%s: GET share %.3f, want %.2f", w.name, got, w.getFrac)
			}
		}
	}
}

func TestZipfScrambleIsABijectionAndSkewed(t *testing.T) {
	const slots = nKeys / nConns
	g := newOpGen(workloadByName("mixed-sat"), 5, 0)
	seen := make([]bool, slots)
	for rank := uint64(0); rank < slots; rank++ {
		slot := (rank*g.mul + g.add) % slots
		if seen[slot] {
			t.Fatalf("ranks collide on slot %d", slot)
		}
		seen[slot] = true
	}
	hot := (0*g.mul+g.add)%slots*nConns + 0 // rank 0's key
	hits := 0
	for i := 0; i < 20000; i++ {
		if g.next().key == hot {
			hits++
		}
	}
	// Zipf(1.1) over 20 000 ranks gives rank 0 about a tenth of the draws.
	if hits < 1000 || hits > 4000 {
		t.Errorf("hottest key drawn %d of 20000 times", hits)
	}
}

func TestQuantileMedianSpread(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.95, 100}, {0.9, 90}, {0.01, 10}, {1, 100}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%.2f) = %d, want %d", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	// Python: statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) ==
	// [3.5, 13.5, 31.0]; median 13.5.
	if got, want := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5].
	if got, want := spread([]float64{10, 12}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of two = %v, want %v", got, want)
	}
}

func TestDecodeReply(t *testing.T) {
	bin := func(typ, status byte, val uint64) []byte {
		b := []byte{typ, 1, status}
		for i := 0; i < 8; i++ {
			b = append(b, byte(val>>(8*i)))
		}
		return append(b, make([]byte, 8)...)
	}
	for _, c := range []struct {
		raw  []byte
		bin  bool
		want reply
		bad  bool
	}{
		{raw: []byte("OK t=277"), want: reply{status: stOK}},
		{raw: []byte("VALUE 2 s=1 t=0"), want: reply{status: stValue, val: 2, snap: true}},
		{raw: []byte("VALUE 18446744073709551615 t=9"), want: reply{status: stValue, val: math.MaxUint64}},
		{raw: []byte("NOTFOUND s=1 t=0"), want: reply{status: stNotFound, snap: true}},
		{raw: []byte("ERR server full"), want: reply{status: stErr}},
		{raw: []byte("VALUE x"), bad: true},
		{raw: []byte("PONG"), bad: true},
		{raw: bin(frameReply, stOK, 0), bin: true, want: reply{status: stOK}},
		{raw: bin(frameSnapR, stValue, 99), bin: true, want: reply{status: stValue, val: 99, snap: true}},
		{raw: append([]byte{frameErr}, "no"...), bin: true, want: reply{status: stErr}},
		{raw: []byte{frameReply, 2, 0}, bin: true, bad: true},
	} {
		got, err := decodeReply(c.raw, c.bin)
		if (err != nil) != c.bad || (!c.bad && got != c.want) {
			t.Errorf("decodeReply(%q) = %+v, %v; want %+v, bad=%v", c.raw, got, err, c.want, c.bad)
		}
	}
}

// fakeServer speaks enough of the text protocol for one connection. It
// answers the lieAt-th GET (from 1) with a wrong value.
func fakeServer(t *testing.T, lieAt int) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		fmt.Fprintln(c, "SPECPMT 1 engine=fake profile=none shards=1")
		store, gets := map[uint64]uint64{}, 0
		sc := bufio.NewScanner(c)
		for sc.Scan() {
			var k, v uint64
			if n, _ := fmt.Sscanf(sc.Text(), "SET %d %d", &k, &v); n == 2 {
				store[k] = v
				fmt.Fprintln(c, "OK t=1")
			} else if n, _ := fmt.Sscanf(sc.Text(), "GET %d", &k); n == 1 {
				if gets++; gets == lieAt {
					store[k]++
				}
				fmt.Fprintf(c, "VALUE %d s=1 t=0\n", store[k])
			}
		}
	}()
	return ln.Addr().String()
}

// oracleRun drives 400 requests of read-text through a fake server.
func oracleRun(t *testing.T, lieAt int) *connRun {
	wc, banner, err := dialWire(fakeServer(t, lieAt), false)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.close()
	if !strings.Contains(banner, "engine=fake") {
		t.Errorf("banner %q", banner)
	}
	gen, sent := newOpGen(workloadByName("read-text"), 1, 0), 0
	cr := &connRun{wc: wc, window: 1, base: time.Now(), t0: 0, t1: math.MaxInt64, buckets: 1,
		expect: make([]uint64, nKeys/nConns), // zero: what the fake holds for a key never set
		src: func() (op, bool) {
			// The fake starts empty: store before the first read of a key.
			o := gen.next()
			if sent++; sent%2 == 1 {
				o.kind, o.val = opSet, uint64(sent)
			}
			return o, sent <= 400
		}}
	cr.run()
	return cr
}

func TestOracleTripsOnOneWrongValue(t *testing.T) {
	if cr := oracleRun(t, 0); cr.failed != 0 || cr.attempted != 400 {
		t.Fatalf("honest server: %d of %d failed", cr.failed, cr.attempted)
	}
	cr := oracleRun(t, 50)
	if cr.failed == 0 {
		t.Fatal("a wrong value went unnoticed")
	}
	if frac := float64(cr.failed) / float64(cr.attempted); frac <= 0 || frac > 0.5 {
		t.Errorf("fail_frac = %v", frac)
	}
	n := 0
	for _, k := range cr.lat[0] {
		n += len(k)
	}
	if n != cr.attempted-cr.failed {
		t.Errorf("%d latencies recorded for %d good replies", n, cr.attempted-cr.failed)
	}
}

// TestWireConformance round-trips both protocols against the server built
// from this checkout.
func TestWireConformance(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "specpmt-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/specpmt-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	addr, err := freeAddr()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := startChild(ctx, filepath.Join(t.TempDir(), "server.log"), bin, "-addr", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.stop()
	if _, ok := srv.cpuSeconds(); !ok && fileExists("/proc/self/stat") {
		t.Error("cpuSeconds unreadable on a host with /proc")
	}
	for _, binary := range []bool{false, true} {
		var wc *wireConn
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			if wc, _, err = dialWire(addr, binary); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("server did not come up: %v", err)
			}
		}
		key := uint64(1000)
		if binary {
			key = 2000
		}
		steps := []struct {
			o    op
			want reply
		}{
			{op{kind: opGet, key: key}, reply{status: stNotFound, snap: true}},
			{op{kind: opSet, key: key, val: math.MaxUint64}, reply{status: stOK}},
			{op{kind: opGet, key: key}, reply{status: stValue, val: math.MaxUint64, snap: true}},
		}
		var buf []byte
		for _, s := range steps { // pipelined: all requests, then all replies
			buf = appendOp(buf, binary, s.o)
		}
		if err := wc.send(buf); err != nil {
			t.Fatal(err)
		}
		for i, s := range steps {
			raw, err := wc.recv()
			if err != nil {
				t.Fatalf("binary=%v step %d: %v", binary, i, err)
			}
			// The snapshot marker depends on the server's read path, not
			// on the protocol: compare status and value only.
			got, err := decodeReply(raw, binary)
			if err != nil || got.status != s.want.status || got.val != s.want.val {
				t.Errorf("binary=%v step %d: %+v, %v; want %+v", binary, i, got, err, s.want)
			}
		}
		st, err := wc.stats()
		if err != nil {
			t.Fatalf("binary=%v STATS: %v", binary, err)
		}
		for _, name := range []string{"ops_set", "ops_get", "pm_write_bytes", "fences", "batches", "snapshot_reads"} {
			if _, ok := st[name]; !ok {
				t.Errorf("binary=%v STATS lacks %s", binary, name)
			}
		}
		if st["ops_set"] < 1 || st["pm_write_bytes"] <= 0 {
			t.Errorf("binary=%v STATS: ops_set=%v pm_write_bytes=%v", binary, st["ops_set"], st["pm_write_bytes"])
		}
		wc.close()
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestProcSamplingFailsSoft(t *testing.T) {
	gone, _ := os.FindProcess(1<<22 - 7) // above the default pid_max's reach in practice
	c := &child{cmd: &exec.Cmd{Process: gone}}
	if _, ok := c.cpuSeconds(); ok {
		t.Error("cpuSeconds of a missing process reported ok")
	}
	if _, ok := c.rssPeakMB(); ok {
		t.Error("rssPeakMB of a missing process reported ok")
	}
	// Without /proc samples the metrics are absent, not zero.
	m := &measured{samples: []sample{{stats: map[string]float64{}}, {stats: map[string]float64{}}}}
	for i := range m.conns {
		m.conns[i] = &connRun{lat: make([][opKinds][]int64, 1)}
	}
	layers := clientAndServerLayers(m, workloadByName("read-text"), 1, 1, func(int) bool { return true })
	for _, name := range []string{"server.cpu_us_per_op", "server.rss_peak_mb"} {
		if _, ok := layers[name]; ok {
			t.Errorf("%s reported without /proc samples", name)
		}
	}
	if _, ok := layers["server.ops_per_batch"]; !ok {
		t.Error("server.ops_per_batch missing")
	}
}

func TestDiffVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "ops_per_s", Better: "higher", Bound: 0.10},
		{Name: "set_p50_us", Better: "lower", Bound: 0.10},
		{Name: "get_p50_us", Better: "lower", Bound: 0.10},
	}}
	file := func(ops, set, get []float64, digest string) *resultsFile {
		rf := &resultsFile{Schema: resultsSchema}
		for i := range ops {
			rf.Runs = append(rf.Runs, &runResult{Workload: "w", Seed: uint64(i), EndToEnd: map[string]metric{
				"ops_per_s": {Value: ops[i]}, "set_p50_us": {Value: set[i]}, "get_p50_us": {Value: get[i]},
			}})
		}
		rf.Runs[0].ModelDigest = digest
		return rf
	}
	a := file([]float64{100, 101, 99, 100}, []float64{10, 10, 10, 10}, []float64{5, 9, 5, 9}, "aa")
	b := file([]float64{80, 81, 79, 80}, []float64{10.5, 10.5, 10.5, 10.5}, []float64{5, 9, 5, 9}, "bb")
	var out bytes.Buffer
	if n := printDiff(&out, a, b, spec); n != 2 { // ops_per_s and the digest
		t.Errorf("%d regressions, want 2\n%s", n, out.String())
	}
	for _, want := range []string{"REGRESSED", "unresolved", "ok", "modeled outputs differ"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	printRepeat(&out, a.Runs, spec)
	if !strings.Contains(out.String(), "SPREAD EXCEEDS BOUND") {
		t.Errorf("repeat output does not flag get_p50_us:\n%s", out.String())
	}
}
