// Command layers is the benchmark's layer ladder: it replays the requests an
// end-to-end run sent through each layer's public functions, from
// Server.Apply down to the device model, timing every call from outside.
// It is the only part of the benchmark that imports this module's packages,
// and is a module of its own so that it may (its import path sits under
// specpmt/, which the internal packages require).
//
//	layers -ops benchmark/out/ops-mixed-sat.bin -trace spans.json
//
// It prints one JSON object, metric name → {value, unit, n}, and exits
// non-zero if any layer returned a wrong value or lost a committed key.
//
// Each rung has a time budget and replays as much of the stream as fits; n
// says how much that was. Calls that take microseconds get a span each
// (self time = span − children); probes that take nanoseconds are timed as
// a loop, because two clock reads would cost as much as the call.
package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"specpmt"
	"specpmt/internal/mvcc"
	"specpmt/internal/pmalloc"
	"specpmt/internal/pmem"
	"specpmt/internal/server"
	"specpmt/internal/sim"
	"specpmt/pds/hashmap"
)

const (
	rungBudget    = 2500 * time.Millisecond
	probeIters    = 200_000
	shards        = 4 // the server's default, which the tx rung mirrors
	traceFileSpan = 20_000
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// span is one timed call. parent indexes the enclosing span, -1 for a root;
// req numbers the replayed request, so spans of one request share it.
type span struct {
	name       string
	lane       int // the replaying goroutine
	parent     int
	req        int
	start, end int64
}

// ladder carries the inputs and collects the outputs of every rung.
type ladder struct {
	preload []server.Op
	streams [][]server.Op // per connection
	base    time.Time
	spans   []span
	out     map[string]metric
}

func (l *ladder) now() int64 { return int64(time.Since(l.base)) }

func (l *ladder) put(name string, v float64, unit string, n int) {
	l.out[name] = metric{Value: v, Unit: unit, N: n}
}

func main() {
	opsPath := flag.String("ops", "", "request file written by the benchmark driver")
	tracePath := flag.String("trace", "", "write the spans here as Chrome trace events")
	flag.Parse()
	l := &ladder{base: time.Now(), out: map[string]metric{}}
	err := l.readOps(*opsPath)
	for _, rung := range []func() error{l.applyRung, l.txRung, l.mvccProbe, l.codecProbe, l.pmemProbe, l.pmallocProbe} {
		if err == nil {
			err = rung()
		}
	}
	if err == nil && *tracePath != "" {
		err = l.writeTrace(*tracePath)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(l.out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// readOps parses the driver's file: "SPL1", u32 preload frames, u32
// connections, u32 frames per connection, then binary-protocol OPS frames.
func (l *ladder) readOps(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil || string(hdr[:4]) != "SPL1" {
		return fmt.Errorf("%s: not a request file", path)
	}
	nPre := int(binary.LittleEndian.Uint32(hdr[4:]))
	nConn := int(binary.LittleEndian.Uint32(hdr[8:]))
	perConn := int(binary.LittleEndian.Uint32(hdr[12:]))
	var payload []byte
	read := func(n int) ([]server.Op, error) {
		ops := make([]server.Op, 0, n)
		for i := 0; i < n; i++ {
			var lenb [4]byte
			if _, err := io.ReadFull(br, lenb[:]); err != nil {
				return nil, err
			}
			if n := int(binary.LittleEndian.Uint32(lenb[:])); cap(payload) < n {
				payload = make([]byte, n)
			} else {
				payload = payload[:n]
			}
			if _, err := io.ReadFull(br, payload); err != nil {
				return nil, err
			}
			if ops, err = server.DecodeOpsFrame(payload, ops); err != nil {
				return nil, err
			}
		}
		return ops, nil
	}
	if l.preload, err = read(nPre); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for c := 0; c < nConn; c++ {
		ops, err := read(perConn)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		l.streams = append(l.streams, ops)
	}
	return nil
}

func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

func mean(sum int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// applyRung replays each connection's stream through Server.ApplyAt from its
// own goroutine, one request at a time as a connection handler would: the
// whole server below the socket, default configuration. Each call carries a
// fresh LSN, as the request path stamps its commits; a plain Apply would
// mark the version stores stale and have the workers rebuild them.
//
// It replays twice. The first pass is an otherwise idle process, which is
// what a paced client meets. The second keeps one goroutine spinning, which
// is what a server meets that is also answering reads: the Go runtime then
// checks its timers on time, and the batcher's window costs what it says.
func (l *ladder) applyRung() error {
	s, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	defer s.Close()
	var lsn atomic.Uint64
	for i := 0; i < len(l.preload); i += server.MaxMultiOps {
		end := min(i+server.MaxMultiOps, len(l.preload))
		if _, err := s.ApplyAt(lsn.Add(1), l.preload[i:end], nil, nil); err != nil {
			return fmt.Errorf("ApplyAt preload: %w", err)
		}
	}
	if err := l.applyPass(s, &lsn, "server.apply_"); err != nil {
		return err
	}
	var stop atomic.Bool
	spun := make(chan struct{})
	go func() {
		defer close(spun)
		for !stop.Load() {
			runtime.Gosched()
		}
	}()
	err = l.applyPass(s, &lsn, "server.apply_busy_")
	stop.Store(true)
	<-spun
	return err
}

// applyPass is one timed replay; it reports the SETs' p50 and p95 under
// prefix.
func (l *ladder) applyPass(s *server.Server, lsn *atomic.Uint64, prefix string) error {
	type connOut struct {
		spans []span
		set   []int64
		wrong int
	}
	outs := make([]connOut, len(l.streams))
	deadline := time.Now().Add(rungBudget)
	var wg sync.WaitGroup
	for c, stream := range l.streams {
		wg.Add(1)
		go func(c int, stream []server.Op) {
			defer wg.Done()
			o := &outs[c]
			last := map[uint64]uint64{}
			var res []server.Result
			for i, op := range stream {
				if time.Now().After(deadline) {
					break
				}
				t0 := l.now()
				res, err := s.ApplyAt(lsn.Add(1), stream[i:i+1], nil, res[:0])
				t1 := l.now()
				o.spans = append(o.spans, span{name: "Server.ApplyAt", lane: c, parent: -1, req: c*len(stream) + i, start: t0, end: t1})
				switch {
				case err != nil || len(res) != 1:
					o.wrong++
				case op.Kind == server.OpSet:
					last[op.Key] = op.Arg1
					o.set = append(o.set, t1-t0)
				default:
					if want, ok := last[op.Key]; ok && res[0].Val != want {
						o.wrong++
					}
				}
			}
		}(c, stream)
	}
	wg.Wait()
	var set []int64
	for _, o := range outs {
		if o.wrong > 0 {
			return fmt.Errorf("Server.ApplyAt: %d wrong results", o.wrong)
		}
		set = append(set, o.set...)
		l.spans = append(l.spans, o.spans...)
	}
	l.put(prefix+"p50_us", percentile(set, 0.50)/1e3, "us", len(set))
	l.put(prefix+"p95_us", percentile(set, 0.95)/1e3, "us", len(set))
	return nil
}

// txRung replays the streams as the shard workers would run them unbatched:
// Thread.Begin, hashmap.TxPut or TxGet, Commit, on the default engine with
// the server's default pool and shard count. It ends with the durability
// check: crash, recover, every committed key readable with its last value.
func (l *ladder) txRung() error {
	pool, err := specpmt.OpenThreaded(specpmt.Config{Size: 256 << 20}, shards)
	if err != nil {
		return err
	}
	defer pool.Close()
	ths := make([]*specpmt.Thread, shards)
	maps := make([]*hashmap.Map, shards)
	for i := range maps {
		ths[i] = pool.Thread(i)
		if maps[i], err = hashmap.New(ths[i], i); err != nil {
			return err
		}
	}
	last := map[uint64]uint64{}
	for _, op := range l.preload {
		sh := server.ShardOf(op.Key, shards)
		if err := maps[sh].Put(op.Key, op.Arg1); err != nil {
			return fmt.Errorf("hashmap.Put preload: %w", err)
		}
		last[op.Key] = op.Arg1
	}

	var (
		before                          = pool.Counters()
		nSet, nGet                      int
		txSpans                         []int64
		beginNs, putNs, getNs, commitNs int64
		selfNs, commitMax, modelNs      int64
		storesPerPut, loadsPerGet       uint64
	)
	child := func(name string, parent, req int, start int64) int64 {
		end := l.now()
		l.spans = append(l.spans, span{name: name, parent: parent, req: req, start: start, end: end})
		return end - start
	}
	deadline := time.Now().Add(rungBudget)
replay:
	// Interleave the connections' streams, as their arrival would.
	for i := 0; i < len(l.streams[0]); i++ {
		for c, stream := range l.streams {
			if i%256 == 0 && time.Now().After(deadline) {
				break replay
			}
			op, req := stream[i], c*len(stream)+i
			sh := server.ShardOf(op.Key, shards)
			th, m := ths[sh], maps[sh]
			c0, model0 := th.Counters(), th.Now()
			me := len(l.spans)
			l.spans = append(l.spans, span{name: "tx", parent: -1, req: req, start: l.now()})
			var children int64
			if op.Kind == server.OpSet {
				t := l.now()
				if err := m.EnsureHeadroom(1); err != nil {
					return err
				}
				children += child("hashmap.EnsureHeadroom", me, req, t)
			}
			t := l.now()
			tx := th.Begin()
			d := child("Thread.Begin", me, req, t)
			beginNs, children = beginNs+d, children+d
			t = l.now()
			if op.Kind == server.OpSet {
				if err := m.TxPut(tx, op.Key, op.Arg1); err != nil {
					return fmt.Errorf("hashmap.TxPut: %w", err)
				}
				d = child("hashmap.TxPut", me, req, t)
				putNs += d
				last[op.Key] = op.Arg1
			} else {
				v, ok := m.TxGet(tx, op.Key)
				d = child("hashmap.TxGet", me, req, t)
				getNs += d
				if !ok || v != last[op.Key] {
					return fmt.Errorf("hashmap.TxGet(%d) = %d, %v; want %d", op.Key, v, ok, last[op.Key])
				}
			}
			children += d
			t = l.now()
			if err := tx.Commit(); err != nil {
				return fmt.Errorf("Commit: %w", err)
			}
			d = child("Tx.Commit", me, req, t)
			children += d
			l.spans[me].end = l.now()
			total := l.spans[me].end - l.spans[me].start
			c1 := th.Counters()
			if op.Kind == server.OpSet {
				nSet++
				commitNs += d
				commitMax = max(commitMax, d)
				txSpans = append(txSpans, total)
				selfNs += total - children
				modelNs += th.Now() - model0
				storesPerPut += c1.Stores - c0.Stores
			} else {
				nGet++
				loadsPerGet += c1.Loads - c0.Loads
			}
		}
	}
	after := pool.Counters()
	d := func(f func(c *specpmt.Counters) uint64) float64 { return float64(f(&after) - f(&before)) }
	perSet := func(v float64) float64 { return v / float64(max(nSet, 1)) }
	l.put("txn.tx_p50_us", percentile(txSpans, 0.50)/1e3, "us", nSet)
	l.put("txn.tx_self_ns", mean(selfNs, nSet), "ns", nSet)
	l.put("txn.begin_ns", mean(beginNs, nSet+nGet), "ns", nSet+nGet)
	l.put("txn.commit_ns", mean(commitNs, nSet), "ns", nSet)
	l.put("txn.commit_max_ms", float64(commitMax)/1e6, "ms", nSet)
	l.put("txn.model_ns_per_tx", mean(modelNs, nSet), "ns", nSet)
	l.put("txn.fences_per_tx", perSet(d(func(c *specpmt.Counters) uint64 { return c.Fences })), "count", nSet)
	l.put("txn.flushes_per_tx", perSet(d(func(c *specpmt.Counters) uint64 { return c.Flushes })), "count", nSet)
	l.put("txn.log_bytes_per_tx", perSet(d(func(c *specpmt.Counters) uint64 { return c.PMLogBytes })), "B", nSet)
	l.put("txn.reclaim_cycles", d(func(c *specpmt.Counters) uint64 { return c.ReclaimCycles }), "count", nSet)
	written := d(func(c *specpmt.Counters) uint64 { return c.PMWriteBytes })
	l.put("txn.gc_bytes_frac", d(func(c *specpmt.Counters) uint64 { return c.PMGCBytes })/max(written, 1), "frac", nSet)
	l.put("hashmap.txput_ns", mean(putNs, nSet), "ns", nSet)
	l.put("hashmap.txget_ns", mean(getNs, nGet), "ns", nGet)
	l.put("hashmap.stores_per_put", float64(storesPerPut)/float64(max(nSet, 1)), "count", nSet)
	l.put("hashmap.loads_per_get", float64(loadsPerGet)/float64(max(nGet, 1)), "count", nGet)
	lines := d(func(c *specpmt.Counters) uint64 { return c.SeqLines + c.RandLines })
	l.put("pmem.seq_line_frac", d(func(c *specpmt.Counters) uint64 { return c.SeqLines })/max(lines, 1), "frac", int(lines))
	fences := d(func(c *specpmt.Counters) uint64 { return c.Fences })
	l.put("pmem.fence_model_ns", d(func(c *specpmt.Counters) uint64 { return c.FenceNs })/max(fences, 1), "ns", int(fences))

	if err := pool.Crash(uint64(nSet)); err != nil {
		return fmt.Errorf("Crash: %w", err)
	}
	t0 := time.Now()
	if err := pool.Recover(); err != nil {
		return fmt.Errorf("Recover: %w", err)
	}
	l.put("txn.recover_ms", float64(time.Since(t0))/1e6, "ms", len(last))
	for i := range maps {
		if maps[i], err = hashmap.Open(pool.Thread(i), i); err != nil {
			return fmt.Errorf("after recovery: %w", err)
		}
	}
	for key, want := range last {
		if v, ok := maps[server.ShardOf(key, shards)].Get(key); !ok || v != want {
			return fmt.Errorf("durability: after crash and recovery key %d = %d, %v; committed %d", key, v, ok, want)
		}
	}
	return nil
}

// timeLoop runs fn n times and returns wall nanoseconds and heap
// allocations per call.
func timeLoop(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probe times a loop and records it as one span.
func (l *ladder) probe(name string, n int, fn func(i int)) (ns, allocs float64) {
	start := l.now()
	ns, allocs = timeLoop(n, fn)
	l.spans = append(l.spans, span{name: name, parent: -1, req: -1, start: start, end: l.now()})
	return ns, allocs
}

// all returns the connections' streams interleaved.
func (l *ladder) all() []server.Op {
	var ops []server.Op
	for i := range l.streams[0] {
		for _, s := range l.streams {
			ops = append(ops, s[i])
		}
	}
	return ops
}

// mvccProbe times the version store the way the server uses it: a snapshot
// read is Acquire, Get, Release; a committed write is Install, Advance.
func (l *ladder) mvccProbe() error {
	var st mvcc.Store
	for _, op := range l.preload {
		st.Seed(op.Key, op.Arg1, 0)
	}
	ops := l.all()
	var sets, gets []server.Op
	for _, op := range ops {
		if op.Kind == server.OpSet {
			sets = append(sets, op)
		} else {
			gets = append(gets, op)
		}
	}
	if len(sets) > 0 {
		lsn := uint64(0)
		ns, _ := l.probe("mvcc.Install+Advance", len(sets), func(i int) {
			lsn++
			st.Install(sets[i].Key, sets[i].Arg1, false, lsn)
			st.Advance(lsn)
		})
		l.put("mvcc.install_ns", ns, "ns", len(sets))
	}
	if len(gets) > 0 {
		missing := 0
		ns, _ := l.probe("mvcc.Acquire+Get+Release", len(gets), func(i int) {
			snap, ok := st.Acquire()
			if _, found := st.Get(snap, gets[i].Key); !ok || !found {
				missing++
			}
			st.Release(snap)
		})
		if missing > 0 {
			return fmt.Errorf("mvcc.Store.Get: %d preloaded keys missing", missing)
		}
		l.put("mvcc.get_ns", ns, "ns", len(gets))
	}
	return nil
}

// codecProbe times one request's server-side codec work in each protocol:
// decode the request, encode its reply.
func (l *ladder) codecProbe() error {
	ops := l.all()
	lines := make([][]byte, len(ops))
	frames := make([][]byte, len(ops))
	for i, op := range ops {
		lines[i] = server.AppendCommand(nil, op)
		lines[i] = lines[i][:len(lines[i])-1] // ParseCommand takes the line without its newline
		frame, err := server.AppendOpsFrame(nil, ops[i:i+1])
		if err != nil {
			return err
		}
		frames[i] = frame[4:] // DecodeOpsFrame takes the payload
	}
	value := []server.Result{{Status: server.StatusValue, Val: 1 << 40}}
	var buf []byte
	bad := 0
	ns, allocs := l.probe("ParseCommand+AppendResult", len(ops), func(i int) {
		cmd, err := server.ParseCommand(lines[i])
		if err != nil || cmd.Op != ops[i] {
			bad++
		}
		buf = server.AppendResult(buf[:0], value[0], 0)
	})
	l.put("server.codec_text_ns", ns, "ns", len(ops))
	l.put("server.codec_text_allocs", allocs, "count", len(ops))
	var dec []server.Op
	ns, allocs = l.probe("DecodeOpsFrame+AppendReplyFrame", len(ops), func(i int) {
		var err error
		if dec, err = server.DecodeOpsFrame(frames[i], dec[:0]); err != nil || dec[0] != ops[i] {
			bad++
		}
		buf = server.AppendReplyFrame(buf[:0], value, 0)
	})
	l.put("server.codec_bin_ns", ns, "ns", len(ops))
	l.put("server.codec_bin_allocs", allocs, "count", len(ops))
	if bad > 0 {
		return fmt.Errorf("codec: %d requests did not round-trip", bad)
	}
	return nil
}

// pmemProbe times the device model's inner loop: a 64-byte store, its
// flush, and a fence, on the default media profile.
func (l *ladder) pmemProbe() error {
	dev := pmem.NewDevice(pmem.Config{Size: 1 << 20, Profile: sim.DefaultProfile()})
	core := dev.NewCore()
	var line [64]byte
	ns, _ := l.probe("Core.Store+Flush+Fence", probeIters, func(i int) {
		a := pmem.Addr((i % 1024) * 64)
		core.Store(a, line[:])
		core.Flush(a, len(line), pmem.KindData)
		core.Fence()
	})
	l.put("pmem.store_flush_fence_ns", ns, "ns", probeIters)
	return nil
}

// pmallocProbe times an allocation and its free on the crash-consistent
// (logged) heap both pools use.
func (l *ladder) pmallocProbe() error {
	dev := pmem.NewDevice(pmem.Config{Size: 16 << 20, Profile: sim.DefaultProfile()})
	heap, err := pmalloc.OpenLogged(dev.NewCore(), pmem.PageSize, 16<<20)
	if err != nil {
		return err
	}
	failed := 0
	ns, _ := l.probe("Heap.Alloc+Free", probeIters, func(int) {
		a, err := heap.Alloc(64)
		if err != nil {
			failed++
			return
		}
		heap.Free(a, 64)
	})
	if failed > 0 {
		return fmt.Errorf("pmalloc: %d allocations failed", failed)
	}
	l.put("pmalloc.alloc_free_ns", ns, "ns", probeIters)
	return nil
}

// writeTrace writes the first spans as Chrome trace events; args carry the
// request number and the parent span's name.
func (l *ladder) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	for i, sp := range l.spans[:min(len(l.spans), traceFileSpan)] {
		parent := ""
		if sp.parent >= 0 {
			parent = l.spans[sp.parent].name
		}
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%q}}`,
			sp.name, sp.lane, float64(sp.start)/1e3, float64(sp.end-sp.start)/1e3, sp.req, parent)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
