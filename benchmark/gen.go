package main

import (
	"math"
	"sort"
)

// The benchmark's inputs: the workloads and the request stream each
// connection sends. A stream is a pure function of (workload, seed,
// connection), so the same seed replays the same bytes, and the layer ladder
// can replay the requests the end-to-end run sent.

const (
	nConns = 2      // load connections = CPUs of the reference host
	nKeys  = 40_000 // preloaded keys; connection c owns the keys ≡ c mod nConns
)

// workload is one traffic shape. rate > 0 makes it an open loop that sends
// on a fixed schedule; otherwise each connection keeps window requests in
// flight and sends the next when a reply arrives.
type workload struct {
	name    string
	binary  bool
	window  int
	getFrac float64
	zipf    bool
	rate    float64 // requests per second per connection (open loop)
}

var kvWorkloads = []workload{
	// Unloaded write latency: batcher wait + commit + fence. A stall is
	// charged to every request due during it.
	{name: "set-paced", binary: true, window: 256, getFrac: 0.2, rate: 250},
	// Saturation: shard queues, group commit, engine and pmem CPU, MVCC
	// installs. Uses the batcher the opposite way to set-paced.
	{name: "mixed-sat", binary: true, window: 16, getFrac: 0.5, zipf: true},
	// Socket, text codec, per-request flush and MVCC snapshot reads; the
	// write path is nearly idle.
	{name: "read-text", binary: false, window: 1, getFrac: 0.95},
}

func workloadByName(name string) *workload {
	for i := range kvWorkloads {
		if kvWorkloads[i].name == name {
			return &kvWorkloads[i]
		}
	}
	return nil
}

// rng is splitmix64: tiny, fast, and fixed here so the streams never change
// under a Go upgrade.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// initialValue is what the preload stores under key.
func initialValue(key uint64) uint64 { return key*0x9E3779B97F4A7C15 + 1 }

// zipfCDF is the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

var zipf11 = zipfCDF(nKeys/nConns, 1.1)

// opGen yields one connection's request stream.
type opGen struct {
	w    *workload
	r    rng
	conn uint64
	mul  uint64 // rank scrambling: slot = (rank*mul + add) mod slots
	add  uint64
}

func newOpGen(w *workload, seed uint64, conn int) *opGen {
	g := &opGen{w: w, conn: uint64(conn), r: rng(seed*0xD6E8FEB86659FD93 + uint64(conn) + 1)}
	g.r.next()
	// 7919 is prime and divides no power of 2 or 5, so it is coprime to the
	// slot count and the map from rank to slot is a bijection.
	g.mul, g.add = 7919, g.r.next()%(nKeys/nConns)
	return g
}

func (g *opGen) next() op {
	const slots = nKeys / nConns
	var slot uint64
	if g.w.zipf {
		rank := uint64(sort.SearchFloat64s(zipf11, g.r.float()))
		if rank >= slots {
			rank = slots - 1
		}
		slot = (rank*g.mul + g.add) % slots
	} else {
		slot = g.r.next() % slots
	}
	o := op{kind: opSet, key: slot*nConns + g.conn}
	if g.r.float() < g.w.getFrac {
		o.kind = opGet
	} else {
		o.val = g.r.next()
	}
	return o
}

// pacedSchedule yields one connection's due times (ns since the run's base)
// at rate requests per second: a fixed period, the connections interleaved,
// each send jittered by up to half a period. The schedule is fixed by the
// seed before anything is sent. Without the jitter it locks phase with the
// server's timer ticks, and the share of requests that wait a second tick
// changes from run to run with the phase.
func pacedSchedule(rate float64, seed uint64, conn int) func() int64 {
	r := rng(seed*0xA24BAED4963EE407 + uint64(conn) + 1)
	period := 1e9 / rate
	k := 0.0
	return func() int64 {
		due := (k + float64(conn)/nConns + r.float()/2) * period
		k++
		return int64(due)
	}
}
