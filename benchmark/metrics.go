package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

// latencies merges the connections' latencies of one sub-window and op
// kind, ascending.
func (m *measured) latencies(bucket int, kind uint8) []int64 {
	var xs []int64
	for _, cr := range m.conns {
		xs = append(xs, cr.lat[bucket][kind]...)
	}
	slices.Sort(xs)
	return xs
}

// completed counts one sub-window's verified requests of both kinds.
func (m *measured) completed(bucket int) int {
	n := 0
	for _, cr := range m.conns {
		for _, lat := range cr.lat[bucket] {
			n += len(lat)
		}
	}
	return n
}

// quantile returns the q-quantile of ascending xs by nearest rank, 0 when
// xs is empty.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// endToEnd computes each metric per sub-window and reports the median of the
// sub-windows, so that one host stall moves one sub-window and not the run.
func endToEnd(m *measured, seconds, buckets int) map[string]metric {
	sub := float64(seconds) / float64(buckets)
	var ops, amp, setP50, setP95 []float64
	var nSet, nAll int
	for b := 0; b < buckets; b++ {
		set, n := m.latencies(b, opSet), m.completed(b)
		nSet, nAll = nSet+len(set), nAll+n
		ops = append(ops, float64(n)/sub)
		setP50 = append(setP50, us(quantile(set, 0.50)))
		setP95 = append(setP95, us(quantile(set, 0.95)))
		written := m.samples[b+1].stats["pm_write_bytes"] - m.samples[b].stats["pm_write_bytes"]
		amp = append(amp, ratio(written, valueBytes*float64(len(set))))
	}
	return map[string]metric{
		"ops_per_s":    {Value: median(ops), Unit: "1/s", N: nAll},
		"set_p50_us":   {Value: median(setP50), Unit: "us", N: nSet},
		"set_p95_us":   {Value: median(setP95), Unit: "us", N: nSet},
		"pm_write_amp": {Value: median(amp), Unit: "x", N: nSet},
	}
}

// clientAndServerLayers is the traced run's view of the two ends of the
// wire: what the generator saw and spent, and what the server counted.
func clientAndServerLayers(m *measured, w *workload, seconds, buckets int, traced func(int) bool) map[string]metric {
	var all [opKinds][]int64
	var opsTraced, opsPlain []float64
	sub := float64(seconds) / float64(buckets)
	for b := 0; b < buckets; b++ {
		for _, cr := range m.conns {
			for k := range all {
				all[k] = append(all[k], cr.lat[b][k]...)
			}
		}
		if traced(b) {
			opsTraced = append(opsTraced, float64(m.completed(b))/sub)
		} else {
			opsPlain = append(opsPlain, float64(m.completed(b))/sub)
		}
	}
	var over, maxNs int64
	for k := range all {
		slices.Sort(all[k])
		for _, x := range all[k] {
			if x > sloNs {
				over++
			}
			if x > maxNs {
				maxNs = x
			}
		}
	}
	var late []int64
	var failed, due, nSpans int
	var encNs, wrNs, decNs int64
	for _, cr := range m.conns {
		late = append(late, cr.late...)
		failed += cr.failed
		due += cr.due
		for _, sp := range cr.spans[:cr.nSpans] {
			encNs += sp.encoded - sp.begin
			wrNs += sp.wrote - sp.encoded
			decNs += sp.done - sp.recv
		}
		nSpans += cr.nSpans
	}
	slices.Sort(late)
	veryLate := len(late) - sort.Search(len(late), func(i int) bool { return late[i] > 100e3 })
	nSet, nGet := len(all[opSet]), len(all[opGet])
	backlog := 0
	if w.rate > 0 {
		backlog = due - nSet - nGet - failed
	}
	first, last := m.samples[0].stats, m.samples[buckets].stats
	d := func(name string) float64 { return last[name] - first[name] }
	out := map[string]metric{
		"client.n_set":               {Value: float64(nSet), Unit: "count"},
		"client.n_get":               {Value: float64(nGet), Unit: "count"},
		"client.set_p99_us":          {Value: us(quantile(all[opSet], 0.99)), Unit: "us", N: nSet},
		"client.get_p99_us":          {Value: us(quantile(all[opGet], 0.99)), Unit: "us", N: nGet},
		"client.max_us":              {Value: us(maxNs), Unit: "us", N: nSet + nGet},
		"client.over_10ms_frac":      {Value: ratio(float64(over)+float64(failed), float64(nSet+nGet+failed)), Unit: "frac", N: nSet + nGet + failed},
		"client.late_frac":           {Value: ratio(float64(veryLate), float64(len(late))), Unit: "frac", N: len(late)},
		"client.late_p95_us":         {Value: us(quantile(late, 0.95)), Unit: "us", N: len(late)},
		"client.backlog_ops":         {Value: float64(backlog), Unit: "count", N: due},
		"client.encode_ns":           {Value: ratio(float64(encNs), float64(nSpans)), Unit: "ns", N: nSpans},
		"client.write_ns":            {Value: ratio(float64(wrNs), float64(nSpans)), Unit: "ns", N: nSpans},
		"client.decode_ns":           {Value: ratio(float64(decNs), float64(nSpans)), Unit: "ns", N: nSpans},
		"client.trace_overhead_frac": {Value: 1 - ratio(median(opsTraced), median(opsPlain)), Unit: "frac", N: buckets},
		// The wire's median SET is what the ladder's residuals are taken from.
		"client.set_p50_us": {Value: us(quantile(all[opSet], 0.50)), Unit: "us", N: nSet},
		"client.get_p50_us": {Value: us(quantile(all[opGet], 0.50)), Unit: "us", N: nGet},
		"client.get_p95_us": {Value: us(quantile(all[opGet], 0.95)), Unit: "us", N: nGet},

		"server.ops_per_batch":           {Value: ratio(d("batched_ops"), d("batches")), Unit: "count"},
		"server.fences_per_write":        {Value: ratio(d("fences"), d("ops_set")), Unit: "count"},
		"server.flushes_per_write":       {Value: ratio(d("flushes"), d("ops_set")), Unit: "count"},
		"server.model_ns_per_write":      {Value: ratio(d("model_ns"), d("ops_set")), Unit: "ns"},
		"server.fence_ns_per_write":      {Value: ratio(d("fence_ns"), d("ops_set")), Unit: "ns"},
		"server.snapshot_frac":           {Value: ratio(d("snapshot_reads"), d("ops_get")), Unit: "frac"},
		"server.snapshot_fallback_frac":  {Value: ratio(d("snapshot_fallbacks"), d("ops_get")), Unit: "frac"},
		"server.versions_live":           {Value: last["versions_live"], Unit: "count"},
		"server.heap_footprint_per_live": {Value: ratio(last["heap_footprint_bytes"], last["heap_live_bytes"]), Unit: "x"},
	}
	if m.rssOK {
		out["server.rss_peak_mb"] = metric{Value: m.rssMB, Unit: "MB"}
	}
	if a, b := m.samples[0], m.samples[buckets]; a.cpuOK && b.cpuOK {
		out["server.cpu_us_per_op"] = metric{Value: ratio((b.cpu-a.cpu)*1e6, float64(nSet+nGet)), Unit: "us", N: nSet + nGet}
	}
	return out
}

// traceFileRequests bounds the requests written per connection; the metrics
// use every span, the file is for looking at.
const traceFileRequests = 5000

// writeClientTrace writes the client spans as Chrome trace events
// (chrome://tracing, Perfetto): per request one `request` span and its
// children, all carrying the request's id.
func writeClientTrace(path string, m *measured) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	first := true
	event := func(name string, conn, lane, id int, parent string, start, end int64) {
		if end < start {
			end = start // the reply can be read before the sender stamps its write
		}
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, `{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%q}}`,
			name, conn, lane, float64(start)/1e3, float64(end-start)/1e3, id, parent)
	}
	for c, cr := range m.conns {
		n := cr.nSpans
		if n > traceFileRequests {
			n = traceFileRequests
		}
		for i, sp := range cr.spans[:n] {
			id, lane := c*maxSpans+i, i%cr.window
			name := "request SET"
			if sp.kind == opGet {
				name = "request GET"
			}
			event(name, c, lane, id, "", sp.due, sp.done)
			event("schedule", c, lane, id, "request", sp.due, sp.begin)
			event("encode", c, lane, id, "request", sp.begin, sp.encoded)
			event("write", c, lane, id, "request", sp.encoded, sp.wrote)
			event("wait", c, lane, id, "request", sp.wrote, sp.recv)
			event("decode", c, lane, id, "request", sp.recv, sp.done)
		}
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
