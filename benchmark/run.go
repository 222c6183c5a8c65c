package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

const (
	warmUp        = 2 * time.Second
	preloadWindow = 256
	valueBytes    = 16 // a key and a value: the user data one SET stores
	sloNs         = 10e6
)

// metric is one reported number. N is the number of samples behind it, where
// that is not one.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Seconds     int                `json:"seconds"`
	Trace       bool               `json:"trace"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	EndToEnd    map[string]metric  `json:"end_to_end,omitempty"`
	PerLayer    map[string]metric  `json:"per_layer,omitempty"`
	StatsBefore map[string]float64 `json:"stats_before,omitempty"`
	StatsAfter  map[string]float64 `json:"stats_after,omitempty"`
	// HostStealFrac is the share of the machine's CPU time the hypervisor
	// gave to others during the measured interval; absent where unknown.
	HostStealFrac *float64 `json:"host_steal_frac,omitempty"`
	// ModelDigest hashes the deterministic part of the stamp-eval report;
	// two runs of one seed on one commit must agree on it.
	ModelDigest string `json:"model_digest,omitempty"`
}

// session is one freshly started default server, preloaded, with the
// workload's connections open.
type session struct {
	srv   *child
	conns [nConns]*wireConn
	ctl   *wireConn // STATS only
}

func openSession(ctx context.Context, e *env, w *workload) (*session, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	srv, err := startChild(ctx, filepath.Join(e.out, "server-"+w.name+".log"), e.serverBin, "-addr", addr)
	if err != nil {
		return nil, err
	}
	s := &session{srv: srv}
	opened := false
	defer func() {
		if !opened {
			s.close()
		}
	}()
	// The banner is the server's word that it serves.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if s.ctl, _, err = dialWire(addr, false); err == nil {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return nil, fmt.Errorf("server did not come up: %w", err)
		}
	}
	if err := preload(addr); err != nil {
		return nil, err
	}
	for i := range s.conns {
		if s.conns[i], _, err = dialWire(addr, w.binary); err != nil {
			return nil, err
		}
	}
	opened = true
	return s, nil
}

func (s *session) close() {
	for _, c := range append(s.conns[:], s.ctl) {
		if c != nil {
			c.close()
		}
	}
	s.srv.stop()
}

// preload stores initialValue under every key, each connection its own keys,
// over binary with a deep window.
func preload(addr string) error {
	var wg sync.WaitGroup
	errs := make([]error, nConns)
	for c := 0; c < nConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			wc, _, err := dialWire(addr, true)
			if err != nil {
				errs[c] = err
				return
			}
			defer wc.close()
			key := uint64(c)
			cr := &connRun{wc: wc, window: preloadWindow, base: time.Now(), t0: math.MaxInt64, t1: math.MaxInt64, src: func() (op, bool) {
				o := op{kind: opSet, key: key, val: initialValue(key)}
				key += nConns
				return o, o.key < nKeys
			}}
			cr.run()
			if cr.failed > 0 || cr.attempted != nKeys/nConns {
				errs[c] = fmt.Errorf("preload: %d of %d SETs failed", cr.failed, cr.attempted)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sample is the server's state at one sub-window boundary.
type sample struct {
	cpu                  float64 // the server's CPU seconds, if cpuOK
	cpuOK                bool
	hostSteal, hostTotal float64 // the machine's CPU ticks, if hostOK
	hostOK               bool
	stats                map[string]float64
}

// measured is what one session's load phase produced.
type measured struct {
	conns   [nConns]*connRun
	samples []sample // buckets+1 boundaries
	setupS  float64  // child start to end of warm-up
	rssMB   float64
	rssOK   bool
}

// load runs the workload's streams: warm-up, then seconds of measurement in
// `buckets` sub-windows (none when seconds is 0). traced, when not nil, says
// which sub-windows record client spans.
func (s *session) load(w *workload, seed uint64, seconds, buckets int, traced func(int) bool) (*measured, error) {
	base := time.Now()
	t0 := int64(warmUp)
	t1 := t0 + int64(seconds)*int64(time.Second)
	m := &measured{setupS: base.Add(warmUp).Sub(s.srv.started).Seconds()}
	var wg sync.WaitGroup
	for c := range m.conns {
		gen := newOpGen(w, seed, c)
		cr := &connRun{
			wc: s.conns[c], window: w.window, base: base, t0: t0, t1: t1, buckets: buckets,
			traced: traced,
			src:    func() (op, bool) { return gen.next(), true },
			expect: make([]uint64, nKeys/nConns),
		}
		for slot := range cr.expect {
			cr.expect[slot] = initialValue(uint64(slot*nConns + c))
		}
		if w.rate > 0 {
			cr.nextDue = pacedSchedule(w.rate, seed, c)
		}
		m.conns[c] = cr
		wg.Add(1)
		go func() { defer wg.Done(); cr.run() }()
	}
	var err error
	for k := 0; k <= buckets && seconds > 0 && err == nil; k++ {
		time.Sleep(time.Until(base.Add(time.Duration(t0 + int64(k)*(t1-t0)/int64(buckets)))))
		var sm sample
		sm.cpu, sm.cpuOK = s.srv.cpuSeconds()
		sm.stats, err = s.ctl.stats()
		sm.hostSteal, sm.hostTotal, sm.hostOK = hostCPUTicks()
		m.samples = append(m.samples, sm)
	}
	wg.Wait()
	m.rssMB, m.rssOK = s.srv.rssPeakMB()
	return m, err
}

// runKV measures one key-value workload: fresh server, preload, warm-up,
// window. Set-up is done several times and its median reported, because it
// is short and the host is shared; only the last server is measured.
func runKV(ctx context.Context, e *env, w *workload, seed uint64, seconds int, trace bool) (*runResult, error) {
	setups, buckets := 3, 5
	var traced func(int) bool
	if trace {
		// Traced and untraced sub-windows alternate on one server, so their
		// difference is the cost of tracing and not of a different server.
		setups, buckets = 1, 6
		traced = func(b int) bool { return b%2 == 0 }
	}
	var setupS []float64
	var m *measured
	for i := 1; i <= setups; i++ {
		s, err := openSession(ctx, e, w)
		if err != nil {
			return nil, err
		}
		sec := 0
		if i == setups {
			sec = seconds
		}
		m, err = s.load(w, seed, sec, buckets, traced)
		s.close()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, m.setupS)
	}
	first, last := m.samples[0], m.samples[buckets]
	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		StatsBefore: first.stats, StatsAfter: last.stats}
	if first.hostOK && last.hostOK && last.hostTotal > first.hostTotal {
		frac := (last.hostSteal - first.hostSteal) / (last.hostTotal - first.hostTotal)
		res.HostStealFrac = &frac
	}
	for _, cr := range m.conns {
		res.Attempted += cr.attempted
		res.Failed += cr.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	sort.Float64s(setupS)
	if !trace {
		res.EndToEnd = endToEnd(m, seconds, buckets)
		res.EndToEnd["setup_s"] = metric{Value: setupS[len(setupS)/2], Unit: "s", N: len(setupS)}
		res.EndToEnd["ok_frac"] = metric{Value: 1 - float64(res.Failed)/float64(res.Attempted), Unit: "frac", N: res.Attempted}
		return res, nil
	}
	res.PerLayer = clientAndServerLayers(m, w, seconds, buckets, traced)
	if err := writeClientTrace(filepath.Join(e.out, "trace-"+w.name+".json"), m); err != nil {
		return nil, err
	}
	return res, nil
}
