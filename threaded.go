package specpmt

import (
	"fmt"

	"specpmt/internal/hwsim"
	"specpmt/internal/pmalloc"
	"specpmt/internal/pmem"
	"specpmt/internal/sim"
	"specpmt/internal/stats"
	"specpmt/internal/txn"
	"specpmt/internal/txn/spec"
)

// ThreadedPool is a pool with one transaction engine per thread: per-thread
// log areas, a shared timestamp source ordering commits across threads, and
// per-engine recovery. "SpecSPMT" (software, spec.Pool underneath, with the
// paper's merged timestamp-ordered recovery of §3.1, §4.1) and "SpecHPMT"
// (hardware, hwsim.Cluster underneath, including the §5.2.2 multi-thread
// epoch reclamation protocol) keep their pool-level coordination; every
// other registered software engine (PMDK undo, SpecSPMT-Hash, Kamino-Tx,
// SPHT, ...) runs as independent per-thread engine instances over the shared
// device, each recovering its own log. Independent recovery is correct when
// threads write disjoint data — the sharded-server usage this pool targets;
// only SpecSPMT's merged recovery orders cross-thread writes to the same
// address.
//
// Like every persistent transaction in the paper, isolation is the caller's
// job (§4.3.3): coordinate access to shared locations with your own locks;
// each Thread must be driven by a single goroutine.
type ThreadedPool struct {
	dev     *pmem.Device
	heap    *pmalloc.Heap
	logs    *pmalloc.Heap
	ts      *txn.Timestamp
	cfg     Config
	threads int

	envs []txn.Env // the envs behind the current attach, one per thread

	swPool  *spec.Pool
	hwClust *hwsim.Cluster
	generic []txn.Engine

	// accumulated across crashes (each crash resets cores)
	accumNs    int64
	accumStats stats.Counters
}

// unsharedEngines lists registered engines that cannot run as independent
// per-thread instances: the single-engine hardware simulators ("SpecHPMT"
// works — via the cluster) and Kamino-Tx, whose whole-region backup copy
// assumes one engine observes every write to the data area.
var unsharedEngines = map[string]bool{
	"EDE": true, "HOOP": true, "SpecHPMT-DP": true, "Kamino-Tx": true,
}

// OpenThreaded creates a pool with n thread engines.
func OpenThreaded(cfg Config, n int) (*ThreadedPool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("specpmt: thread count must be positive")
	}
	if cfg.Size == 0 {
		cfg.Size = 256 << 20
	}
	if cfg.Engine == "" {
		cfg.Engine = "SpecSPMT"
	}
	if unsharedEngines[cfg.Engine] {
		return nil, fmt.Errorf("specpmt: threaded pools support the per-thread software engines and SpecHPMT, not %q", cfg.Engine)
	}
	prof, pl, err := resolveProfile(cfg)
	if err != nil {
		return nil, err
	}
	p := &ThreadedPool{
		dev:     pmem.NewDevice(pmem.Config{Size: cfg.Size, Profile: prof, Platform: pl}),
		ts:      &txn.Timestamp{},
		cfg:     cfg,
		threads: n,
	}
	if cfg.Tracer != nil {
		p.dev.SetTracer(cfg.Tracer)
	}
	dataStart := pmem.Addr(pmem.PageSize)
	dataEnd := pmem.Addr(cfg.Size / 4)
	heapCore := p.dev.NewCore()
	heapCore.SetTrackName("alloc.data")
	logCore := p.dev.NewCore()
	logCore.SetTrackName("alloc.log")
	if p.heap, err = pmalloc.OpenLogged(heapCore, dataStart, dataEnd); err != nil {
		return nil, fmt.Errorf("specpmt: data heap: %w", err)
	}
	if p.logs, err = pmalloc.OpenLogged(logCore, dataEnd, pmem.Addr(cfg.Size)); err != nil {
		return nil, fmt.Errorf("specpmt: log heap: %w", err)
	}
	if cfg.Tracer != nil {
		clock := p.dev.NewCore()
		clock.SetTrackName("clock")
		now := func() int64 { return clock.Now() }
		p.heap.SetTracer(cfg.Tracer, "heap.data", now)
		p.logs.SetTracer(cfg.Tracer, "heap.log", now)
	}
	return p, p.attach()
}

// newEnvs hands out one Env per thread: root slots follow the app root area.
func (p *ThreadedPool) newEnvs() []txn.Env {
	base := appRootsOff + pmem.Addr(RootSlots*8)
	out := make([]txn.Env, p.threads)
	for i := range out {
		out[i] = txn.Env{
			Dev:     p.dev,
			Core:    p.dev.NewCore(),
			Heap:    p.heap,
			LogHeap: p.logs,
			Root:    base + pmem.Addr(i*txn.RootSize),
			TS:      p.ts,
		}
	}
	return out
}

func (p *ThreadedPool) attach() error {
	p.envs = p.newEnvs()
	p.swPool, p.hwClust, p.generic = nil, nil, nil
	var err error
	switch p.cfg.Engine {
	case "SpecSPMT", "SpecSPMT-DP":
		// Both variants need the pool's merged timestamp-ordered recovery:
		// replaying each thread's chain independently would let one
		// thread's older record regress another thread's newer write to
		// the same address (e.g. the server's cross-shard MULTIs, which
		// commit other shards' cells on the executing thread).
		opt := spec.Options{}
		if p.cfg.SpecOptions != nil {
			opt = *p.cfg.SpecOptions
		}
		opt.DataPersist = opt.DataPersist || p.cfg.Engine == "SpecSPMT-DP"
		p.swPool, err = spec.NewPool(p.envs, opt)
	case "SpecHPMT":
		p.hwClust, err = hwsim.NewCluster(p.envs, hwsim.HWOptions{})
	default:
		// Independent per-thread engines over the shared device. Engines are
		// driven one-goroutine-each, so the device must keep its lock on.
		p.dev.ForceShared()
		p.generic = make([]txn.Engine, p.threads)
		for i, env := range p.envs {
			p.generic[i], err = txn.New(p.cfg.Engine, env)
			if err != nil {
				return fmt.Errorf("specpmt: threaded engine %q thread %d: %w", p.cfg.Engine, i, err)
			}
		}
	}
	return err
}

// Threads returns the thread count.
func (p *ThreadedPool) Threads() int { return p.threads }

// SpecPool returns the spec.Pool coordinating the thread engines when the
// pool runs the "SpecSPMT" engine, nil otherwise. It is the engine-level
// recovery-checker surface (spec.Pool.VerifyRecovered).
func (p *ThreadedPool) SpecPool() *spec.Pool { return p.swPool }

// Begin opens a transaction on thread i's engine. Each thread engine must
// be used by one goroutine at a time.
func (p *ThreadedPool) Begin(i int) Tx {
	switch {
	case p.swPool != nil:
		return p.swPool.Engine(i).Begin()
	case p.hwClust != nil:
		return p.hwClust.Engine(i).Begin()
	default:
		return p.generic[i].Begin()
	}
}

// engineAt returns thread i's engine for optional-interface probes
// (e.g. the deferred-fence NoteFence hook on the spec engine).
func (p *ThreadedPool) engineAt(i int) any {
	switch {
	case p.swPool != nil:
		return p.swPool.Engine(i)
	case p.hwClust != nil:
		return p.hwClust.Engine(i)
	default:
		return p.generic[i]
	}
}

// Alloc returns a line-aligned persistent region (safe for concurrent use).
func (p *ThreadedPool) Alloc(n int) (Addr, error) { return p.heap.Alloc(n) }

// DataHeap returns the pool's data-area allocator (for recovery checkers
// and fragmentation inspection).
func (p *ThreadedPool) DataHeap() *pmalloc.Heap { return p.heap }

// LogHeap returns the pool's log-area allocator.
func (p *ThreadedPool) LogHeap() *pmalloc.Heap { return p.logs }

// Free returns a region of n bytes to the allocator (safe for concurrent
// use).
func (p *ThreadedPool) Free(a Addr, n int) { p.heap.Free(a, n) }

// ReadUint64 reads non-transactionally.
func (p *ThreadedPool) ReadUint64(a Addr) uint64 {
	core := p.dev.NewCore()
	return core.LoadUint64(a)
}

// SetRoot durably stores a pool root pointer in slot i — the well-known
// location from which applications rediscover their data after a crash.
// Call it from one goroutine at a time, inside no transaction.
func (p *ThreadedPool) SetRoot(i int, v uint64) error {
	if i < 0 || i >= RootSlots {
		return fmt.Errorf("specpmt: root slot out of range")
	}
	core := p.dev.NewCore()
	at := appRootsOff + pmem.Addr(i*8)
	core.StoreUint64(at, v)
	core.PersistBarrier(at, 8, pmem.KindData)
	return nil
}

// Root reads pool root slot i.
func (p *ThreadedPool) Root(i int) uint64 {
	if i < 0 || i >= RootSlots {
		return 0
	}
	return p.ReadUint64(appRootsOff + pmem.Addr(i*8))
}

// Crash simulates a power failure across every thread.
func (p *ThreadedPool) Crash(seed uint64) error {
	if err := p.Close(); err != nil {
		return err
	}
	p.accumNs += p.maxEngineNow()
	for _, st := range p.threadStats() {
		p.accumStats.Merge(st)
	}
	p.dev.Crash(sim.NewRand(seed))
	heapCore := p.dev.NewCore()
	heapCore.SetTrackName("alloc.data")
	logCore := p.dev.NewCore()
	logCore.SetTrackName("alloc.log")
	if err := p.heap.Reattach(heapCore); err != nil {
		return fmt.Errorf("specpmt: data heap recovery: %w", err)
	}
	if err := p.logs.Reattach(logCore); err != nil {
		return fmt.Errorf("specpmt: log heap recovery: %w", err)
	}
	return p.attach()
}

// Recover restores the committed history: the merged, timestamp-ordered
// multi-thread recovery for SpecSPMT/SpecHPMT, per-engine recovery
// otherwise.
func (p *ThreadedPool) Recover() error {
	switch {
	case p.swPool != nil:
		return p.swPool.Recover()
	case p.hwClust != nil:
		return p.hwClust.Recover()
	default:
		for i, e := range p.generic {
			if err := e.Recover(); err != nil {
				return fmt.Errorf("specpmt: recovering thread %d: %w", i, err)
			}
		}
		return nil
	}
}

// Close shuts every thread engine down.
func (p *ThreadedPool) Close() error {
	switch {
	case p.swPool != nil:
		return p.swPool.Close()
	case p.hwClust != nil:
		return p.hwClust.Close()
	default:
		for _, e := range p.generic {
			if err := e.Close(); err != nil {
				return err
			}
		}
		return nil
	}
}

// threadStats returns each thread's counter set for the current attach: the
// engine's own CPU-core counters for the hardware cluster, the env core's
// otherwise.
func (p *ThreadedPool) threadStats() []*stats.Counters {
	out := make([]*stats.Counters, 0, p.threads)
	for i, env := range p.envs {
		if p.hwClust != nil {
			out = append(out, p.hwClust.Engine(i).CoreStats())
			continue
		}
		out = append(out, env.Core.Stats)
	}
	return out
}

// maxEngineNow returns the most advanced thread clock — the pool's makespan
// since the last crash.
func (p *ThreadedPool) maxEngineNow() int64 {
	var max int64
	for i, env := range p.envs {
		now := env.Core.Now()
		if p.hwClust != nil {
			now = p.hwClust.Engine(i).CoreNow()
		}
		if now > max {
			max = now
		}
	}
	return max
}

// ModeledTime returns the pool's cumulative virtual time in nanoseconds —
// the makespan across thread clocks — including time before crashes. Call
// it only while no thread is mid-transaction.
func (p *ThreadedPool) ModeledTime() int64 { return p.accumNs + p.maxEngineNow() }

// Counters returns a structured snapshot of the pool's counters summed
// across every thread, including those accumulated before crashes. Call it
// only from a quiesced pool or accept slightly stale per-thread counts: the
// counters themselves are plain integers owned by each thread's core.
func (p *ThreadedPool) Counters() Counters {
	s := p.accumStats
	for _, st := range p.threadStats() {
		s.Merge(st)
	}
	return s
}

// Stats returns a formatted snapshot of the pool's cumulative counters.
func (p *ThreadedPool) Stats() string {
	s := p.Counters()
	return s.String()
}

// Metrics returns a snapshot of the aggregate trace metrics (histograms and
// time series). The zero Metrics is returned when no Tracer is configured.
func (p *ThreadedPool) Metrics() Metrics {
	if p.cfg.Tracer == nil {
		return Metrics{}
	}
	return p.cfg.Tracer.Metrics()
}

// Thread returns a single-thread view of the pool: thread i's engine plus
// the shared heap and root slots behind one façade, satisfying the same
// pool interface persistent data structures (pds/...) build on. The view is
// bound to the current attach — Crash invalidates it; call Thread again
// after Recover. Each view must be driven by a single goroutine.
func (p *ThreadedPool) Thread(i int) *Thread {
	if i < 0 || i >= p.threads {
		return nil
	}
	return &Thread{pool: p, idx: i, core: p.envs[i].Core}
}

// Thread is one thread's view of a ThreadedPool (see ThreadedPool.Thread).
type Thread struct {
	pool *ThreadedPool
	idx  int
	core *pmem.Core
}

// Index returns the thread number this view is bound to.
func (t *Thread) Index() int { return t.idx }

// Begin opens a transaction on this thread's engine.
func (t *Thread) Begin() Tx { return t.pool.Begin(t.idx) }

// Fence issues an ordering fence on this thread's core, retiring every
// transaction the thread committed with CommitNoFence (see
// txn.DeferredCommitTx) since the previous fence: many speculative commits,
// one fence. It serves the pipelined crash torture (internal/crashtest) and
// the deferred-commit engine tests; the server commits with Commit. Must
// run on the goroutine driving this thread.
func (t *Thread) Fence() {
	t.core.Fence()
	if n, ok := t.pool.engineAt(t.idx).(interface{ NoteFence() }); ok {
		n.NoteFence()
	}
}

// Alloc returns a line-aligned persistent region from the shared heap.
func (t *Thread) Alloc(n int) (Addr, error) { return t.pool.heap.Alloc(n) }

// Free returns a region of n bytes to the shared heap.
func (t *Thread) Free(a Addr, n int) { t.pool.heap.Free(a, n) }

// ReadUint64 reads non-transactionally on this thread's core.
func (t *Thread) ReadUint64(a Addr) uint64 { return t.core.LoadUint64(a) }

// Read copies len(buf) bytes at a into buf, non-transactionally.
func (t *Thread) Read(a Addr, buf []byte) { t.core.Load(a, buf) }

// SetRoot durably stores a pool root pointer in slot i using this thread's
// core.
func (t *Thread) SetRoot(i int, v uint64) error {
	if i < 0 || i >= RootSlots {
		return fmt.Errorf("specpmt: root slot out of range")
	}
	at := appRootsOff + pmem.Addr(i*8)
	t.core.StoreUint64(at, v)
	t.core.PersistBarrier(at, 8, pmem.KindData)
	return nil
}

// Root reads pool root slot i on this thread's core.
func (t *Thread) Root(i int) uint64 {
	if i < 0 || i >= RootSlots {
		return 0
	}
	return t.core.LoadUint64(appRootsOff + pmem.Addr(i*8))
}

// Now returns this thread's virtual clock in nanoseconds — the modeled time
// the thread has spent, the per-request latency metric servers report.
func (t *Thread) Now() int64 { return t.core.Now() }

// Counters returns a snapshot of this thread's core counters. (For the
// SpecHPMT cluster this covers the thread's front-end core, not the
// engine-internal hardware cores — use ThreadedPool.Counters for those.)
func (t *Thread) Counters() Counters { return t.core.Stats.Snapshot() }
