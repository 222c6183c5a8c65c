package server

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"math/bits"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specpmt"
	"specpmt/internal/mvcc"
	"specpmt/internal/obs"
	"specpmt/internal/pmalloc"
	"specpmt/pds/hashmap"
)

// Config parameterises New. The zero value serves SpecSPMT over optane-adr
// on 4 shards with group commit enabled.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe (default
	// "127.0.0.1:7077").
	Addr string
	// Engine picks the crash-consistency scheme backing the store — any
	// per-thread software engine ("SpecSPMT", "PMDK", "SpecSPMT-Hash",
	// "SPHT", ...) or "SpecHPMT". Default "SpecSPMT".
	Engine string
	// Profile names the simulated media profile (see sim.ProfileNames).
	Profile string
	// Shards is the worker count: each worker owns one engine thread and
	// one hash-map shard. 1..16 (root-slot bound). Default 4.
	Shards int
	// PoolSize is the persistent pool size in bytes (default 256 MiB).
	PoolSize int
	// MaxBatch caps the requests one group commit coalesces; a worker never
	// waits to reach it. <= 1 disables batching (every request commits its
	// own transaction). Default 32.
	MaxBatch int
	// Proto selects which wire protocols the listener accepts: "auto"
	// (default) serves text and, after the 0xB1 version byte, binary;
	// "text" rejects the binary version byte; "binary" requires it as the
	// first byte after the banner.
	Proto string
	// MaxConns bounds concurrent connections; over-limit dials are refused
	// with an ERR line. Default 256.
	MaxConns int
	// MaxInFlight bounds requests admitted to worker queues across all
	// connections — the backpressure valve. Default 1024.
	MaxInFlight int
	// CompactEvery, when > 0, runs the background heap compactor: every
	// interval an idle server whose data-heap footprint exceeds
	// CompactFragPct% of its live bytes is compacted under a Freeze
	// (pmalloc.Compact with the shard maps' Relocate mover). 0 disables.
	CompactEvery time.Duration
	// CompactFragPct is the fragmentation threshold, in percent: compaction
	// triggers when footprint*100 > live*CompactFragPct. Default 150.
	CompactFragPct int
	// IdleTimeout closes connections idle for this long (default 60s).
	IdleTimeout time.Duration
	// WriteTimeout bounds one response write (default 10s).
	WriteTimeout time.Duration
	// ReadOnly starts the server rejecting writes (SET/DEL/CAS and any
	// MULTI containing one) — the replica mode. SetReadOnly flips it at
	// runtime (promotion).
	ReadOnly bool
	// NoMVCC disables the MVCC snapshot-read subsystem: GETs and read-only
	// MULTIs queue behind the shard workers like writes do. The zero value
	// keeps MVCC on — committed writes install versioned values stamped
	// with their publication LSN, and reads serve lock-free from a
	// consistent snapshot without entering the worker queue.
	NoMVCC bool
	// Tracer, when non-nil, receives the pool's simulation events plus
	// replication ship/ack/apply events (see internal/trace).
	Tracer *specpmt.Tracer
	// Obs, when non-nil, is the observability plane: its registry backs
	// STATS and /metrics, its span recorder receives live request spans,
	// and its SlowOp threshold gates the slow-op log. Without one the
	// server keeps a private registry (STATS still renders from it) but
	// records no wall-clock spans.
	Obs *obs.Plane
	// Log, when non-nil, receives structured lifecycle and slow-op logs.
	// Falls back to Obs.Log, then to a Logf adapter, then to discard.
	Log *slog.Logger
	// Logf, when non-nil, receives log lines printf-style — the pre-slog
	// hook, kept for tests and embedders; ignored when Log or Obs.Log is
	// set.
	Logf func(format string, args ...any)
}

// RepWrite is one effective write of a committed transaction, in commit
// order — the unit a Replicator ships to replicas. A SET (or winning CAS)
// has Del false and carries Val; a DEL has Del true.
type RepWrite struct {
	Shard    int
	Del      bool
	Key, Val uint64
}

// Replicator receives every committed transaction's effective write set
// from the shard workers, in a valid serialization order (per-shard commit
// order preserved; cross-shard transactions totally ordered by the MULTI
// barrier). Publish returns the record's LSN — the publication stamp the
// MVCC version stores install the writes at — and a wait function for
// synchronous replication modes: when non-nil the worker calls it before
// releasing the batch to its clients, extending the commit past the
// network hop (nil for fire-and-forget shipping). Publish is called from
// multiple worker goroutines and must be safe for concurrent use.
type Replicator interface {
	Publish(writes []RepWrite) (lsn uint64, wait func())
}

func (cfg *Config) fillDefaults() error {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:7077"
	}
	if cfg.Engine == "" {
		cfg.Engine = "SpecSPMT"
	}
	if cfg.Profile == "" {
		cfg.Profile = "optane-adr"
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 || cfg.Shards > specpmt.RootSlots {
		return fmt.Errorf("server: shards must be 1..%d", specpmt.RootSlots)
	}
	if cfg.PoolSize == 0 {
		cfg.PoolSize = 256 << 20
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 32
	}
	if cfg.Proto == "" {
		cfg.Proto = "auto"
	}
	switch cfg.Proto {
	case "auto", "text", "binary":
	default:
		return fmt.Errorf("server: proto must be auto, text, or binary")
	}
	if cfg.CompactFragPct == 0 {
		cfg.CompactFragPct = 150
	}
	if cfg.CompactFragPct < 100 {
		return fmt.Errorf("server: compact fragmentation threshold must be >= 100%%")
	}
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 256
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 1024
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	return nil
}

// ResolveEngine maps the short engine aliases the CLIs accept (spec,
// spec-dp, hashlog, undo, kamino, spht, spec-hw, nolog) to registered
// engine names; unknown aliases pass through for the registry to validate.
func ResolveEngine(name string) string {
	switch name {
	case "spec":
		return "SpecSPMT"
	case "spec-dp":
		return "SpecSPMT-DP"
	case "hashlog":
		return "SpecSPMT-Hash"
	case "undo", "pmdk":
		return "PMDK"
	case "kamino":
		return "Kamino-Tx"
	case "spht":
		return "SPHT"
	case "spec-hw":
		return "SpecHPMT"
	case "nolog":
		return "no-log"
	}
	return name
}

// Server is a network-facing transactional KV store over one ThreadedPool.
type Server struct {
	cfg    Config
	pool   *specpmt.ThreadedPool
	shards []*shard

	quit      chan struct{}
	closeOnce sync.Once
	workersUp sync.Once
	connWG    sync.WaitGroup
	workerWG  sync.WaitGroup
	inflight  chan struct{}
	multiMu   sync.Mutex

	// opMu/closing/opWG fence internal operations (Apply, Freeze) against
	// Close: once closing is set no new internal op may start, and Close
	// waits for the in-flight ones before shutting the worker queues.
	opMu    sync.Mutex
	closing bool
	opWG    sync.WaitGroup

	lnMu sync.Mutex
	ln   net.Listener

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	// hookMu guards the runtime-settable hooks below.
	hookMu      sync.Mutex
	repl        Replicator
	promoteHook func() error
	statsHooks  []StatsHook
	extCmd      ExtCommand
	relocHooks  []RelocateHook

	// Cluster routing (route.go): the installed ownership view, the frozen
	// shard mask for migration cutovers, and the wake channel parked
	// admissions wait on (replaced and closed on every change).
	route      atomic.Pointer[Route]
	routeMu    sync.Mutex
	routeWake  chan struct{}
	frozenMask atomic.Uint64

	readOnly atomic.Bool

	// dispatching counts binary handlers part-way through enqueueing a
	// window they have read; see collectBatch.
	dispatching atomic.Int64

	// MVCC snapshot reads (mvcc.go). mvccOn is !cfg.NoMVCC (immutable
	// after New); pub is the published-LSN watermark GETAT tokens wait on;
	// lsnClock mints LSNs for unreplicated batches.
	mvccOn   bool
	pub      *mvcc.Watermark
	lsnClock atomic.Uint64

	// Observability plane: the registry STATS and /metrics render from, the
	// live span ring, and the slow-op threshold. log is never nil; rec may
	// be. stamps is true when per-request wall-clock stamps are wanted
	// (spans or slow-op log on).
	log    *slog.Logger
	reg    *obs.Registry
	rec    *obs.SpanRecorder
	slowNs int64
	stamps bool

	start       time.Time
	activeConns atomic.Int64
	totalConns  atomic.Uint64
	refused     atomic.Uint64
	opCounts    [4]atomic.Uint64 // by OpKind
	multis      atomic.Uint64
	batches     atomic.Uint64
	batchedOps  atomic.Uint64
	protoErrs   atomic.Uint64
	roRejected  atomic.Uint64
	movedOps    atomic.Uint64
	frozenWaits atomic.Uint64
	slowOps     atomic.Uint64
	binConns    atomic.Uint64
	binFrames   atomic.Uint64

	// snapshot-read accounting (mvcc.go)
	snapReads     atomic.Uint64
	snapMultis    atomic.Uint64
	snapFallbacks atomic.Uint64
	snapStale     obs.Histogram

	// background heap-compactor accounting (compact.go)
	compactions     atomic.Uint64
	compactMoved    atomic.Uint64
	compactFreed    atomic.Uint64
	compactSkipBusy atomic.Uint64

	// recovery-checker accounting (SelfCheck / CheckRecovered)
	recChecks     atomic.Uint64
	recCheckFails atomic.Uint64
	recCheckNs    atomic.Uint64
}

// StatsHook extends the STATS block with subsystem-specific counters (the
// replication layer reports head LSN and lag through one). It is called
// from connection goroutines and must be safe for concurrent use.
type StatsHook func(emit func(name string, val uint64))

// ErrClosed is returned by serve loops after Close.
var ErrClosed = errors.New("server: closed")

// New builds a server: it opens the threaded pool and one hash-map shard
// per worker, but does not listen or start workers — call ListenAndServe
// or Serve.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	pool, err := specpmt.OpenThreaded(specpmt.Config{
		Size:    cfg.PoolSize,
		Engine:  cfg.Engine,
		Profile: cfg.Profile,
		Tracer:  cfg.Tracer,
	}, cfg.Shards)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		pool:      pool,
		quit:      make(chan struct{}),
		inflight:  make(chan struct{}, cfg.MaxInFlight),
		conns:     map[net.Conn]struct{}{},
		start:     time.Now(),
		routeWake: make(chan struct{}),
	}
	s.readOnly.Store(cfg.ReadOnly)
	switch {
	case cfg.Log != nil:
		s.log = cfg.Log
	case cfg.Obs != nil && cfg.Obs.Log != nil:
		s.log = cfg.Obs.Log
	case cfg.Logf != nil:
		s.log = obs.LogfLogger(cfg.Logf)
	default:
		s.log = obs.Nop()
	}
	if cfg.Obs != nil {
		s.reg = cfg.Obs.Reg
		s.rec = cfg.Obs.Spans
		s.slowNs = cfg.Obs.SlowOp.Nanoseconds()
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.stamps = s.rec != nil || s.slowNs > 0
	s.mvccOn = !cfg.NoMVCC
	s.pub = mvcc.NewWatermark()
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(pool, i, cfg.MaxBatch)
		if err != nil {
			pool.Close()
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		if s.rec != nil {
			sh.track = s.rec.Track(fmt.Sprintf("shard-%d", i))
		}
		s.shards = append(s.shards, sh)
	}
	s.registerMetrics()
	return s, nil
}

// Registry returns the metrics registry STATS and /metrics render from —
// the plane's registry when one was configured, a private one otherwise.
func (s *Server) Registry() *obs.Registry { return s.reg }

// nowNs is the wall clock behind spans and slow-op accounting: the span
// recorder's epoch when one is wired (span timestamps must share it), the
// server's start otherwise (only durations are used then).
func (s *Server) nowNs() int64 {
	if s.rec != nil {
		return s.rec.Now()
	}
	return time.Since(s.start).Nanoseconds()
}

// Pool exposes the threaded pool backing the store — replication layers use
// it to allocate durable bookkeeping (applied-LSN cells) in the same
// persistence domain as the data.
func (s *Server) Pool() *specpmt.ThreadedPool { return s.pool }

// Shards returns the worker-shard count.
func (s *Server) Shards() int { return len(s.shards) }

// SetReplicator installs the commit-stream subscriber. Set it before the
// server begins committing (before Serve/ServeConn/Apply); replacing it
// mid-traffic loses the records committed in between.
func (s *Server) SetReplicator(r Replicator) {
	s.hookMu.Lock()
	s.repl = r
	s.hookMu.Unlock()
}

func (s *Server) replicator() Replicator {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	return s.repl
}

// OnPromote installs the handler behind the PROMOTE admin command (a
// replica's promotion-to-primary). Without one, PROMOTE answers ERR.
func (s *Server) OnPromote(fn func() error) {
	s.hookMu.Lock()
	s.promoteHook = fn
	s.hookMu.Unlock()
}

// SetStatsHook registers an extra STATS emitter (see StatsHook). Hooks
// accumulate: the replication role and the cluster node each register one
// and both ride every gather.
func (s *Server) SetStatsHook(fn StatsHook) {
	s.hookMu.Lock()
	s.statsHooks = append(s.statsHooks, fn)
	s.hookMu.Unlock()
}

// ExtCommand extends the text protocol with admin verbs the core server
// does not know (the cluster node registers CLUSTER/CLUSTERSET/MIG* this
// way). It is consulted when a line fails to parse as a built-in command;
// handled replies are written verbatim (they must be newline-terminated —
// multi-line blocks are fine). Called from connection goroutines; must be
// safe for concurrent use.
type ExtCommand func(verb string, args [][]byte) (reply []byte, handled bool)

// OnExtCommand installs the extension-verb handler (nil removes it).
func (s *Server) OnExtCommand(fn ExtCommand) {
	s.hookMu.Lock()
	s.extCmd = fn
	s.hookMu.Unlock()
}

func (s *Server) extCommand() ExtCommand {
	s.hookMu.Lock()
	defer s.hookMu.Unlock()
	return s.extCmd
}

// SetReadOnly flips write rejection at runtime; promotion calls it with
// false. In-flight writes already admitted to a worker queue still commit.
func (s *Server) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// ReadOnly reports whether the server currently rejects writes.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// Engine returns the resolved engine name the store runs on.
func (s *Server) Engine() string { return s.cfg.Engine }

// Profile returns the resolved media profile name.
func (s *Server) Profile() string { return s.cfg.Profile }

// Addr returns the bound listen address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe listens on cfg.Addr and serves until Close. A clean Close
// returns nil.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve starts the shard workers and accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.startWorkers()
	s.log.Info("serving",
		"engine", s.cfg.Engine, "profile", s.cfg.Profile,
		"shards", s.cfg.Shards, "addr", ln.Addr().String())
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		if s.activeConns.Load() >= int64(s.cfg.MaxConns) {
			s.refused.Add(1)
			c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			fmt.Fprintf(c, "ERR max connections (%d) reached\n", s.cfg.MaxConns)
			c.Close()
			continue
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.handleConn(c)
		}()
	}
}

// ServeConn serves one pre-established connection (e.g. one end of a
// net.Pipe) in the calling goroutine, returning when it closes. Workers are
// started on demand.
func (s *Server) ServeConn(c net.Conn) {
	s.startWorkers()
	s.connWG.Add(1)
	defer s.connWG.Done()
	s.handleConn(c)
}

func (s *Server) startWorkers() {
	s.workersUp.Do(func() {
		for _, sh := range s.shards {
			sh.publish()
			// Seed the version store from the (possibly recovered) map
			// before the worker goroutine exists — every surviving key is a
			// base version visible at any snapshot.
			s.rebuildStore(sh)
			s.workerWG.Add(1)
			go func(sh *shard) {
				defer s.workerWG.Done()
				s.runWorker(sh)
			}(sh)
		}
		if s.cfg.CompactEvery > 0 {
			s.workerWG.Add(1)
			go func() {
				defer s.workerWG.Done()
				s.runCompactor()
			}()
		}
	})
}

// Close drains the server: stop accepting, let every in-flight request
// finish and its connection wind down, stop the workers, then close the
// pool. Safe to call more than once.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.opMu.Lock()
		s.closing = true
		s.opMu.Unlock()
		close(s.quit)
		s.lnMu.Lock()
		if s.ln != nil {
			s.ln.Close()
		}
		s.lnMu.Unlock()
		// Wake connections parked in idle reads; handlers notice quit and
		// exit after finishing their current request.
		s.connMu.Lock()
		for c := range s.conns {
			c.SetReadDeadline(time.Now())
		}
		s.connMu.Unlock()
		s.connWG.Wait()
		s.opWG.Wait()
		// No submitters remain: drain the workers.
		s.startWorkers() // ensure worker goroutines exist before closing queues
		for _, sh := range s.shards {
			close(sh.jobs)
		}
		s.workerWG.Wait()
		err = s.pool.Close()
		s.log.Info("closed", "conns_served", s.totalConns.Load())
	})
	return err
}

// Counters returns the pool's counters. Call it on a quiesced server (all
// in-flight requests done) — e.g. after Close, or from tests that know the
// workers are idle.
func (s *Server) Counters() specpmt.Counters { return s.pool.Counters() }

// beginOp registers an internal operation (Apply, Freeze) so Close waits
// for it; it fails once Close has begun.
func (s *Server) beginOp() bool {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	if s.closing {
		return false
	}
	s.opWG.Add(1)
	return true
}

// ErrApply is returned by Apply when the transaction could not commit.
var ErrApply = errors.New("server: apply failed")

// Apply executes ops as ONE transaction through the owning shard workers —
// the replication replay entry point. Cross-shard operation sets use the
// same barrier protocol as MULTI, so a replayed transaction is exactly as
// atomic as it was on the primary. extra, when non-nil, runs inside the
// same transaction after the ops (replicas stamp their applied-LSN cells
// with it, making replay exactly-once across crashes). Results are appended
// to results and returned. Safe for concurrent use; applies admitted to the
// same shard's queue may group-commit together.
func (s *Server) Apply(ops []Op, extra func(specpmt.Tx), results []Result) ([]Result, error) {
	return s.ApplyAt(0, ops, extra, results)
}

// ApplyAt is Apply with a publication LSN: the transaction's effective
// writes install into the MVCC version stores stamped at lsn, and the
// published-LSN watermark advances to it once the transaction commits —
// the replica replay entry point (the run's last LSN is the stamp; the run
// applies atomically, so visibility jumping to its end is consistent).
// lsn 0 (plain Apply) installs nothing: writes without a publication LSN
// mark their stores stale and the fast path falls back to the queued path
// until the worker rebuilds the store.
func (s *Server) ApplyAt(lsn uint64, ops []Op, extra func(specpmt.Tx), results []Result) ([]Result, error) {
	if len(ops) == 0 {
		return results, nil
	}
	if !s.beginOp() {
		return results, ErrClosed
	}
	defer s.opWG.Done()
	s.startWorkers()
	if !s.acquire() {
		return results, ErrClosed
	}
	s.maxLSNClock(lsn)
	j := newJob()
	j.internal = true
	j.pubLSN = lsn
	j.extra = extra
	j.ops = append(j.ops, ops...)
	s.dispatch(j, s.shardSet(ops))
	<-j.done
	s.release()
	results = append(results, j.results...)
	for _, r := range j.results {
		if r.Status == StatusErr {
			return results, ErrApply
		}
	}
	return results, nil
}

// Freeze parks every shard worker at a barrier and calls fn with the store
// quiesced: no transaction is in flight, and fn may read any shard (e.g.
// via RangeAll) as one consistent point-in-time cut. Commits stall for the
// duration — snapshot transfers should copy out under Freeze and stream
// after it returns. fn runs on a worker goroutine.
func (s *Server) Freeze(fn func()) error {
	if !s.beginOp() {
		return ErrClosed
	}
	defer s.opWG.Done()
	s.startWorkers()
	j := newJob()
	j.internal = true
	j.frozen = fn
	all := make([]int, len(s.shards))
	for i := range all {
		all[i] = i
	}
	s.dispatch(j, all)
	<-j.done
	return nil
}

// RangeAll iterates every shard's committed pairs. Only coherent from
// inside a Freeze callback or on an otherwise quiesced server.
func (s *Server) RangeAll(fn func(shard int, key, val uint64) bool) {
	for i, sh := range s.shards {
		stop := false
		sh.m.Range(func(k, v uint64) bool {
			if !fn(i, k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Crash simulates a power failure of the whole server and recovers from it:
// the pool crashes (randomly evicting dirty lines per the media profile),
// engine recovery replays the committed history, and every shard reattaches
// to its persistent map. The caller must guarantee the server is quiesced —
// no in-flight requests, applies, or freezes. Workers stay parked on their
// queues throughout and observe the reattached state via the next job.
// Recovery ends with SelfCheck, so a server can never silently resume over
// a state that violates its recovery invariants.
func (s *Server) Crash(seed uint64) error {
	if err := s.pool.Crash(seed); err != nil {
		return err
	}
	if err := s.pool.Recover(); err != nil {
		return err
	}
	for i, sh := range s.shards {
		th := s.pool.Thread(i)
		m, err := hashmap.Open(th, i)
		if err != nil {
			return fmt.Errorf("server: reopening shard %d: %w", i, err)
		}
		sh.th, sh.m = th, m
		// Version chains are volatile: rebuild them empty over the
		// recovered map (base versions at LSN 0, watermark preserved).
		s.rebuildStore(sh)
	}
	return s.SelfCheck()
}

// noteCheck folds one recovery-checker run into the observability counters
// (specpmt_recovery_checks / _check_failures / _check_duration_ns).
func (s *Server) noteCheck(t0 time.Time, err error) error {
	s.recChecks.Add(1)
	s.recCheckNs.Add(uint64(time.Since(t0).Nanoseconds()))
	if err != nil {
		s.recCheckFails.Add(1)
	}
	return err
}

// SelfCheck runs the store's structural recovery invariants over a
// quiesced cut: every shard hash map validates, the logged allocators'
// persistent metadata matches their in-memory mirrors (and recovery, when
// one just ran, reproduced the pre-crash allocation map), and — on the
// SpecSPMT engine — every thread's log chain is well formed with
// index/record/memory agreement. Run at startup and after every Crash; a
// failure means persistent state the server must not serve from.
func (s *Server) SelfCheck() error {
	t0 := time.Now()
	var err error
	ferr := s.Freeze(func() {
		err = s.selfCheckQuiesced()
	})
	if ferr != nil {
		return s.noteCheck(t0, ferr)
	}
	return s.noteCheck(t0, err)
}

func (s *Server) selfCheckQuiesced() error {
	for i, sh := range s.shards {
		if err := sh.m.Validate(); err != nil {
			return fmt.Errorf("server: shard %d: %w", i, err)
		}
	}
	for _, h := range []struct {
		name string
		heap *pmalloc.Heap
	}{{"data", s.pool.DataHeap()}, {"log", s.pool.LogHeap()}} {
		if err := h.heap.RecoveryError(); err != nil {
			return fmt.Errorf("server: %s heap recovery diverged: %w", h.name, err)
		}
		if err := h.heap.Verify(); err != nil {
			return fmt.Errorf("server: %s heap: %w", h.name, err)
		}
	}
	if sp := s.pool.SpecPool(); sp != nil {
		if err := sp.VerifyRecovered(s.pool.LogHeap().Allocated); err != nil {
			return fmt.Errorf("server: %w", err)
		}
	}
	return nil
}

// CheckRecovered verifies the recovered store against a committed oracle:
// the union of every shard map's key/value set must equal expect exactly,
// with each shard's map also passing its structural recovery checks
// (hashmap.Map.CheckRecovered). The crash harness's replica-replay
// scenario drives this after every replica power failure.
func (s *Server) CheckRecovered(expect map[uint64]uint64) error {
	all := make([]int, len(s.shards))
	for i := range all {
		all[i] = i
	}
	return s.CheckRecoveredShards(expect, all)
}

// CheckRecoveredShards is CheckRecovered restricted to the listed shards —
// the per-shard generalization cluster migration verifies with: after a
// cutover each node is checked against the oracle projected onto the shards
// it owns (oracle keys hashing to other shards are ignored). The crashtest
// migration scenario drives this on both nodes at every power-fail point.
func (s *Server) CheckRecoveredShards(expect map[uint64]uint64, shards []int) error {
	t0 := time.Now()
	perShard := make(map[int]map[uint64]uint64, len(shards))
	for _, i := range shards {
		if i < 0 || i >= len(s.shards) {
			return s.noteCheck(t0, fmt.Errorf("server: no shard %d", i))
		}
		perShard[i] = map[uint64]uint64{}
	}
	for k, v := range expect {
		if m, ok := perShard[s.shardOf(k)]; ok {
			m[k] = v
		}
	}
	var err error
	ferr := s.Freeze(func() {
		for _, i := range shards {
			if cerr := s.shards[i].m.CheckRecovered(perShard[i]); cerr != nil {
				err = fmt.Errorf("server: shard %d: %w", i, cerr)
				return
			}
		}
	})
	if ferr != nil {
		return s.noteCheck(t0, ferr)
	}
	return s.noteCheck(t0, err)
}

func (s *Server) trackConn(c net.Conn, add bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// connObs is one connection's observability context: its span track and a
// logger carrying the connection attrs every slow-op line should have.
type connObs struct {
	track int32
	log   *slog.Logger
}

func (s *Server) handleConn(c net.Conn) {
	defer c.Close()
	s.trackConn(c, true)
	defer s.trackConn(c, false)
	s.activeConns.Add(1)
	defer s.activeConns.Add(-1)
	id := s.totalConns.Add(1)

	co := connObs{log: s.log}
	if s.stamps {
		co.log = s.log.With("conn", id, "peer", c.RemoteAddr().String())
	}
	if s.rec != nil {
		// Connections share a small set of tracks so a long-lived server
		// cannot grow the track table without bound.
		co.track = s.rec.Track(fmt.Sprintf("conn-%d", id%8))
	}

	bw := bufio.NewWriter(c)
	c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	fmt.Fprintf(bw, "SPECPMT 1 engine=%s profile=%s shards=%d\n",
		s.cfg.Engine, s.cfg.Profile, s.cfg.Shards)
	if bw.Flush() != nil {
		return
	}

	br := bufio.NewReaderSize(c, binReadBuf)
	// Protocol selection: the banner is always text; a client that wants
	// the binary protocol answers with the 0xB1 version byte as its very
	// first byte, anything else speaks the text protocol for the
	// connection's lifetime. Mixing after that is a protocol error.
	c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] == BinVersion {
		if s.cfg.Proto == "text" {
			s.protoErrs.Add(1)
			s.writeLine(c, bw, "ERR binary protocol disabled (-proto=text)")
			return
		}
		br.Discard(1)
		s.binConns.Add(1)
		s.handleBinary(c, br, bw, &co)
		return
	}
	if s.cfg.Proto == "binary" {
		s.protoErrs.Add(1)
		s.writeLine(c, bw, "ERR binary protocol required (-proto=binary)")
		return
	}
	var (
		multiOps []Op
		inMulti  bool
		replyBuf []byte
		j        = newJob()
	)
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		line, err := readLine(br)
		if err != nil {
			if err == errLineTooLong {
				s.protoErrs.Add(1)
				s.writeLine(c, bw, "ERR line too long")
			}
			return
		}
		if len(line) > 0 && line[0] == BinVersion {
			// A binary version byte after text commands: the framing of the
			// rest of the stream is unknowable, so answer and hang up.
			s.protoErrs.Add(1)
			s.writeLine(c, bw, "ERR binary frame on a text connection")
			return
		}
		cmd, perr := ParseCommand(line)
		if perr != nil {
			// Unknown or malformed: offer the line to the extension-verb
			// hook (cluster admin commands) before answering ERR.
			if ext := s.extCommand(); ext != nil {
				if fields := splitFields(line); len(fields) > 0 {
					if reply, handled := ext(string(fields[0]), fields[1:]); handled {
						if !s.writeBytes(c, bw, reply) {
							return
						}
						continue
					}
				}
			}
			s.protoErrs.Add(1)
			if !s.writeLine(c, bw, "ERR "+perr.Error()) {
				return
			}
			continue
		}
		switch cmd.Verb {
		case VerbPing:
			if !s.writeLine(c, bw, "PONG") {
				return
			}
		case VerbLSN:
			if !s.writeLine(c, bw, "LSN "+strconv.FormatUint(s.pub.Load(), 10)) {
				return
			}
		case VerbGetAt:
			if inMulti {
				s.protoErrs.Add(1)
				if !s.writeLine(c, bw, "ERR GETAT inside MULTI") {
					return
				}
				continue
			}
			if !s.execGetAt(c, bw, &co, j, cmd.Op, &replyBuf) {
				return
			}
		case VerbQuit:
			s.writeLine(c, bw, "BYE")
			return
		case VerbStats:
			if !s.writeStats(c, bw) {
				return
			}
		case VerbMulti:
			if inMulti {
				s.protoErrs.Add(1)
				if !s.writeLine(c, bw, "ERR MULTI inside MULTI") {
					return
				}
				continue
			}
			inMulti, multiOps = true, multiOps[:0]
			if !s.writeLine(c, bw, "OK") {
				return
			}
		case VerbDiscard:
			inMulti, multiOps = false, multiOps[:0]
			if !s.writeLine(c, bw, "OK") {
				return
			}
		case VerbPromote:
			s.hookMu.Lock()
			hook := s.promoteHook
			s.hookMu.Unlock()
			if hook == nil {
				if !s.writeLine(c, bw, "ERR not a replica") {
					return
				}
				continue
			}
			if err := hook(); err != nil {
				if !s.writeLine(c, bw, "ERR promote: "+err.Error()) {
					return
				}
				continue
			}
			s.log.Info("promoted to primary")
			if !s.writeLine(c, bw, "OK") {
				return
			}
		case VerbExec:
			if !inMulti {
				s.protoErrs.Add(1)
				if !s.writeLine(c, bw, "ERR EXEC without MULTI") {
					return
				}
				continue
			}
			inMulti = false
			if s.readOnly.Load() && hasWrite(multiOps) {
				s.roRejected.Add(1)
				multiOps = multiOps[:0]
				if !s.writeLine(c, bw, "ERR read-only replica") {
					return
				}
				continue
			}
			ok := s.execMulti(c, bw, &co, j, multiOps, &replyBuf)
			multiOps = multiOps[:0]
			if !ok {
				return
			}
		case VerbOp:
			if s.readOnly.Load() && cmd.Op.Kind != OpGet {
				s.roRejected.Add(1)
				if inMulti {
					inMulti, multiOps = false, multiOps[:0]
					if !s.writeLine(c, bw, "ERR read-only replica (discarded)") {
						return
					}
					continue
				}
				if !s.writeLine(c, bw, "ERR read-only replica") {
					return
				}
				continue
			}
			if inMulti {
				if len(multiOps) >= MaxMultiOps {
					s.protoErrs.Add(1)
					inMulti, multiOps = false, multiOps[:0]
					if !s.writeLine(c, bw, "ERR MULTI too large (discarded)") {
						return
					}
					continue
				}
				multiOps = append(multiOps, cmd.Op)
				if !s.writeLine(c, bw, "QUEUED") {
					return
				}
				continue
			}
			if !s.execSingle(c, bw, &co, j, cmd.Op, &replyBuf) {
				return
			}
		}
	}
}

// acquire takes one in-flight slot, or reports shutdown.
func (s *Server) acquire() bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-s.quit:
		return false
	}
}

// tryAcquire takes an in-flight slot only if one is free.
func (s *Server) tryAcquire() bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Server) release() { <-s.inflight }

func (s *Server) execSingle(c net.Conn, bw *bufio.Writer, co *connObs, j *job, op Op, replyBuf *[]byte) bool {
	var t0 int64
	if s.stamps {
		t0 = s.nowNs()
	}
	shards := []int{s.shardOf(op.Key)}
	if mv, err := s.admitShards(shards); mv != nil || err != nil {
		if err == ErrClosed {
			return false
		}
		if err != nil {
			return s.writeLine(c, bw, "ERR "+err.Error())
		}
		*replyBuf = appendMovedLine((*replyBuf)[:0], mv)
		return s.writeBytes(c, bw, *replyBuf)
	}
	if op.Kind == OpGet {
		// Snapshot fast path: serve the read lock-free from the shard's
		// published version store, bypassing the worker queue entirely.
		j.reset()
		j.ops = append(j.ops, op)
		if results, _, ok := s.serveSnapshot(shards[0], j.ops, j.results[:0]); ok {
			s.opCounts[OpGet].Add(1)
			j.results = results
			*replyBuf = AppendResultExt((*replyBuf)[:0], j.results[0], 0, true, 0)
			return s.writeBytes(c, bw, *replyBuf)
		}
		j.reset()
	}
	if !s.acquire() {
		return false
	}
	s.opCounts[op.Kind].Add(1)
	j.reset()
	j.ops = append(j.ops, op)
	if s.stamps {
		j.wallEnq = s.nowNs()
	}
	s.dispatch(j, shards)
	<-j.done
	s.release()
	if s.stamps {
		s.observeRequest(co, j, op.Kind.String(), t0, 1)
	}
	*replyBuf = AppendResult((*replyBuf)[:0], j.results[0], j.modelNs)
	return s.writeBytes(c, bw, *replyBuf)
}

func (s *Server) execMulti(c net.Conn, bw *bufio.Writer, co *connObs, j *job, ops []Op, replyBuf *[]byte) bool {
	if len(ops) == 0 {
		return s.writeLine(c, bw, "RESULTS 0") && s.writeLine(c, bw, "END t=0")
	}
	var t0 int64
	if s.stamps {
		t0 = s.nowNs()
	}
	shards := s.shardSet(ops)
	if mv, err := s.admitShards(shards); mv != nil || err != nil {
		if err == ErrClosed {
			return false
		}
		if err != nil {
			return s.writeLine(c, bw, "ERR "+err.Error())
		}
		*replyBuf = appendMovedLine((*replyBuf)[:0], mv)
		return s.writeBytes(c, bw, *replyBuf)
	}
	if len(shards) == 1 && !hasWrite(ops) {
		// Single-shard read-only MULTI: one snapshot serves the whole block
		// atomically. Cross-shard read-only MULTIs stay on the queued path —
		// per-shard snapshots cannot cut a cross-shard write atomically.
		j.reset()
		if results, _, ok := s.serveSnapshot(shards[0], ops, j.results[:0]); ok {
			s.multis.Add(1)
			s.snapMultis.Add(1)
			s.opCounts[OpGet].Add(uint64(len(ops)))
			j.results = results
			buf := (*replyBuf)[:0]
			buf = append(buf, "RESULTS "...)
			buf = strconv.AppendInt(buf, int64(len(j.results)), 10)
			buf = append(buf, '\n')
			for _, r := range j.results {
				buf = AppendResult(buf, r, -1)
			}
			buf = append(buf, "END t=0\n"...)
			*replyBuf = buf
			return s.writeBytes(c, bw, buf)
		}
		j.reset()
	}
	if !s.acquire() {
		return false
	}
	s.multis.Add(1)
	for _, op := range ops {
		s.opCounts[op.Kind].Add(1)
	}
	j.reset()
	j.ops = append(j.ops, ops...)
	if s.stamps {
		j.wallEnq = s.nowNs()
	}
	s.dispatch(j, shards)
	<-j.done
	s.release()
	if s.stamps {
		s.observeRequest(co, j, "MULTI", t0, len(shards))
	}
	buf := (*replyBuf)[:0]
	buf = append(buf, "RESULTS "...)
	buf = strconv.AppendInt(buf, int64(len(j.results)), 10)
	buf = append(buf, '\n')
	for _, r := range j.results {
		buf = AppendResult(buf, r, -1)
	}
	buf = append(buf, "END t="...)
	buf = strconv.AppendInt(buf, j.modelNs, 10)
	buf = append(buf, '\n')
	*replyBuf = buf
	return s.writeBytes(c, bw, buf)
}

// execGetAt serves one GETAT: wait until the published LSN reaches the
// token (op.Arg1), then read op.Key — from the shard's snapshot store when
// the fast path is available, through the worker queue otherwise. The reply
// carries lsn=<published> so the client can refresh its session token.
func (s *Server) execGetAt(c net.Conn, bw *bufio.Writer, co *connObs, j *job, op Op, replyBuf *[]byte) bool {
	pub, reached := s.waitPublished(op.Arg1)
	if !reached {
		select {
		case <-s.quit:
			return false
		default:
		}
		return s.writeLine(c, bw, "ERR published LSN "+strconv.FormatUint(pub, 10)+
			" below token (timeout)")
	}
	get := Op{Kind: OpGet, Key: op.Key}
	shards := []int{s.shardOf(op.Key)}
	if mv, err := s.admitShards(shards); mv != nil || err != nil {
		if err == ErrClosed {
			return false
		}
		if err != nil {
			return s.writeLine(c, bw, "ERR "+err.Error())
		}
		*replyBuf = appendMovedLine((*replyBuf)[:0], mv)
		return s.writeBytes(c, bw, *replyBuf)
	}
	j.reset()
	j.ops = append(j.ops, get)
	if results, _, ok := s.serveSnapshot(shards[0], j.ops, j.results[:0]); ok {
		s.opCounts[OpGet].Add(1)
		j.results = results
		*replyBuf = AppendResultExt((*replyBuf)[:0], j.results[0], 0, true, pub)
		return s.writeBytes(c, bw, *replyBuf)
	}
	j.reset()
	if !s.acquire() {
		return false
	}
	s.opCounts[OpGet].Add(1)
	j.ops = append(j.ops, get)
	s.dispatch(j, shards)
	<-j.done
	s.release()
	*replyBuf = AppendResultExt((*replyBuf)[:0], j.results[0], j.modelNs, false, pub)
	return s.writeBytes(c, bw, *replyBuf)
}

// dispatch routes a job to its shard worker — or, when the operations span
// several shards, enqueues it to every involved worker under the multi
// mutex, which totally orders cross-shard transactions and rules out
// circular waits between their barriers.
func (s *Server) dispatch(j *job, shardIDs []int) {
	if len(shardIDs) == 1 && j.frozen == nil {
		j.multi = nil
		s.shards[shardIDs[0]].jobs <- j
		return
	}
	j.multi = &multiJob{shards: shardIDs, released: make(chan struct{})}
	j.multi.parked.Add(len(shardIDs) - 1)
	j.multi.published.Add(len(shardIDs) - 1)
	s.multiMu.Lock()
	for _, id := range shardIDs {
		s.shards[id].jobs <- j
	}
	s.multiMu.Unlock()
}

func (s *Server) shardOf(key uint64) int { return ShardOf(key, len(s.shards)) }

// ShardOf maps a key onto one of `shards` worker shards — the placement
// function shared by every node of a cluster (all nodes run the same global
// shard count, so a key's shard id is cluster-wide; the cluster map then
// maps shard id to owning node).
func ShardOf(key uint64, shards int) int {
	key ^= key >> 33
	key *= 0x9e3779b97f4a7c15
	key ^= key >> 29
	return int(key % uint64(shards))
}

// shardSet returns the sorted distinct shards ops touch.
func (s *Server) shardSet(ops []Op) []int {
	var mask uint32
	for _, op := range ops {
		mask |= 1 << uint(s.shardOf(op.Key))
	}
	var out []int
	for i := 0; i < len(s.shards); i++ {
		if mask&(1<<uint(i)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

func (s *Server) writeLine(c net.Conn, bw *bufio.Writer, line string) bool {
	c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	bw.WriteString(line)
	bw.WriteByte('\n')
	return bw.Flush() == nil
}

func (s *Server) writeBytes(c net.Conn, bw *bufio.Writer, b []byte) bool {
	c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	bw.Write(b)
	return bw.Flush() == nil
}

// registerMetrics declares the server's metric families and its collectors.
// One collector emits every server sample in a single pass — each shard's
// published snapshot is read exactly once per gather, so a STATS block or a
// /metrics scrape can never mix two publish epochs. The StatsHook rides the
// same gather as a second collector.
func (s *Server) registerMetrics() {
	r := s.reg
	r.Family("specpmt_engine_ok", "1 while the engine is serving", obs.KindGauge)
	r.Family("specpmt_shards", "worker shard count", obs.KindGauge)
	r.Family("specpmt_uptime_ms", "wall-clock milliseconds since the server started", obs.KindGauge)
	r.Family("specpmt_conns_active", "currently open client connections", obs.KindGauge)
	r.Family("specpmt_conns_total", "client connections accepted since start", obs.KindCounter)
	r.Family("specpmt_conns_refused", "connections refused at the MaxConns gate", obs.KindCounter)
	r.Family("specpmt_inflight", "requests admitted to worker queues right now", obs.KindGauge)
	r.Family("specpmt_keys", "live keys across all shards", obs.KindGauge)
	r.Family("specpmt_ops_total", "data operations received, by type", obs.KindCounter)
	r.Family("specpmt_multis", "MULTI/EXEC transactions executed", obs.KindCounter)
	r.Family("specpmt_batches", "group commits executed", obs.KindCounter)
	r.Family("specpmt_batched_ops", "jobs coalesced into group commits", obs.KindCounter)
	r.Family("specpmt_protocol_errors", "malformed or out-of-order commands", obs.KindCounter)
	r.Family("specpmt_readonly", "1 while the server rejects writes (replica mode)", obs.KindGauge)
	r.Family("specpmt_writes_rejected", "writes rejected in read-only mode", obs.KindCounter)
	r.Family("specpmt_moved_ops", "requests redirected with MOVED (shard owned elsewhere)", obs.KindCounter)
	r.Family("specpmt_route_epoch", "installed cluster-map epoch (0 = standalone)", obs.KindGauge)
	r.Family("specpmt_frozen_shards", "shards currently frozen at admission (migration cutover)", obs.KindGauge)
	r.Family("specpmt_frozen_waits", "requests that parked on a frozen shard", obs.KindCounter)
	r.Family("specpmt_slow_ops", "requests slower than the slow-op threshold", obs.KindCounter)
	r.Family("specpmt_model_ns", "modeled nanoseconds elapsed (makespan across shards)", obs.KindGauge)
	r.Family("specpmt_fences", "persist fences issued by the engines", obs.KindCounter)
	r.Family("specpmt_flushes", "cache-line flushes issued by the engines", obs.KindCounter)
	r.Family("specpmt_fence_ns", "modeled nanoseconds spent stalled in fences", obs.KindCounter)
	r.Family("specpmt_tx_begun", "transactions begun", obs.KindCounter)
	r.Family("specpmt_tx_committed", "transactions committed", obs.KindCounter)
	r.Family("specpmt_tx_aborted", "transactions aborted", obs.KindCounter)
	r.Family("specpmt_pm_write_bytes", "bytes written to persistent media", obs.KindCounter)
	r.Family("specpmt_pm_log_bytes", "bytes of engine log writes", obs.KindCounter)
	r.Family("specpmt_pm_data_bytes", "bytes of in-place data-structure writes", obs.KindCounter)
	r.Family("specpmt_log_records", "engine log records appended", obs.KindCounter)
	r.Family("specpmt_bin_conns", "connections that negotiated the binary protocol", obs.KindCounter)
	r.Family("specpmt_bin_frames", "binary request frames decoded", obs.KindCounter)
	r.Family("specpmt_mvcc_enabled", "1 while the MVCC snapshot-read subsystem is on", obs.KindGauge)
	r.Family("specpmt_snapshot_reads", "GET operations served lock-free from an MVCC snapshot", obs.KindCounter)
	r.Family("specpmt_snapshot_multis", "read-only MULTI blocks served from one MVCC snapshot", obs.KindCounter)
	r.Family("specpmt_snapshot_fallbacks", "snapshot-path reads that fell back to the worker queue", obs.KindCounter)
	r.Family("specpmt_versions_live", "MVCC versions currently reachable across all shards", obs.KindGauge)
	r.Family("specpmt_version_reclaims", "MVCC versions reclaimed as unreachable by any snapshot", obs.KindCounter)
	r.Family("specpmt_published_lsn", "published-LSN watermark (the GETAT read-your-writes token)", obs.KindGauge)
	r.Family("specpmt_snapshot_staleness", "published LSN minus snapshot LSN at each snapshot read", obs.KindHistogram)
	r.Family("specpmt_compactions_total", "background heap-compaction passes completed", obs.KindCounter)
	r.Family("specpmt_compact_moved_blocks", "heap blocks relocated by compaction", obs.KindCounter)
	r.Family("specpmt_compact_freed_bytes", "span footprint returned to the free pool by compaction", obs.KindCounter)
	r.Family("specpmt_compact_skipped_busy", "compactor ticks skipped because requests were in flight", obs.KindCounter)
	r.Family("specpmt_heap_live_bytes", "data-heap live bytes (by allocation class)", obs.KindGauge)
	r.Family("specpmt_heap_footprint_bytes", "data-heap span footprint in bytes", obs.KindGauge)
	r.Family("specpmt_recovery_checks", "recovery-invariant checker runs (startup self-check, post-crash, oracle checks)", obs.KindCounter)
	r.Family("specpmt_recovery_check_failures", "recovery-invariant checker runs that found a violation", obs.KindCounter)
	r.Family("specpmt_recovery_check_duration_ns", "wall-clock nanoseconds spent in recovery-invariant checkers", obs.KindCounter)
	r.Family("specpmt_shard_tx_committed", "transactions committed, per shard", obs.KindCounter)
	r.Family("specpmt_shard_keys", "live keys, per shard", obs.KindGauge)
	r.Family("specpmt_commit_ns", "wall-clock group-commit latency in ns, per shard", obs.KindHistogram)
	r.Family("specpmt_batch_jobs", "jobs per group commit, per shard", obs.KindHistogram)
	r.Family("specpmt_queue_depth", "jobs still queued at batch start, per shard", obs.KindHistogram)

	r.Collect(s.collectMetrics)
	r.Collect(func(emit func(obs.Sample)) {
		s.hookMu.Lock()
		hooks := append([]StatsHook(nil), s.statsHooks...)
		s.hookMu.Unlock()
		for _, hook := range hooks {
			hook(func(name string, val uint64) {
				emit(obs.Sample{Family: "specpmt_" + name, Stat: name, Value: val})
			})
		}
	})
}

// collectMetrics emits every server-owned sample from one consistent cut of
// the shard snapshots.
func (s *Server) collectMetrics(emit func(obs.Sample)) {
	cuts := make([]struct {
		st   specpmt.Counters
		keys uint64
	}, len(s.shards))
	var agg specpmt.Counters
	var keys uint64
	var modelNs int64
	for i, sh := range s.shards {
		st, k, now := sh.published()
		cuts[i].st, cuts[i].keys = st, k
		agg.Merge(&st)
		keys += k
		if now > modelNs {
			modelNs = now
		}
	}
	scalar := func(family, stat string, val uint64) {
		emit(obs.Sample{Family: family, Stat: stat, Value: val})
	}
	scalar("specpmt_engine_ok", "engine_ok", 1)
	scalar("specpmt_shards", "shards", uint64(s.cfg.Shards))
	scalar("specpmt_uptime_ms", "uptime_ms", uint64(time.Since(s.start).Milliseconds()))
	scalar("specpmt_conns_active", "conns_active", uint64(s.activeConns.Load()))
	scalar("specpmt_conns_total", "conns_total", s.totalConns.Load())
	scalar("specpmt_conns_refused", "conns_refused", s.refused.Load())
	scalar("specpmt_inflight", "inflight", uint64(len(s.inflight)))
	scalar("specpmt_keys", "keys", keys)
	for kind, stat := range [...]string{OpGet: "ops_get", OpSet: "ops_set", OpDel: "ops_del", OpCAS: "ops_cas"} {
		emit(obs.Sample{
			Family: "specpmt_ops_total",
			Label:  `op="` + OpKind(kind).String() + `"`,
			Stat:   stat,
			Value:  s.opCounts[kind].Load(),
		})
	}
	scalar("specpmt_multis", "multis", s.multis.Load())
	scalar("specpmt_batches", "batches", s.batches.Load())
	scalar("specpmt_batched_ops", "batched_ops", s.batchedOps.Load())
	scalar("specpmt_protocol_errors", "protocol_errors", s.protoErrs.Load())
	scalar("specpmt_readonly", "readonly", boolStat(s.readOnly.Load()))
	scalar("specpmt_writes_rejected", "writes_rejected", s.roRejected.Load())
	scalar("specpmt_moved_ops", "moved_ops", s.movedOps.Load())
	var routeEpoch uint64
	if rt := s.route.Load(); rt != nil {
		routeEpoch = rt.Epoch
	}
	scalar("specpmt_route_epoch", "route_epoch", routeEpoch)
	scalar("specpmt_frozen_shards", "frozen_shards", uint64(bits.OnesCount64(s.frozenMask.Load())))
	scalar("specpmt_frozen_waits", "frozen_waits", s.frozenWaits.Load())
	scalar("specpmt_slow_ops", "slow_ops", s.slowOps.Load())
	scalar("specpmt_bin_conns", "bin_conns", s.binConns.Load())
	scalar("specpmt_bin_frames", "bin_frames", s.binFrames.Load())
	scalar("specpmt_mvcc_enabled", "mvcc_enabled", boolStat(s.mvccOn))
	scalar("specpmt_snapshot_reads", "snapshot_reads", s.snapReads.Load())
	scalar("specpmt_snapshot_multis", "snapshot_multis", s.snapMultis.Load())
	scalar("specpmt_snapshot_fallbacks", "snapshot_fallbacks", s.snapFallbacks.Load())
	var vLive int64
	var vReclaims uint64
	for _, sh := range s.shards {
		if st := sh.ver.Load(); st != nil {
			vLive += st.Live()
			vReclaims += st.Reclaims()
		}
	}
	if vLive < 0 {
		vLive = 0
	}
	scalar("specpmt_versions_live", "versions_live", uint64(vLive))
	scalar("specpmt_version_reclaims", "version_reclaims", vReclaims)
	scalar("specpmt_published_lsn", "published_lsn", s.pub.Load())
	emit(obs.Sample{Family: "specpmt_snapshot_staleness", Hist: s.snapStale.Snapshot()})
	scalar("specpmt_compactions_total", "compactions", s.compactions.Load())
	scalar("specpmt_compact_moved_blocks", "compact_moved_blocks", s.compactMoved.Load())
	scalar("specpmt_compact_freed_bytes", "compact_freed_bytes", s.compactFreed.Load())
	scalar("specpmt_compact_skipped_busy", "compact_skipped_busy", s.compactSkipBusy.Load())
	scalar("specpmt_heap_live_bytes", "heap_live_bytes", uint64(s.pool.DataHeap().Live()))
	scalar("specpmt_heap_footprint_bytes", "heap_footprint_bytes", uint64(s.pool.DataHeap().Footprint()))
	scalar("specpmt_recovery_checks", "recovery_checks", s.recChecks.Load())
	scalar("specpmt_recovery_check_failures", "recovery_check_failures", s.recCheckFails.Load())
	scalar("specpmt_recovery_check_duration_ns", "recovery_check_duration_ns", s.recCheckNs.Load())
	scalar("specpmt_model_ns", "model_ns", uint64(modelNs))
	scalar("specpmt_fences", "fences", agg.Fences)
	scalar("specpmt_flushes", "flushes", agg.Flushes)
	scalar("specpmt_fence_ns", "fence_ns", agg.FenceNs)
	scalar("specpmt_tx_begun", "tx_begun", agg.TxBegun)
	scalar("specpmt_tx_committed", "tx_committed", agg.TxCommitted)
	scalar("specpmt_tx_aborted", "tx_aborted", agg.TxAborted)
	scalar("specpmt_pm_write_bytes", "pm_write_bytes", agg.PMWriteBytes)
	scalar("specpmt_pm_log_bytes", "pm_log_bytes", agg.PMLogBytes)
	scalar("specpmt_pm_data_bytes", "pm_data_bytes", agg.PMDataBytes)
	scalar("specpmt_log_records", "log_records", agg.LogRecords)
	// Per-shard visibility: committed transactions and keys per worker, the
	// denominators behind per-shard replication LSNs and skew diagnosis.
	for i := range cuts {
		emit(obs.Sample{Family: "specpmt_shard_tx_committed", Label: obs.ShardLabel(i),
			Stat: obs.ShardStat(i, "tx_committed"), Value: cuts[i].st.TxCommitted})
		emit(obs.Sample{Family: "specpmt_shard_keys", Label: obs.ShardLabel(i),
			Stat: obs.ShardStat(i, "keys"), Value: cuts[i].keys})
	}
	for i, sh := range s.shards {
		emit(obs.Sample{Family: "specpmt_commit_ns", Label: obs.ShardLabel(i), Hist: sh.commitNs.Snapshot()})
		emit(obs.Sample{Family: "specpmt_batch_jobs", Label: obs.ShardLabel(i), Hist: sh.batchJobs.Snapshot()})
		emit(obs.Sample{Family: "specpmt_queue_depth", Label: obs.ShardLabel(i), Hist: sh.queueDepth.Snapshot()})
	}
}

// writeStats renders the STATS block from one registry gather — the same
// single-epoch snapshot /metrics scrapes, so every numeric STATS field has
// an equal-valued series there and no two fields can straddle a worker's
// publish.
func (s *Server) writeStats(c net.Conn, bw *bufio.Writer) bool {
	c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	bw.Write(s.appendStats(nil))
	return bw.Flush() == nil
}

// appendStats renders the STATS block (shared by the text STATS command and
// the binary STATSREPLY frame) from one registry gather.
func (s *Server) appendStats(dst []byte) []byte {
	samples := s.reg.Gather()
	dst = append(dst, "STAT engine "...)
	dst = append(dst, s.cfg.Engine...)
	dst = append(dst, "\nSTAT profile "...)
	dst = append(dst, s.cfg.Profile...)
	dst = append(dst, '\n')
	for _, sm := range samples {
		if sm.Stat == "" || sm.Hist != nil {
			continue
		}
		dst = obs.FormatStat(dst, sm.Stat, sm.Value)
	}
	return append(dst, "END\n"...)
}

// observeRequest records the finished job's wall-clock spans (whole request,
// queue wait, execution) and emits the slow-op log line when the request
// crossed the threshold. Called with stamps on.
func (s *Server) observeRequest(co *connObs, j *job, verb string, t0 int64, nshards int) {
	now := s.nowNs()
	if s.rec != nil {
		s.rec.Record(
			obs.Span{Kind: obs.SpanRequest, Track: co.track, Start: t0, End: now,
				A: uint64(nshards), B: uint64(len(j.ops))},
			obs.Span{Kind: obs.SpanQueue, Track: co.track, Start: j.wallEnq, End: j.wallExec},
			obs.Span{Kind: obs.SpanExec, Track: co.track, Start: j.wallExec, End: j.wallCommit1},
		)
	}
	if s.slowNs > 0 && now-t0 >= s.slowNs {
		s.slowOps.Add(1)
		co.log.Warn("slow op",
			"verb", verb,
			"ops", len(j.ops),
			"shards", nshards,
			"total_us", (now-t0)/1000,
			"queue_us", (j.wallExec-j.wallEnq)/1000,
			"exec_us", (j.wallCommit0-j.wallExec)/1000,
			"commit_us", (j.wallCommit1-j.wallCommit0)/1000,
		)
	}
}

func boolStat(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// hasWrite reports whether ops contains anything but GETs.
func hasWrite(ops []Op) bool {
	for _, op := range ops {
		if op.Kind != OpGet {
			return true
		}
	}
	return false
}

// snapshot aggregates the per-shard published counter snapshots: summed
// counters, total keys, and the makespan modeled time.
func (s *Server) snapshot() (specpmt.Counters, uint64, int64) {
	var agg specpmt.Counters
	var keys uint64
	var modelNs int64
	for _, sh := range s.shards {
		st, k, now := sh.published()
		agg.Merge(&st)
		keys += k
		if now > modelNs {
			modelNs = now
		}
	}
	return agg, keys, modelNs
}

var errLineTooLong = errors.New("server: line too long")

// readLine reads one newline-terminated line, rejecting lines longer than
// MaxLineLen. The returned slice is valid until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, errLineTooLong
	}
	if err != nil {
		return nil, err
	}
	// Trim the newline and an optional carriage return.
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	if len(line) > MaxLineLen {
		return nil, errLineTooLong
	}
	return line, nil
}
