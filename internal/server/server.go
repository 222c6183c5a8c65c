package server

import (
	"bufio"
	"bytes"
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
	// Shards is the shard count: each shard owns one engine thread and one
	// hash-map shard. 1..16 (root-slot bound). Default 4.
	Shards int
	// PoolSize is the persistent pool size in bytes (default 256 MiB).
	PoolSize int
	// MaxBatch caps the requests one group commit coalesces — the jobs a
	// combiner commits per hold of a shard's lock; nobody waits to reach
	// it. <= 1 disables batching (every request commits its own
	// transaction). Default 32.
	MaxBatch int
	// Proto selects which wire protocols the listener accepts: "auto"
	// (default) serves text and, after the 0xB1 version byte, binary;
	// "text" rejects the binary version byte; "binary" requires it as the
	// first byte after the banner.
	Proto string
	// MaxConns bounds concurrent connections; over-limit dials are refused
	// with an ERR line. Default 256.
	MaxConns int
	// MaxInFlight bounds requests admitted to shard queues across all
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
	// MULTIs queue on their shards like writes do. The zero value
	// keeps MVCC on — committed writes install versioned values stamped
	// with their publication LSN, and reads serve lock-free from a
	// consistent snapshot without entering a shard queue.
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

// Replicator receives every committed transaction's effective write set, in
// a valid serialization order: each shard publishes under its combiner lock,
// and a cross-shard transaction under the locks of every shard it touches.
// Publish returns the record's LSN — the publication stamp the MVCC version
// stores install the writes at — and a wait function for synchronous
// replication modes: when non-nil the committer calls it before releasing
// the batch to its clients, extending the commit past the network hop (nil
// for fire-and-forget shipping). Publish is called from many goroutines and
// must be safe for concurrent use.
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
	started   sync.Once
	connWG    sync.WaitGroup
	compactWG sync.WaitGroup
	inflight  chan struct{}

	// opMu/closing/opWG fence internal operations (Apply, Freeze) against
	// Close: once closing is set no new internal op may start, and Close
	// waits for the in-flight ones before closing the pool.
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
// per engine thread, but does not listen — call ListenAndServe or Serve.
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
		sh, err := newShard(pool, i)
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

// Shards returns the shard count.
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
// false. In-flight writes already admitted to a shard queue still commit.
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

// Serve accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	s.startup()
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
// net.Pipe) in the calling goroutine, returning when it closes.
func (s *Server) ServeConn(c net.Conn) {
	s.startup()
	s.connWG.Add(1)
	defer s.connWG.Done()
	s.handleConn(c)
}

// startup runs once, before the first request: every shard publishes its
// STATS snapshot and seeds its version store from the (possibly recovered)
// map — every surviving key is a base version visible at any snapshot — and
// the background compactor starts.
func (s *Server) startup() {
	s.started.Do(func() {
		for _, sh := range s.shards {
			sh.publish()
			s.rebuildStore(sh)
		}
		if s.cfg.CompactEvery > 0 {
			s.compactWG.Add(1)
			go func() {
				defer s.compactWG.Done()
				s.runCompactor()
			}()
		}
	})
}

// Close drains the server: stop accepting, let every in-flight request
// finish and its connection wind down, then close the pool. Every request
// commits on the goroutine that queued it, so once the handlers and internal
// operations are gone, no queue holds a job. Safe to call more than once.
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
		s.compactWG.Wait()
		err = s.pool.Close()
		s.log.Info("closed", "conns_served", s.totalConns.Load())
	})
	return err
}

// Counters returns the pool's counters. Call it on a quiesced server (all
// in-flight requests done) — e.g. after Close, or from tests that know the
// shards are idle.
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

// Apply executes ops as ONE transaction on the owning shards — the
// replication replay entry point. Cross-shard operation sets commit the
// same way as MULTI, so a replayed transaction is exactly as atomic as it
// was on the primary. extra, when non-nil, runs inside the
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
// until a combiner rebuilds the store.
func (s *Server) ApplyAt(lsn uint64, ops []Op, extra func(specpmt.Tx), results []Result) ([]Result, error) {
	if len(ops) == 0 {
		return results, nil
	}
	if !s.beginOp() {
		return results, ErrClosed
	}
	defer s.opWG.Done()
	s.startup()
	if !s.acquire() {
		return results, ErrClosed
	}
	s.maxLSNClock(lsn)
	j := &job{internal: true, pubLSN: lsn, extra: extra}
	j.ops = append(j.ops, ops...)
	s.run(j, s.shardSet(j.shardBuf[:0], j.ops))
	s.commitThrough(j)
	s.release()
	results = append(results, j.results...)
	for _, r := range j.results {
		if r.Status == StatusErr {
			return results, ErrApply
		}
	}
	return results, nil
}

// Freeze takes every shard's combiner lock in ascending order, commits what
// is queued, and calls fn with the store quiesced: no transaction is in
// flight, and fn may read any shard (e.g. via RangeAll) as one consistent
// point-in-time cut. Commits stall for the duration — snapshot transfers
// should copy out under Freeze and stream after it returns. fn runs on the
// caller's goroutine and must not call Apply or Freeze.
func (s *Server) Freeze(fn func()) error {
	if !s.beginOp() {
		return ErrClosed
	}
	defer s.opWG.Done()
	s.startup()
	all := s.allShards()
	s.lockShards(all)
	fn()
	s.unlockShards(all)
	return nil
}

// allShards returns every shard id, ascending.
func (s *Server) allShards() []int {
	all := make([]int, len(s.shards))
	for i := range all {
		all[i] = i
	}
	return all
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
// no in-flight requests, applies, or freezes. Crash holds every shard's
// combiner lock from the power failure until the maps are reattached, so
// no commit turn (nor its idle store rebuild) can touch a shard meanwhile.
// Recovery ends with SelfCheck, so a server can never silently resume over
// a state that violates its recovery invariants.
func (s *Server) Crash(seed uint64) error {
	if err := s.crashAndReattach(seed); err != nil {
		return err
	}
	return s.SelfCheck()
}

func (s *Server) crashAndReattach(seed uint64) error {
	for _, sh := range s.shards {
		sh.comb.Lock()
		defer sh.comb.Unlock()
	}
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
	return nil
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
	return s.CheckRecoveredShards(expect, s.allShards())
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

	c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if _, err := fmt.Fprintf(c, "SPECPMT 1 engine=%s profile=%s shards=%d\n",
		s.cfg.Engine, s.cfg.Profile, s.cfg.Shards); err != nil {
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
	bin := first[0] == BinVersion
	if s.cfg.Proto == "text" && bin || s.cfg.Proto == "binary" && !bin {
		s.protoErrs.Add(1)
		refusal := "ERR binary protocol required (-proto=binary)\n"
		if bin {
			refusal = "ERR binary protocol disabled (-proto=text)\n"
		}
		c.Write([]byte(refusal))
		return
	}
	var cd codec = &textCodec{s: s}
	if bin {
		br.Discard(1)
		s.binConns.Add(1)
		cd = &binCodec{s: s}
	}
	s.serveConn(c, br, cd, &co)
}

// codec hides one wire format from the connection's window loop.
type codec interface {
	// decode decodes the first request in buf, the connection's buffered
	// bytes, and returns it with the bytes it used; n is 0 when buf holds
	// no whole request yet. full reports that buf fills the read buffer: a
	// request that cannot fit breaks the framing. Framing errors decode as
	// a final ERR reply.
	decode(buf []byte, full bool) (req request, n int)
	// barrier runs a barrier verb, turning req into its reply or, for
	// GETAT, into the GET it becomes once its token is published. Its only
	// error is ErrClosed.
	barrier(req request) (request, error)
	// appendResults encodes a data request's results; snap marks a reply
	// served from an MVCC snapshot, lsn the published LSN a GETAT saw.
	appendResults(dst []byte, multi bool, res []Result, modelNs int64, snap bool, lsn uint64) []byte
	appendMoved(dst []byte, mv *Moved) []byte
	appendErr(dst []byte, msg string) []byte
}

type reqKind uint8

const (
	reqOps     reqKind = iota // data operations, run by serve
	reqReply                  // answered without a shard
	reqBarrier                // a barrier verb (see serveConn)
)

// request is one decoded request. Its slices alias codec-owned buffers,
// valid until the codec decodes again.
type request struct {
	kind reqKind
	// ops are one op or a transaction; multi answers them as a transaction
	// (text EXEC, a binary frame of more than one op). lsn is what a GETAT
	// reply carries — on the GETAT barrier, the token to wait for.
	ops   []Op
	multi bool
	lsn   uint64
	reply []byte
	quit  bool // hang up after reply
	verb  Verb
	line  []byte // an unparsed line for the extension hook, and its error
	perr  error
}

// maxConnWindow bounds how many requests one connection may have in flight
// at once.
const maxConnWindow = 64

// pending is one request of a window, in arrival order: a job, or an
// encoded reply (kept across windows).
type pending struct {
	j     *job
	multi bool
	lsn   uint64
	nsh   int
	t0    int64
	reply []byte
}

// window is a connection's requests between two reply writes.
type window struct {
	pend []pending
	jobs []*job // freelist, one per job-backed slot
	nj   int    // jobs queued or run, each holding an in-flight slot
	out  []byte
	quit bool
}

func (w *window) push() *pending {
	if len(w.pend) < cap(w.pend) {
		w.pend = w.pend[:len(w.pend)+1]
	} else {
		w.pend = append(w.pend, pending{})
	}
	p := &w.pend[len(w.pend)-1]
	*p = pending{reply: p.reply[:0]}
	return p
}

// serveConn is the one request loop, whatever the wire format. A window
// opens with a blocking read of one request; requests already fully
// buffered join it — the handler never blocks on the socket while replies
// are owed — up to maxConnWindow, each queued on its shard (a cross-shard
// transaction commits at once) before any is committed. The handler then
// commits its window through, in arrival order, and the replies go out in
// one write.
//
// Barrier verbs (LSN, GETAT, STATS, PROMOTE, extension verbs) never run
// inside a window: one found later in a window ends it and leads the next,
// so it runs once every reply ahead of it is written. Inside the window a
// token or STATS block would miss the writes queued ahead of it, and a
// GETAT wait could wait on a write only this handler is bound to commit.
func (s *Server) serveConn(c net.Conn, br *bufio.Reader, cd codec, co *connObs) {
	// Deadline re-arming is amortized: a timer modification costs more than
	// the clock read guarding it. Deadlines are re-armed once a quarter of
	// their budget has elapsed, so the effective timeout stays within
	// [3/4, 1] of the configured one.
	var lastRArm, lastWArm time.Time
	arm := func(last *time.Time, d time.Duration, set func(time.Time) error) {
		if now := time.Now(); now.Sub(*last) > d/4 {
			*last = now
			set(now.Add(d))
		}
	}
	var (
		w    window
		req  request
		held bool // req is decoded but leads the next window
		err  error
	)
	// next decodes the next buffered request into req; with block set it
	// reads until one is buffered, and false means a read error in err.
	next := func(block bool) bool {
		for {
			buf, _ := br.Peek(br.Buffered())
			var n int
			if req, n = cd.decode(buf, len(buf) == br.Size()); n > 0 {
				br.Discard(n)
				return true
			}
			if !block {
				return false
			}
			arm(&lastRArm, s.cfg.IdleTimeout, c.SetReadDeadline)
			if _, err = br.Peek(len(buf) + 1); err != nil {
				return false
			}
		}
	}
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if !held && !next(true) {
			return
		}
		held = false
		w.pend, w.nj, w.quit = w.pend[:0], 0, false
		if req.kind == reqBarrier {
			req, err = cd.barrier(req)
		}
		for err == nil {
			if req.kind == reqReply {
				p := w.push()
				p.reply = append(p.reply, req.reply...)
				w.quit = req.quit
			} else if held, err = s.serve(&w, cd, req); held {
				break
			}
			if err != nil || w.quit || len(w.pend) == maxConnWindow {
				break
			}
			if !next(false) {
				break
			}
			if held = req.kind == reqBarrier; held {
				break
			}
		}
		// Commit the window's jobs through in order and encode their replies;
		// this must complete on every exit so each in-flight slot is released.
		w.out = w.out[:0]
		for i := range w.pend {
			p := &w.pend[i]
			if p.j == nil {
				w.out = append(w.out, p.reply...)
				continue
			}
			s.commitThrough(p.j)
			s.release()
			if s.stamps {
				s.observeRequest(co, p.j, p.multi, p.t0, p.nsh)
			}
			w.out = cd.appendResults(w.out, p.multi, p.j.results, p.j.modelNs, false, p.lsn)
		}
		if len(w.out) > 0 {
			arm(&lastWArm, s.cfg.WriteTimeout, c.SetWriteDeadline)
			if _, werr := c.Write(w.out); werr != nil {
				return
			}
		}
		if err != nil || w.quit {
			return
		}
	}
}

// serve runs one data request: read-only reject, cluster admission (MOVED),
// the snapshot fast path, then an in-flight slot and its shard queue (run,
// below). Its outcome joins the window as a reply or a job. A
// job holds its slot until the whole window is answered, so serve waits
// for a slot only while the window holds none; after that it takes one
// only if one is free, and otherwise reports held, having changed nothing:
// the request leads the next window. err is ErrClosed on shutdown.
func (s *Server) serve(w *window, cd codec, req request) (held bool, err error) {
	var t0 int64
	if s.stamps {
		t0 = s.nowNs()
	}
	write := hasWrite(req.ops)
	if write && s.readOnly.Load() {
		s.roRejected.Add(1)
		p := w.push()
		p.reply = cd.appendErr(p.reply, "read-only replica")
		return false, nil
	}
	if w.nj == len(w.jobs) {
		w.jobs = append(w.jobs, &job{})
	}
	j := w.jobs[w.nj]
	j.reset()
	j.ops = append(j.ops, req.ops...)
	shards := s.shardSet(j.shardBuf[:0], j.ops)
	if mv, err := s.admitShards(w, shards); mv != nil || err != nil {
		if err == ErrClosed {
			return false, err
		}
		p := w.push()
		if err != nil {
			p.reply = cd.appendErr(p.reply, err.Error())
		} else {
			p.reply = cd.appendMoved(p.reply, mv)
		}
		return false, nil
	}
	// Snapshot fast path: single-shard reads are served lock-free from the
	// shard's MVCC store. Only when nothing earlier in this window was
	// queued: a queued write ahead must be visible
	// (read-your-writes), and a queued read ahead would see newer state than
	// a snapshot read behind it — serving out of order would let this
	// connection read backwards in time. Such a diversion counts as a
	// snapshot fallback. j's results are scratch for the encode.
	snap := s.mvccOn && len(shards) == 1 && !write
	if snap && w.nj == 0 {
		if results, _, ok := s.serveSnapshot(shards[0], j.ops, j.results[:0]); ok {
			j.results = results
			s.countOps(j.ops, req.multi)
			if req.multi {
				s.snapMultis.Add(1)
			}
			p := w.push()
			p.reply = cd.appendResults(p.reply, req.multi, results, 0, true, req.lsn)
			return false, nil
		}
	}
	if w.nj == 0 {
		if !s.acquire() {
			return false, ErrClosed
		}
	} else if !s.tryAcquire() {
		return true, nil
	} else if snap {
		s.snapFallbacks.Add(uint64(len(j.ops)))
	}
	w.nj++
	s.countOps(j.ops, req.multi)
	p := w.push()
	p.j, p.multi, p.lsn, p.nsh, p.t0 = j, req.multi, req.lsn, len(shards), t0
	if s.stamps {
		j.wallEnq = s.nowNs()
	}
	s.run(j, shards)
	return false, nil
}

// countOps counts a request's operations, and a transaction once.
func (s *Server) countOps(ops []Op, multi bool) {
	for _, op := range ops {
		s.opCounts[op.Kind].Add(1)
	}
	if multi {
		s.multis.Add(1)
	}
}

// textCodec is the text protocol (protocol.go). It holds the connection's
// MULTI state: MULTI, queueing and DISCARD are answered inline, and EXEC
// yields the queued block as one request.
type textCodec struct {
	s        *Server
	inMulti  bool
	multiOps []Op
	one      [1]Op
	out      []byte // inline replies
	ext      []byte
}

func (t *textCodec) decode(buf []byte, full bool) (request, int) {
	i := bytes.IndexByte(buf, '\n')
	line := bytes.TrimSuffix(buf[:max(i, 0)], []byte("\r"))
	switch {
	case i < 0 && !full:
		return request{}, 0
	case i < 0 || len(line) > MaxLineLen:
		return t.poison("line too long"), len(buf)
	case len(line) > 0 && line[0] == BinVersion:
		// A binary version byte after text commands: the framing of the
		// rest of the stream is unknowable, so answer and hang up.
		return t.poison("binary frame on a text connection"), len(buf)
	}
	return t.command(line), i + 1
}

func (t *textCodec) command(line []byte) request {
	cmd, err := ParseCommand(line)
	if err != nil {
		t.ext = append(t.ext[:0], line...)
		return request{kind: reqBarrier, line: t.ext, perr: err}
	}
	switch cmd.Verb {
	case VerbPing:
		return t.inline("PONG")
	case VerbQuit:
		return request{kind: reqReply, reply: []byte("BYE\n"), quit: true}
	case VerbLSN, VerbStats, VerbPromote:
		return request{kind: reqBarrier, verb: cmd.Verb}
	case VerbGetAt:
		if t.inMulti {
			return t.protoErr("GETAT inside MULTI")
		}
		t.one[0] = Op{Kind: OpGet, Key: cmd.Op.Key}
		return request{kind: reqBarrier, verb: VerbGetAt, ops: t.one[:], lsn: cmd.Op.Arg1}
	case VerbMulti:
		if t.inMulti {
			return t.protoErr("MULTI inside MULTI")
		}
		t.inMulti, t.multiOps = true, t.multiOps[:0]
		return t.inline("OK")
	case VerbDiscard:
		t.inMulti, t.multiOps = false, t.multiOps[:0]
		return t.inline("OK")
	case VerbExec:
		if !t.inMulti {
			return t.protoErr("EXEC without MULTI")
		}
		t.inMulti = false
		if len(t.multiOps) == 0 {
			return t.inline("RESULTS 0\nEND t=0")
		}
		return request{ops: t.multiOps, multi: true}
	}
	if !t.inMulti {
		t.one[0] = cmd.Op
		return request{ops: t.one[:]}
	}
	if t.s.readOnly.Load() && cmd.Op.Kind != OpGet {
		t.s.roRejected.Add(1)
		t.inMulti = false
		return t.inline("ERR read-only replica (discarded)")
	}
	if len(t.multiOps) >= MaxMultiOps {
		t.inMulti = false
		return t.protoErr("MULTI too large (discarded)")
	}
	t.multiOps = append(t.multiOps, cmd.Op)
	return t.inline("QUEUED")
}

func (t *textCodec) barrier(req request) (request, error) {
	s := t.s
	if req.perr != nil {
		// Unknown or malformed: offer the line to the extension-verb hook
		// (cluster admin commands) before answering ERR.
		if ext := s.extCommand(); ext != nil {
			if fields := splitFields(req.line); len(fields) > 0 {
				if reply, handled := ext(string(fields[0]), fields[1:]); handled {
					return request{kind: reqReply, reply: reply}, nil
				}
			}
		}
		return t.protoErr(req.perr.Error()), nil
	}
	switch req.verb {
	case VerbLSN:
		return t.inline("LSN " + strconv.FormatUint(s.pub.Load(), 10)), nil
	case VerbStats:
		t.out = s.appendStats(t.out[:0])
		return request{kind: reqReply, reply: t.out}, nil
	case VerbPromote:
		s.hookMu.Lock()
		hook := s.promoteHook
		s.hookMu.Unlock()
		if hook == nil {
			return t.inline("ERR not a replica"), nil
		}
		if err := hook(); err != nil {
			return t.inline("ERR promote: " + err.Error()), nil
		}
		s.log.Info("promoted to primary")
		return t.inline("OK"), nil
	}
	// GETAT: once the published LSN reaches the token, a GET whose reply
	// carries lsn=<published>, the client's refreshed session token.
	pub, reached := s.waitPublished(req.lsn)
	if !reached {
		select {
		case <-s.quit:
			return req, ErrClosed
		default:
		}
		return t.inline("ERR published LSN " + strconv.FormatUint(pub, 10) +
			" below token (timeout)"), nil
	}
	return request{ops: req.ops, lsn: pub}, nil
}

func (t *textCodec) inline(line string) request {
	t.out = append(append(t.out[:0], line...), '\n')
	return request{kind: reqReply, reply: t.out}
}

func (t *textCodec) protoErr(msg string) request {
	t.s.protoErrs.Add(1)
	return t.inline("ERR " + msg)
}

// poison answers a stream the server can no longer frame, and hangs up.
func (t *textCodec) poison(msg string) request {
	r := t.protoErr(msg)
	r.quit = true
	return r
}

func (t *textCodec) appendResults(dst []byte, multi bool, res []Result, modelNs int64, snap bool, lsn uint64) []byte {
	if !multi {
		return AppendResultExt(dst, res[0], modelNs, snap, lsn)
	}
	dst = append(dst, "RESULTS "...)
	dst = strconv.AppendInt(dst, int64(len(res)), 10)
	dst = append(dst, '\n')
	for _, r := range res {
		dst = AppendResult(dst, r, -1)
	}
	dst = append(dst, "END t="...)
	dst = strconv.AppendInt(dst, modelNs, 10)
	return append(dst, '\n')
}

func (t *textCodec) appendMoved(dst []byte, mv *Moved) []byte {
	dst = strconv.AppendInt(append(dst, "MOVED "...), int64(mv.Shard), 10)
	dst = strconv.AppendUint(append(dst, ' '), mv.Epoch, 10)
	return append(append(append(dst, ' '), mv.Addr...), '\n')
}

func (t *textCodec) appendErr(dst []byte, msg string) []byte {
	return append(append(append(dst, "ERR "...), msg...), '\n')
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

// run starts a job on its shards: a single-shard job joins its shard's
// queue, and the caller must commitThrough it; a cross-shard job commits
// before run returns (runMulti), after everything queued ahead on its
// shards.
func (s *Server) run(j *job, ids []int) {
	if len(ids) == 1 {
		s.shards[ids[0]].enqueue(j)
		return
	}
	s.runMulti(j, ids)
}

func (s *Server) shardOf(key uint64) int { return ShardOf(key, len(s.shards)) }

// ShardOf maps a key onto one of `shards` shards — the placement
// function shared by every node of a cluster (all nodes run the same global
// shard count, so a key's shard id is cluster-wide; the cluster map then
// maps shard id to owning node).
func ShardOf(key uint64, shards int) int {
	key ^= key >> 33
	key *= 0x9e3779b97f4a7c15
	key ^= key >> 29
	return int(key % uint64(shards))
}

// shardSet appends the sorted distinct shards ops touch to dst.
func (s *Server) shardSet(dst []int, ops []Op) []int {
	var mask uint32
	for _, op := range ops {
		mask |= 1 << uint(s.shardOf(op.Key))
	}
	for i := 0; i < len(s.shards); i++ {
		if mask&(1<<uint(i)) != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// registerMetrics declares the server's metric families and its collectors.
// One collector emits every server sample in a single pass — each shard's
// published snapshot is read exactly once per gather, so a STATS block or a
// /metrics scrape can never mix two publish epochs. The StatsHook rides the
// same gather as a second collector.
func (s *Server) registerMetrics() {
	r := s.reg
	r.Family("specpmt_engine_ok", "1 while the engine is serving", obs.KindGauge)
	r.Family("specpmt_shards", "shard count", obs.KindGauge)
	r.Family("specpmt_uptime_ms", "wall-clock milliseconds since the server started", obs.KindGauge)
	r.Family("specpmt_conns_active", "currently open client connections", obs.KindGauge)
	r.Family("specpmt_conns_total", "client connections accepted since start", obs.KindCounter)
	r.Family("specpmt_conns_refused", "connections refused at the MaxConns gate", obs.KindCounter)
	r.Family("specpmt_inflight", "requests admitted to shard queues right now", obs.KindGauge)
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
	r.Family("specpmt_snapshot_fallbacks", "snapshot-path reads that fell back to a shard queue", obs.KindCounter)
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
	// Per-shard visibility: committed transactions and keys per shard, the
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
func (s *Server) observeRequest(co *connObs, j *job, multi bool, t0 int64, nshards int) {
	now := s.nowNs()
	verb := "MULTI"
	if !multi {
		verb = j.ops[0].Kind.String()
	}
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
