// Package txn defines the engine-agnostic persistent memory transaction API
// shared by every crash-consistency scheme in this repository: the PMDK-style
// undo baseline, Kamino-Tx, SPHT, and the paper's contribution, software
// SpecPMT (package spec).
//
// The API mirrors the classical persistent transaction interface the paper
// preserves (Figure 3): tx_begin / transactional loads and stores /
// tx_commit, plus post-crash Recover. Logging is implicit in Store — the
// paper notes splog calls are inserted by programmer or compiler after each
// durable update; here the engine's Store plays that role.
package txn

import (
	"fmt"
	"sort"
	"sync/atomic"

	"specpmt/internal/pmalloc"
	"specpmt/internal/pmem"
)

// Tx is one open transaction. Implementations are not safe for concurrent
// use; one goroutine drives one Tx.
type Tx interface {
	// Load reads len(buf) bytes at addr, observing the transaction's own
	// uncommitted writes (needed by redo-style engines).
	Load(addr pmem.Addr, buf []byte)
	// LoadUint64 reads a little-endian uint64 at addr.
	LoadUint64(addr pmem.Addr) uint64
	// Store transactionally writes data at addr.
	Store(addr pmem.Addr, data []byte)
	// StoreUint64 transactionally writes a little-endian uint64 at addr.
	StoreUint64(addr pmem.Addr, v uint64)
	// Compute models non-memory work inside the transaction.
	Compute(ns int64)
	// Commit makes the transaction's writes crash-atomic and durable.
	Commit() error
	// Abort rolls the transaction back during normal execution.
	Abort() error
}

// DeferredCommitTx is implemented by transactions that can commit
// speculatively: CommitNoFence persists the commit record's flushes into
// the core's write pending queue but defers the trailing ordering fence to
// a later pmem.Core.Fence on the same core. Until that fence retires, a
// crash may lose the transaction — but only together with every later
// transaction on the same core (recovery yields a prefix of the commit
// order), which makes the deferral safe as long as no externally visible
// acknowledgement is released before the fence. This is the server-level
// analogue of SpecPMT's speculative persistence: execution runs past an
// outstanding persist, and publication waits for the fence.
type DeferredCommitTx interface {
	Tx
	// CommitNoFence commits without the trailing ordering fence. On error
	// the transaction is rolled back exactly as a failed Commit would be.
	CommitNoFence() error
}

// Engine is a crash-consistency scheme bound to one device region.
type Engine interface {
	// Name identifies the engine in reports ("PMDK", "SpecSPMT", ...).
	Name() string
	// Begin opens a transaction on the engine's core.
	Begin() Tx
	// Recover restores a consistent persistent state after a crash. It must
	// be called on a freshly constructed engine attached to the same root.
	Recover() error
	// Close stops background work (reclamation, replay) and releases the
	// engine. The engine must not be used afterwards.
	Close() error
}

// Env bundles the resources an engine operates on.
type Env struct {
	Dev  *pmem.Device
	Core *pmem.Core
	// Heap allocates application data.
	Heap *pmalloc.Heap
	// LogHeap allocates log blocks and other engine-private areas.
	LogHeap *pmalloc.Heap
	// Root is a line-aligned, engine-private persistent area (at least
	// RootSize bytes) where the engine keeps whatever it needs to find its
	// state again after a crash.
	Root pmem.Addr
	// TS supplies commit timestamps (stands in for rdtscp, §4.1).
	TS *Timestamp
}

// RootSize is the number of bytes engines may use at Env.Root.
const RootSize = 256

// Timestamp is a monotonic commit-timestamp source shared by all cores of a
// device — the simulation's stand-in for the rdtscp instruction the paper
// uses to order commits across threads.
type Timestamp struct {
	c atomic.Uint64
}

// Next returns the next timestamp; values are unique and increasing.
func (t *Timestamp) Next() uint64 { return t.c.Add(1) }

// Last returns the most recently issued timestamp.
func (t *Timestamp) Last() uint64 { return t.c.Load() }

// Checksum64 is FNV-1a, used as the commit marker of log records: a record
// whose stored checksum matches its contents is committed (§4.1: "the
// checksum also serves as the transaction's commit status"), which saves
// the dedicated commit flag and its extra fence.
func Checksum64(data []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	// Guard against the degenerate all-zeroes record checksumming to a
	// well-known constant that freshly-zeroed memory could also hold.
	if h == 0 {
		h = offset
	}
	return h
}

// WriteSet tracks the distinct byte ranges a transaction updated, in first-
// touch order, and the distinct cache lines they span. Engines use it to
// flush updated data at commit and to detect repeated updates.
type WriteSet struct {
	ranges []WriteRange
	lines  map[uint64]struct{}
	lineSl []uint64
	byAddr map[pmem.Addr]int // addr -> index of last range starting there
}

// WriteRange is one recorded update.
type WriteRange struct {
	Addr pmem.Addr
	Size int
}

// NewWriteSet returns an empty write set.
func NewWriteSet() *WriteSet {
	return &WriteSet{lines: make(map[uint64]struct{}), byAddr: make(map[pmem.Addr]int)}
}

// Add records an update of n bytes at addr.
func (w *WriteSet) Add(addr pmem.Addr, n int) {
	w.ranges = append(w.ranges, WriteRange{addr, n})
	w.byAddr[addr] = len(w.ranges) - 1
	if n <= 0 {
		return
	}
	first, last := pmem.LineOf(addr), pmem.LineOf(addr+pmem.Addr(n-1))
	for l := first; l <= last; l++ {
		if _, ok := w.lines[l]; !ok {
			w.lines[l] = struct{}{}
			w.lineSl = append(w.lineSl, l)
		}
	}
}

// Seen reports whether an update starting exactly at addr was recorded, and
// the index of the most recent one.
func (w *WriteSet) Seen(addr pmem.Addr) (int, bool) {
	i, ok := w.byAddr[addr]
	return i, ok
}

// Ranges returns the recorded updates in first-touch order.
func (w *WriteSet) Ranges() []WriteRange { return w.ranges }

// Lines returns the distinct touched cache lines sorted ascending, so that
// commit-time data flushes drain in the most favourable (most sequential)
// order the hardware could achieve.
func (w *WriteSet) Lines() []uint64 {
	sort.Slice(w.lineSl, func(i, j int) bool { return w.lineSl[i] < w.lineSl[j] })
	return w.lineSl
}

// Len returns the number of recorded updates.
func (w *WriteSet) Len() int { return len(w.ranges) }

// Bytes returns the total updated byte count (double-counting overlaps, as
// logging does).
func (w *WriteSet) Bytes() int {
	n := 0
	for _, r := range w.ranges {
		n += r.Size
	}
	return n
}

// Reset empties the write set, retaining capacity. It deletes exactly the
// keys the last transaction added: clearing a map costs its high-water
// capacity, so one large transaction would otherwise tax every later Reset.
func (w *WriteSet) Reset() {
	for _, r := range w.ranges {
		delete(w.byAddr, r.Addr)
	}
	for _, l := range w.lineSl {
		delete(w.lines, l)
	}
	w.ranges = w.ranges[:0]
	w.lineSl = w.lineSl[:0]
}

// Factory constructs an engine over an Env.
type Factory func(Env) (Engine, error)

var registry = map[string]Factory{}

// Register adds a named engine factory. Engine packages call it from init.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("txn: duplicate engine %q", name))
	}
	registry[name] = f
}

// New constructs the named engine.
func New(name string, env Env) (Engine, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("txn: unknown engine %q", name)
	}
	return f(env)
}

// Engines lists the registered engine names, sorted.
func Engines() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
