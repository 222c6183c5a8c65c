// Package recovery is the unified, declarative recovery-invariant checker.
//
// Every crash-consistent subsystem exposes its recovery contract as a
// Checker: Snapshot() captures the committed oracle at a quiesced point
// before a power failure, and Check() re-derives the subsystem's state from
// persistent memory after recovery and verifies it against both the
// snapshot and the subsystem's structural invariants. The crash-injection
// harness (internal/crashtest) registers every relevant checker once per
// scenario and runs the whole Registry after every power-fail point —
// replacing the per-test, hand-rolled oracles that PR 7's coverage-record
// hole proved incomplete. A new subsystem gets crash-checked for free by
// registering a Checker; it does not get to invent its own verification
// loop.
//
// The style follows the verified-storage multilog school: recovery is
// specified as a function of the persistent image alone ("Recover(mem) ->
// state"), and the check is a predicate over that state plus the last
// committed oracle — never over volatile bookkeeping that died with the
// power.
//
// Checkers in this repository:
//
//   - Heap (pmalloc): the logged span allocator re-runs recovery from the
//     persistent image and diffs it against the live allocation map — no
//     lost or double-allocated spans/blocks, bitmap popcounts matching
//     allocation counts, well-formed runs (pmalloc.Heap.Verify), and the
//     post-crash replay itself must have matched the pre-crash mirror
//     (pmalloc.Heap.RecoveryError).
//   - Cells (basic crashtest): every fully committed cell write survives
//     with exactly its committed value.
//   - Prefix (deferred commit fences): the recovered state equals some
//     prefix of the speculative commit history at or past the last retired
//     fence — the acknowledgment rule for CommitNoFence callers.
//   - KV (hashmap via server): the recovered key/value set equals the
//     committed oracle, the map validates structurally, and any in-progress
//     old table is whole (hashmap.Map.CheckRecovered).
//   - engine pools (spec): chain well-formedness, index/record/memory
//     agreement including PR 7's coverage-record invariant
//     (spec.Engine.VerifyRecovered), registered via Func.
//   - repl cursor: cursor cells at or below the shipped LSN, applied
//     position = max cell, no torn stamp (repl.Applier.CheckRecovered),
//     registered via Func.
package recovery

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"specpmt/internal/pmalloc"
	"specpmt/internal/pmem"
)

// Checker is one subsystem's recovery contract.
type Checker interface {
	// Name identifies the checker in failure reports ("pmalloc.data",
	// "spec.log", "repl.cursor", ...).
	Name() string
	// Snapshot captures the committed oracle. Called at a quiesced point
	// before a power failure is injected; stateless checkers (whose oracle
	// is the subsystem's own persistent mirror) may make it a no-op.
	Snapshot()
	// Check re-derives the subsystem's state from persistent memory (after
	// crash + recovery) and verifies it against the snapshot and the
	// subsystem's structural invariants.
	Check() error
}

// Failure records one checker failing at one power-fail point.
type Failure struct {
	Point   int    `json:"point"`
	Checker string `json:"checker"`
	Error   string `json:"error"`
}

// Summary aggregates a registry's (or a whole run's) checking activity —
// the artifact crashtest -summary writes for CI.
type Summary struct {
	Scenario   string    `json:"scenario,omitempty"`
	Points     int       `json:"power_fail_points"`
	Checks     int       `json:"checks"`
	Failed     int       `json:"failed"`
	DurationNs int64     `json:"duration_ns"`
	Failures   []Failure `json:"failures,omitempty"`
}

// Merge folds another summary into s (for multi-seed / multi-scenario CI
// artifacts).
func (s *Summary) Merge(o Summary) {
	s.Points += o.Points
	s.Checks += o.Checks
	s.Failed += o.Failed
	s.DurationNs += o.DurationNs
	s.Failures = append(s.Failures, o.Failures...)
}

// Registry is the set of checkers one crash scenario runs at every
// power-fail point.
type Registry struct {
	checkers []Checker
	sum      Summary
}

// NewRegistry creates a registry tagged with a scenario name.
func NewRegistry(scenario string) *Registry {
	return &Registry{sum: Summary{Scenario: scenario}}
}

// Register adds checkers to the registry.
func (r *Registry) Register(cs ...Checker) { r.checkers = append(r.checkers, cs...) }

// Snapshot captures every checker's oracle. Call at a quiesced point before
// injecting the power failure.
func (r *Registry) Snapshot() {
	for _, c := range r.checkers {
		c.Snapshot()
	}
}

// Check runs every registered checker against the recovered state — one
// power-fail point. All checkers run even after one fails, so a single
// corruption shows every invariant it breaks; the combined error names each
// failing checker. The error (and Summary) carries the zero-based
// power-fail point index for reproduction.
func (r *Registry) Check() error {
	point := r.sum.Points
	r.sum.Points++
	start := time.Now()
	var errs []string
	for _, c := range r.checkers {
		r.sum.Checks++
		if err := c.Check(); err != nil {
			r.sum.Failed++
			r.sum.Failures = append(r.sum.Failures, Failure{Point: point, Checker: c.Name(), Error: err.Error()})
			errs = append(errs, fmt.Sprintf("%s: %v", c.Name(), err))
		}
	}
	r.sum.DurationNs += time.Since(start).Nanoseconds()
	if len(errs) > 0 {
		return fmt.Errorf("power-fail point %d: %s", point, strings.Join(errs, "; "))
	}
	return nil
}

// Points returns the number of power-fail points checked so far.
func (r *Registry) Points() int { return r.sum.Points }

// Summary returns the accumulated checking summary.
func (r *Registry) Summary() Summary { return r.sum }

// Func builds a checker from plain functions. snapshot may be nil (no-op);
// check must not be.
func Func(name string, snapshot func(), check func() error) Checker {
	return &funcChecker{name: name, snap: snapshot, check: check}
}

type funcChecker struct {
	name  string
	snap  func()
	check func() error
}

func (f *funcChecker) Name() string { return f.name }
func (f *funcChecker) Snapshot() {
	if f.snap != nil {
		f.snap()
	}
}
func (f *funcChecker) Check() error { return f.check() }

// Heap builds the allocator checker over a logged pmalloc heap: recovery
// replay must have matched the pre-crash allocation map (no lost or
// invented allocation), and the persistent image must satisfy the span
// allocator's structural invariants. Snapshot is a no-op — the allocator
// maintains its own volatile mirror as the oracle.
func Heap(name string, h *pmalloc.Heap) Checker {
	return Func(name, nil, func() error {
		if err := h.RecoveryError(); err != nil {
			return fmt.Errorf("recovery diverged from pre-crash allocation map: %w", err)
		}
		return h.Verify()
	})
}

// CellsChecker verifies fully committed (fenced) single-cell writes: after
// recovery every cell must hold exactly its last committed value. The
// driving scenario folds each committed transaction's writes in with Commit
// and drops cells with Forget when their block is freed.
type CellsChecker struct {
	name string
	read func(pmem.Addr) uint64
	live map[pmem.Addr]uint64
	snap map[pmem.Addr]uint64
}

// Cells creates a committed-cells checker reading through read (a pool's
// non-transactional ReadUint64).
func Cells(name string, read func(pmem.Addr) uint64) *CellsChecker {
	return &CellsChecker{
		name: name,
		read: read,
		live: map[pmem.Addr]uint64{},
		snap: map[pmem.Addr]uint64{},
	}
}

// Commit folds one committed transaction's writes into the oracle.
func (c *CellsChecker) Commit(writes map[pmem.Addr]uint64) {
	for a, v := range writes {
		c.live[a] = v
	}
}

// Forget drops a cell from the oracle (its block was freed).
func (c *CellsChecker) Forget(addr pmem.Addr) { delete(c.live, addr) }

// Name implements Checker.
func (c *CellsChecker) Name() string { return c.name }

// Snapshot implements Checker: the oracle is the committed map as of now.
func (c *CellsChecker) Snapshot() {
	c.snap = make(map[pmem.Addr]uint64, len(c.live))
	for a, v := range c.live {
		c.snap[a] = v
	}
}

// Check implements Checker.
func (c *CellsChecker) Check() error {
	addrs := make([]pmem.Addr, 0, len(c.snap))
	for a := range c.snap {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var bad []string
	for _, a := range addrs {
		if got, want := c.read(a), c.snap[a]; got != want {
			bad = append(bad, fmt.Sprintf("addr %d = %#x, committed value %#x", a, got, want))
			if len(bad) == 3 {
				bad = append(bad, "...")
				break
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

// PrefixChecker verifies deferred (speculative) commit fences: the
// recovered state must equal some prefix of the speculative commit history
// at or past the last retired fence. Commits past the fence floor may
// vanish — they were never acknowledged — but no torn transactions and no
// gaps are tolerated.
type PrefixChecker struct {
	name  string
	addrs []pmem.Addr
	read  func(pmem.Addr) uint64

	snaps []map[pmem.Addr]uint64 // state after commit i (snaps[0] = baseline)
	floor int                    // newest snapshot index known durable (retired fence)
	cut   int                    // snapshot index matched by the last Check
}

// Prefix creates a speculative-prefix checker over a fixed cell set.
func Prefix(name string, addrs []pmem.Addr, read func(pmem.Addr) uint64) *PrefixChecker {
	return &PrefixChecker{name: name, addrs: addrs, read: read}
}

func (p *PrefixChecker) clone(state map[pmem.Addr]uint64) map[pmem.Addr]uint64 {
	c := make(map[pmem.Addr]uint64, len(state))
	for a, v := range state {
		c[a] = v
	}
	return c
}

// Init resets the history to a single durable baseline (round start: the
// state recovery just made durable).
func (p *PrefixChecker) Init(state map[pmem.Addr]uint64) {
	p.snaps = []map[pmem.Addr]uint64{p.clone(state)}
	p.floor = 0
}

// Commit appends the state after one speculative (unfenced) commit.
func (p *PrefixChecker) Commit(state map[pmem.Addr]uint64) {
	p.snaps = append(p.snaps, p.clone(state))
}

// Fence marks every commit so far as retired: the acknowledgment floor.
func (p *PrefixChecker) Fence() { p.floor = len(p.snaps) - 1 }

// Name implements Checker.
func (p *PrefixChecker) Name() string { return p.name }

// Snapshot implements Checker. The history itself is the oracle, maintained
// continuously by Commit/Fence, so this is a no-op.
func (p *PrefixChecker) Snapshot() {}

// Check implements Checker: scans for a snapshot at or past the fence floor
// that matches the recovered state exactly. On success the matched
// snapshot becomes the new baseline (recovery made it durable); Cut returns
// it so the scenario can resync its own state.
func (p *PrefixChecker) Check() error {
	recovered := make(map[pmem.Addr]uint64, len(p.addrs))
	for _, a := range p.addrs {
		recovered[a] = p.read(a)
	}
	for c := p.floor; c < len(p.snaps); c++ {
		match := true
		for _, a := range p.addrs {
			if p.snaps[c][a] != recovered[a] {
				match = false
				break
			}
		}
		if match {
			p.cut = c
			p.snaps = []map[pmem.Addr]uint64{p.snaps[c]}
			p.floor = 0
			return nil
		}
	}
	return fmt.Errorf("recovered state matches no speculative prefix at or past the fence floor (floor=%d commits=%d)",
		p.floor, len(p.snaps)-1)
}

// Cut returns the baseline state the last successful Check matched.
func (p *PrefixChecker) Cut() map[pmem.Addr]uint64 { return p.clone(p.snaps[0]) }

// KVChecker verifies a key/value store against a committed oracle. The
// scenario mutates the map returned by Live as transactions commit;
// Snapshot freezes it; check (supplied by the scenario — typically
// server.CheckRecovered over the shard hash maps) compares the recovered
// store against the frozen oracle.
type KVChecker struct {
	name  string
	check func(expect map[uint64]uint64) error
	live  map[uint64]uint64
	snap  map[uint64]uint64
}

// KV creates a key/value oracle checker.
func KV(name string, check func(expect map[uint64]uint64) error) *KVChecker {
	return &KVChecker{name: name, check: check, live: map[uint64]uint64{}, snap: map[uint64]uint64{}}
}

// Live returns the mutable committed-state oracle.
func (k *KVChecker) Live() map[uint64]uint64 { return k.live }

// Name implements Checker.
func (k *KVChecker) Name() string { return k.name }

// Snapshot implements Checker.
func (k *KVChecker) Snapshot() {
	k.snap = make(map[uint64]uint64, len(k.live))
	for key, v := range k.live {
		k.snap[key] = v
	}
}

// Check implements Checker.
func (k *KVChecker) Check() error { return k.check(k.snap) }
