// Package spec implements software SpecPMT — speculatively persistent memory
// transactions, the central contribution of the paper (§3–§4).
//
// A transaction updates data in place and records the NEW value of each
// updated location in a per-thread speculative log (splog). Nothing is
// flushed during the transaction; at commit the log record — and only the
// log record — is flushed and a SINGLE fence issued (Figure 2, right). The
// record's salted checksum doubles as the commit marker. Because the log
// persists the most recent committed value of every datum, in-place data
// writes never need to be flushed (SpecSPMT); the log functions as a redo
// log for committed transactions and, because the freshest committed record
// of each datum outlives later transactions, as an undo log for interrupted
// ones.
//
// The engine maintains the paper's software structure (Figure 5): per-thread
// chained log blocks in persistent memory, a volatile hash index giving the
// freshest committed record of every address, and a reclaimer that compacts
// stale records on a dedicated core, a few blocks per step, with exactly two
// fences per step.
//
// Two registered variants:
//
//	SpecSPMT    — no data persistence at commit (the full design)
//	SpecSPMT-DP — data flushed under the same commit fence (the paper's
//	              sub-optimal variant isolating the gain of fence removal
//	              from the gain of data-persistence removal)
package spec

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"specpmt/internal/pmem"
	"specpmt/internal/txn"
)

const (
	magic = 0x53504543504d5431 // "SPECPMT1"

	offMagic      = 0
	offHead       = 8
	offBlockSize  = 16
	offCommitFlag = 24
)

// ErrTxTooLarge reports a transaction whose log record exceeds one block.
var ErrTxTooLarge = errors.New("spec: transaction write set exceeds log block size")

// Options configures the engine.
type Options struct {
	// BlockSize is the log block size in bytes (default 32 KiB).
	BlockSize int
	// DataPersist forces data flushes at commit (the SpecSPMT-DP variant).
	DataPersist bool
	// ReclaimThreshold triggers background reclamation once the estimated
	// stale log bytes exceed it (default 256 KiB). The paper: reclamation is
	// triggered "explicitly through an API or implicitly when a transaction
	// execution finds the memory space overhead reaching a tunable
	// threshold".
	ReclaimThreshold int64
	// DisableReclaim turns implicit reclamation off (ReclaimNow still works).
	DisableReclaim bool
	// DedicatedCommitFlag is an ablation knob: instead of relying on the
	// record checksum as the commit marker (§4.1's design, which saves "a
	// dedicated flag and a fence recording the commit status"), commit also
	// persists an explicit flag with its own barrier. Used to measure what
	// the checksum trick saves.
	DedicatedCommitFlag bool
}

func (o *Options) setDefaults() {
	if o.BlockSize == 0 {
		o.BlockSize = 32 << 10
	}
	if o.ReclaimThreshold == 0 {
		o.ReclaimThreshold = 256 << 10
	}
}

// Engine is the software SpecPMT engine for one thread.
type Engine struct {
	env txn.Env
	opt Options
	ch  *chain
	bg  *pmem.Core // reclaimer core (the paper's dedicated background thread)

	// index maps each address to its freshest committed log entry — the
	// volatile "record index hash table" of Figure 5. It is rebuilt from the
	// log on recovery (rebuild-on-crash policy, §4.2).
	index map[pmem.Addr]indexEnt

	liveBytes  int64 // payload bytes occupied by committed records in the chain
	staleBytes int64 // estimated reclaimable bytes among them
	// Per-block accounting, kept by setIndex alone: blockStale[b] is b's
	// share of staleBytes, and blockFresh[b] bounds the slot bytes b's fresh
	// entries take when a reclamation step copies them (freshCost).
	blockStale map[pmem.Addr]int64
	blockFresh map[pmem.Addr]int64
	// retryAt is set when a step found no run that frees a block: commits
	// search again only once staleBytes passes it.
	retryAt   int64
	open      bool
	needsScan bool // attached post-crash: Recover must run before Begin

	// unfenced is true while at least one CommitNoFence record sits in the
	// write pending queue without an ordering fence behind it. Reclamation
	// copies per-entry fresh values into compact records, which would tear
	// transaction atomicity if a source record could still be lost to a
	// crash — so every reclaim entry point fences first when this is set.
	// Owned by the engine's single application thread.
	unfenced bool

	// bgmu serialises chain/index access between the transaction path and
	// the readers that walk it from other goroutines: inspection,
	// verification, and the threaded Pool's merged recovery.
	bgmu sync.Mutex

	// cur is the engine's single reusable transaction object (the engine
	// enforces one open transaction per core, so one is all it needs):
	// write-set, dedup map, old-value map, and value arena are reset and
	// reused across Begin calls instead of reallocated.
	cur tx
}

type indexEnt struct {
	ts     uint64
	rec    recLoc
	valOff int
	size   int
}

func init() {
	txn.Register("SpecSPMT", func(env txn.Env) (txn.Engine, error) {
		return New(env, Options{})
	})
	txn.Register("SpecSPMT-DP", func(env txn.Env) (txn.Engine, error) {
		return New(env, Options{DataPersist: true})
	})
}

// New attaches to (or initialises) a SpecPMT engine at env.Root.
func New(env txn.Env, opt Options) (*Engine, error) {
	opt.setDefaults()
	e := &Engine{env: env, opt: opt, bg: env.Dev.NewCore()}
	e.resetIndex()
	e.bg.SetTrackName("reclaimer")
	c := env.Core
	if c.LoadUint64(env.Root+offMagic) == magic {
		bs := int(c.LoadUint64(env.Root + offBlockSize))
		head := pmem.Addr(c.LoadUint64(env.Root + offHead))
		e.opt.BlockSize = bs
		e.ch = openChain(c, env.LogHeap, env.TS, bs, head)
		e.needsScan = true
		return e, nil
	}
	ch, err := newChain(c, env.LogHeap, env.TS, opt.BlockSize)
	if err != nil {
		return nil, err
	}
	e.ch = ch
	// The head block must be durable before the root points at it, or a
	// crash in between would leave the root referencing garbage.
	ch.flushPending(pmem.KindLog)
	c.Fence()
	c.StoreUint64(env.Root+offHead, uint64(ch.head()))
	c.StoreUint64(env.Root+offBlockSize, uint64(opt.BlockSize))
	c.StoreUint64(env.Root+offMagic, magic)
	c.PersistBarrier(env.Root, txn.RootSize, pmem.KindLog)
	return e, nil
}

// Name implements txn.Engine.
func (e *Engine) Name() string {
	if e.opt.DataPersist {
		return "SpecSPMT-DP"
	}
	return "SpecSPMT"
}

// Close implements txn.Engine. The engine holds no resources beyond the
// device.
func (e *Engine) Close() error { return nil }

// Begin implements txn.Engine.
func (e *Engine) Begin() txn.Tx {
	if e.open {
		panic("spec: engine supports one open transaction per core")
	}
	if e.needsScan {
		panic("spec: Recover must run before transactions on an attached engine")
	}
	e.open = true
	e.env.Core.Stats.TxBegun++
	e.env.Core.TraceTxBegin()
	t := &e.cur
	if t.e == nil {
		t.e = e
		t.ws = txn.NewWriteSet()
		t.byAddr = map[pmem.Addr]int{}
		t.old = map[pmem.Addr][]byte{}
	}
	t.reset()
	return t
}

type tx struct {
	e      *Engine
	ws     *txn.WriteSet
	ents   []logEntry
	byAddr map[pmem.Addr]int
	// old holds pre-transaction values for fast aborts during normal
	// execution (§5.3.2 discusses fast aborts; the slow path would be the
	// crash-recovery routine).
	old  map[pmem.Addr][]byte
	done bool
	// arena backs the per-entry value copies (pending log values and old
	// values), so the store path stops allocating once it reaches its
	// high-water capacity.
	arena txn.Arena
}

// reset readies the reusable tx for a new transaction, keeping the maps,
// slices, and arena capacity warm. Every key of byAddr and old is the
// address of some entry, so deleting those keys empties both maps at the
// cost of the last transaction, not of the maps' high-water capacity.
func (t *tx) reset() {
	t.ws.Reset()
	for _, en := range t.ents {
		delete(t.byAddr, en.addr)
		delete(t.old, en.addr)
	}
	t.ents = t.ents[:0]
	t.done = false
	t.arena.Reset()
}

// Load implements txn.Tx: speculative logging keeps direct memory loads and
// in-place data, so a load is just a load.
func (t *tx) Load(addr pmem.Addr, buf []byte) { t.e.env.Core.Load(addr, buf) }

// LoadUint64 implements txn.Tx.
func (t *tx) LoadUint64(addr pmem.Addr) uint64 { return t.e.env.Core.LoadUint64(addr) }

// Compute implements txn.Tx.
func (t *tx) Compute(ns int64) { t.e.env.Core.Compute(ns) }

// StoreUint64 implements txn.Tx.
func (t *tx) StoreUint64(addr pmem.Addr, v uint64) {
	var b [8]byte
	putU64(b[:], 0, v)
	t.Store(addr, b[:])
}

// Store implements txn.Tx: update in place and splog the NEW value. No
// flush, no fence (Figure 2, right: "log new a" with no barrier).
func (t *tx) Store(addr pmem.Addr, data []byte) {
	if t.done {
		panic("spec: use of finished transaction")
	}
	c := t.e.env.Core
	if _, seen := t.old[addr]; !seen {
		prev := t.arena.Grab(len(data))
		c.Load(addr, prev)
		t.old[addr] = prev
	}
	c.Store(addr, data)
	t.ws.Add(addr, len(data))
	// Write-set indexing (§4): only the last update of a datum in the
	// transaction needs a log entry; earlier ones would be stale on arrival.
	if i, ok := t.byAddr[addr]; ok && len(t.ents[i].val) == len(data) {
		copy(t.ents[i].val, data)
		return
	}
	t.byAddr[addr] = len(t.ents)
	val := t.arena.Grab(len(data))
	copy(val, data)
	t.ents = append(t.ents, logEntry{addr: addr, val: val})
}

// Commit implements txn.Tx: encode one log record, flush it (plus data, for
// the DP variant), and issue the single commit fence.
func (t *tx) Commit() error { return t.commit(true) }

// CommitNoFence implements txn.DeferredCommitTx: the commit record is
// encoded and its flushes issued exactly as Commit does, but the trailing
// ordering fence is deferred to a later pmem.Core.Fence on the same core
// (specpmt.Thread.Fence). Until that fence retires, a crash may lose this
// transaction — but only together with every later one on the thread: log
// recovery stops at the first torn record, so the recovered state is always
// a prefix of the speculative commit order. The volatile index is published
// immediately, so later transactions on the thread observe the speculative
// state, mirroring the paper's speculative-persistence model at record
// granularity.
//
// The dedicated-commit-flag ablation, whose flag barrier is itself a
// fence, gains nothing from deferral and falls back to a full Commit.
func (t *tx) CommitNoFence() error {
	if t.e.opt.DedicatedCommitFlag {
		return t.commit(true)
	}
	return t.commit(false)
}

func (t *tx) commit(fence bool) error {
	if t.done {
		return errors.New("spec: transaction already finished")
	}
	t.done = true
	e := t.e
	e.open = false
	c := e.env.Core
	commitStart := c.Now()
	if len(t.ents) == 0 {
		c.Stats.TxCommitted++
		c.TraceTxCommit(commitStart, 0, 0)
		return nil
	}
	ts := e.env.TS.Next()
	e.bgmu.Lock()
	loc, size, err := e.ch.appendEntries(ts, t.ents)
	if err != nil {
		e.bgmu.Unlock()
		t.restoreOld()
		if errors.Is(err, errRecordTooLarge) {
			err = ErrTxTooLarge
		}
		c.Stats.TxAborted++
		c.TraceTxAbort()
		return err
	}
	if e.opt.DataPersist {
		for _, l := range t.ws.Lines() {
			c.Flush(pmem.Addr(l*pmem.LineSize), pmem.LineSize, pmem.KindData)
		}
	}
	e.ch.flushPending(pmem.KindLog)
	if fence {
		c.Fence() // the one and only commit fence
		e.unfenced = false
	} else {
		e.unfenced = true
	}
	if e.opt.DedicatedCommitFlag {
		// Ablation: the commit-status flag plus barrier the checksum-as-
		// commit-marker design eliminates.
		c.StoreUint64(e.env.Root+offCommitFlag, ts)
		c.PersistBarrier(e.env.Root+offCommitFlag, 8, pmem.KindLog)
	}
	// Publish committed entries in the volatile index; what they displace
	// becomes reclaimable.
	for i := range t.ents {
		en := &t.ents[i]
		e.setIndex(en.addr, indexEnt{ts: ts, rec: loc, valOff: en.valOff, size: len(en.val)})
	}
	e.liveBytes += int64(size)
	c.Stats.TxCommitted++
	c.Stats.LogRecords++
	c.Stats.AddLiveLog(int64(size))
	c.TraceLogAppend(size)
	c.TraceTxCommit(commitStart, len(t.ents), size)
	trigger := e.reclaimDue()
	e.bgmu.Unlock()
	if trigger {
		if _, err := e.reclaimStep(); err != nil {
			return fmt.Errorf("spec: commit succeeded but reclamation failed: %w", err)
		}
	}
	return nil
}

// Abort implements txn.Tx: restore the pre-transaction values in place.
// Nothing was flushed, so no persistence work is needed.
func (t *tx) Abort() error {
	if t.done {
		return errors.New("spec: transaction already finished")
	}
	t.done = true
	t.e.open = false
	t.restoreOld()
	t.e.env.Core.Stats.TxAborted++
	t.e.env.Core.TraceTxAbort()
	return nil
}

// restoreOld puts back every updated datum's pre-transaction value. It
// walks the entries, not the map (whose iteration costs its high-water
// capacity), newest first, so that where updates overlap the earliest
// snapshot is written last.
func (t *tx) restoreOld() {
	c := t.e.env.Core
	for i := len(t.ents) - 1; i >= 0; i-- {
		a := t.ents[i].addr
		c.Store(a, t.old[a])
	}
}

// Recover implements txn.Engine (§3.1): scan the chain from its head,
// replay every committed record's entries in chronological order — redoing
// completed transactions and thereby undoing interrupted ones — persist the
// restored data, and rebuild the volatile index.
func (e *Engine) Recover() error {
	e.bgmu.Lock()
	defer e.bgmu.Unlock()
	c := e.env.Core
	recoverStart := c.Now()
	e.resetIndex()
	touched := txn.NewWriteSet()
	tb, to := e.ch.scanAll(c, func(loc recLoc, rec []byte) bool {
		ts, ents := decodeEntries(rec)
		for _, en := range ents {
			c.Store(en.Addr, en.Val)
			touched.Add(en.Addr, len(en.Val))
			e.setIndex(en.Addr, indexEnt{ts: ts, rec: loc, valOff: en.ValOff, size: len(en.Val)})
		}
		e.liveBytes += int64(slotBytes(len(rec)))
		return true
	})
	for _, l := range touched.Lines() {
		c.Flush(pmem.Addr(l*pmem.LineSize), pmem.LineSize, pmem.KindData)
	}
	c.Fence()
	e.ch.resumeAt(tb, to)
	e.ch.flushPending(pmem.KindLog)
	c.Fence()
	e.needsScan = false
	c.TraceRecoverSpan(recoverStart)
	return nil
}

// ReclaimNow reclaims explicitly (§4.2: "triggered explicitly through an
// API"): it runs reclamation steps until one frees no block.
func (e *Engine) ReclaimNow() error {
	for {
		freed, err := e.reclaimStep()
		if err != nil || !freed {
			return err
		}
	}
}

// reclaimStep runs one reclamation step and reports whether it freed a
// block.
func (e *Engine) reclaimStep() (bool, error) {
	// Retire any deferred commit fences first: reclamation must only ever
	// copy records that can no longer be torn by a crash (see Engine.
	// unfenced). Steps run on the engine's own application thread, so the
	// fence is core-safe.
	if e.unfenced {
		e.env.Core.Fence()
		e.unfenced = false
	}
	e.bgmu.Lock()
	defer e.bgmu.Unlock()
	return e.stepLocked()
}

// NoteFence records that the caller issued an ordering fence on the
// engine's application core (e.g. specpmt.Thread.Fence), retiring every
// deferred CommitNoFence record. Must run on the application thread.
func (e *Engine) NoteFence() { e.unfenced = false }

// reclaimDue reports whether the stale estimate calls for a step (§4.2:
// "implicitly when a transaction execution finds the memory space overhead
// reaching a tunable threshold"). Caller holds bgmu.
func (e *Engine) reclaimDue() bool {
	return !e.opt.DisableReclaim && e.staleBytes > max(e.opt.ReclaimThreshold, e.retryAt)
}

// resetIndex empties the index and its accounting.
func (e *Engine) resetIndex() {
	e.index = map[pmem.Addr]indexEnt{}
	e.blockStale = map[pmem.Addr]int64{}
	e.blockFresh = map[pmem.Addr]int64{}
	e.liveBytes, e.staleBytes, e.retryAt = 0, 0, 0
}

// setIndex makes ie the freshest committed entry of addr. It is the index's
// one writer, so it keeps the per-block accounting: the entry it displaces
// turns stale in its block, and ie's block gains ie's copy cost.
func (e *Engine) setIndex(addr pmem.Addr, ie indexEnt) {
	if prev, ok := e.index[addr]; ok {
		stale := int64(entHeader + prev.size)
		e.staleBytes += stale
		e.blockStale[prev.rec.block] += stale
		e.blockFresh[prev.rec.block] -= freshCost(addr, prev.size)
	}
	e.index[addr] = ie
	e.blockFresh[ie.rec.block] += freshCost(addr, ie.size)
}

// maxRun is the most blocks one reclamation step scans.
const maxRun = 4

// stepPhase names a crash-relevant point inside a reclamation step.
type stepPhase int

const (
	phaseCopied stepPhase = iota // survivors copied and flushed, before fence one
	phaseFenced                  // between fence one and the link store
	phaseLinked                  // after fence two, before the run is freed
)

// stepHook runs at each stepPhase of every step; tests crash there.
var stepHook = func(stepPhase) {}

// pickRun chooses a step's victim among the runs [i, j) of at most maxRun
// consecutive non-tail blocks whose fresh entries fit one block: the run
// that frees the most blocks — its length, less one if any entry survives —
// and, of those, the one with the fewest fresh bytes. ok is false when no
// run frees a block. Caller holds bgmu.
func (e *Engine) pickRun() (i, j int, ok bool) {
	blocks := e.ch.blocks
	payload := int64(e.ch.payload())
	bestFreed, bestFresh := 0, int64(0)
	for a := 0; a < len(blocks)-1; a++ {
		fresh := int64(0)
		for b := a; b < min(a+maxRun, len(blocks)-1); b++ {
			if fresh += e.blockFresh[blocks[b]]; fresh > payload {
				break
			}
			freed := b + 1 - a
			if fresh > 0 {
				freed--
			}
			if freed > bestFreed || freed == bestFreed && fresh < bestFresh {
				i, j, bestFreed, bestFresh = a, b+1, freed, fresh
			}
		}
	}
	return i, j, bestFreed > 0
}

// stepLocked is one reclamation step (§4.2) on the reclaimer core; callers
// hold e.bgmu. It scans the run pickRun chooses, copies the run's fresh
// entries — a log entry is fresh iff the index still points at it — into
// one new block, and splices that block in place of the run with two
// fences:
//
//  1. the new block, linked to the block after the run, is flushed and
//     fenced (fence one); nothing durable points at it yet;
//  2. the predecessor's next pointer — the root's head pointer for a run
//     at the chain head — is switched to it and persisted (fence two).
//
// The run's blocks are freed only then: until fence two retires, a crash
// recovers through the old run, which must stay intact. Chain order, and so
// chronological order, is preserved, so recovery is the same with or
// without the step. When no run frees a block, the step sets the retry
// mark one block payload above the stale estimate and does nothing else.
func (e *Engine) stepLocked() (bool, error) {
	ch, bg := e.ch, e.bg
	i, j, ok := e.pickRun()
	if !ok {
		e.retryAt = e.staleBytes + int64(ch.payload())
		return false, nil
	}
	e.retryAt = 0
	stepStart := bg.Now()
	run := slices.Clone(ch.blocks[i:j])
	// Gather the run's fresh entries in chain order, each with its source
	// record's timestamp.
	var fresh []logEntry
	var srcTS []uint64
	var runBytes int64
	var staleEnts uint64
	for _, b := range run {
		ch.scanBlock(bg, b, func(loc recLoc, rec []byte) bool {
			runBytes += int64(slotBytes(len(rec)))
			ts, ents := decodeEntries(rec)
			for _, en := range ents {
				if ie, ok := e.index[en.Addr]; ok && ie.rec == loc && ie.valOff == en.ValOff {
					fresh = append(fresh, logEntry{addr: en.Addr, val: en.Val})
					srcTS = append(srcTS, ts)
				} else {
					staleEnts++
				}
			}
			return true
		})
	}
	next := ch.blocks[j]
	newHead := next
	var nb *chain
	dst := make([]recLoc, len(fresh))
	var copied int64
	if len(fresh) > 0 {
		var err error
		if nb, err = newChain(bg, e.env.LogHeap, e.env.TS, e.opt.BlockSize); err != nil {
			return false, err
		}
		// Pack entries into records, never across a timestamp boundary.
		// §4.2 stamps a compact record with its newest member's timestamp,
		// which is exact here because every member shares one timestamp:
		// multi-thread recovery (§4.1) merges records ACROSS chains ordered
		// by the record stamp, so letting an old entry ride in a record
		// stamped with a newer member's timestamp would replay it over
		// another thread's genuinely newer write to the same address.
		// Entries of one source record share its timestamp, so grouping
		// costs one record header per surviving source record.
		newTS := func(k int) bool { return srcTS[k] != srcTS[k-1] }
		for k := 0; k < len(fresh); {
			end := nb.nextRun(fresh, k, newTS)
			if end == k {
				return false, fmt.Errorf("spec: entry larger than log block payload")
			}
			loc, n, err := nb.appendEntries(srcTS[k], fresh[k:end])
			if err != nil {
				return false, err
			}
			for m := k; m < end; m++ {
				dst[m] = loc
			}
			copied += int64(n)
			k = end
		}
		// blockFresh bounds what the run's survivors take, and pickRun kept
		// that within one payload.
		if len(nb.blocks) != 1 {
			return false, fmt.Errorf("spec: reclamation step copied %dB of fresh entries past one block", copied)
		}
		newHead = nb.head()
		nb.sealTail()
		bg.StoreUint64(newHead, uint64(next))
		nb.track(span{newHead, 8})
		nb.flushPending(pmem.KindGC)
	}
	stepHook(phaseCopied)
	bg.Fence() // fence one: the new block and its link are durable
	stepHook(phaseFenced)
	link := e.env.Root + offHead
	if i > 0 {
		link = ch.blocks[i-1]
	}
	bg.StoreUint64(link, uint64(newHead))
	bg.PersistBarrier(link, 8, pmem.KindGC) // fence two
	stepHook(phaseLinked)
	// The run is unreachable: free it, and hand its fresh entries' index
	// entries over to their copies (keeping each entry's own timestamp: a
	// recovery coverage record may be stamped newer than its members).
	ch.freeBlocks(run)
	if nb != nil {
		ch.blocks = slices.Replace(ch.blocks, i, j, newHead)
		ch.incarn[newHead] = nb.incarn[newHead]
	} else {
		ch.blocks = slices.Delete(ch.blocks, i, j)
	}
	for k, f := range fresh {
		cur := e.index[f.addr]
		e.setIndex(f.addr, indexEnt{ts: cur.ts, rec: dst[k], valOff: f.valOff, size: len(f.val)})
	}
	for _, b := range run {
		delete(ch.incarn, b)
		e.staleBytes -= e.blockStale[b]
		delete(e.blockStale, b)
		delete(e.blockFresh, b)
	}
	delta := runBytes - copied
	e.liveBytes -= delta
	st := e.env.Core.Stats
	st.ReclaimCycles++
	st.LogReclaimed += staleEnts
	st.AddLiveLog(-delta)
	bg.TraceReclaim(stepStart, staleEnts, delta)
	e.env.Core.TraceLiveLog()
	return true, nil
}

// LiveLogBytes reports the committed record bytes currently in the chain —
// the memory-space overhead the paper's §4.2/§5 discussion is about.
func (e *Engine) LiveLogBytes() int64 {
	e.bgmu.Lock()
	defer e.bgmu.Unlock()
	return e.liveBytes
}

// sortEntriesByTS is used by multi-thread recovery (pool.go).
func sortRecordsByTS(recs []replayRec) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ts < recs[j].ts })
}

type replayRec struct {
	ts   uint64
	ents []scanEntry
}
