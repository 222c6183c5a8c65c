package hwsim

import (
	"encoding/binary"
	"errors"
	"fmt"

	"specpmt/internal/pmem"
	"specpmt/internal/txn"
)

// SpecHPMT is hardware SpecPMT (§5): undo-speculative hybrid logging with
// epoch-based, foreground, thread-local log reclamation.
//
// Hot pages — those whose TLB entry's 3-bit store counter saturated — are
// speculatively logged: their lines update the L1 directly, a page-image log
// record is written at the cold-to-hot transition (hardware bulk copy), and
// the new values of their dirty lines are logged in one record at commit.
// Their DATA is never persisted on the commit path; it writes back on cache
// eviction or when the page's epoch is reclaimed, coalescing writes across
// transactions. Cold pages use undo logging with synchronous data
// persistence, as in EDE.
//
// The speculative log is divided into epochs; reclaiming the oldest epoch
// persists the still-dirty data of that epoch's pages, clears their TLB
// EpochBits (clearepoch), and advances the log head — a few instructions, no
// background thread, exactly two persist steps.
type SpecHPMT struct {
	env  txn.Env
	cpu  *CPU
	spec *Ring
	undo *Ring
	opt  HWOptions

	epochs   []epochInfo // closed, unreclaimed epochs, oldest first
	cur      epochInfo   // the open epoch
	nextEID  uint8
	open     bool
	needScan bool
	// coord, when set, applies the §5.2.2 non-blocking multi-thread
	// reclamation protocol; deferred reclamations retry at transaction
	// starts and commits.
	coord          *Coordinator
	deferredCycles int
	// specDisabled is the §5.1.2 control-status-register bit: while set,
	// every page is treated cold and the engine degenerates to pure undo
	// logging.
	specDisabled bool
}

type epochInfo struct {
	eid   uint8
	start uint64 // spec-ring stream offset where the epoch begins
	end   uint64 // valid for closed epochs
	bytes int
	pages int
	// startTS and endTS order epochs across threads for the multi-thread
	// reclamation protocol of §5.2.2 ("each thread maintain[s] a timestamp
	// of when the earliest unreclaimed epoch starts").
	startTS uint64
	endTS   uint64
	// inactive marks an epoch whose ID has been reassigned to a younger
	// epoch of the same thread (§5.2.2): its pages were switched cold at
	// reassignment, so it no longer blocks other threads' reclamations —
	// only its ring space remains to be freed.
	inactive bool
}

// HWOptions configures hardware SpecPMT.
type HWOptions struct {
	// EpochBytes closes an epoch once it holds this many record bytes
	// (default 2 MiB, §5.2.1). Figure 15 sweeps this bound.
	EpochBytes int
	// EpochPages closes an epoch once it speculatively logged this many
	// pages (default 200, §5.2.1).
	EpochPages int
	// MaxEpochs is the number of epoch pointers (default 8, Figure 10);
	// exceeding it reclaims the oldest epoch.
	MaxEpochs int
	// SpecRingCap is the speculative log capacity (default sized to hold
	// MaxEpochs+1 epochs of EpochBytes plus page-copy slack).
	SpecRingCap int
	// UndoRingCap is the cold undo log capacity (default 4 MiB).
	UndoRingCap int
	// DataPersist forces data flushes for hot lines at commit too — the
	// SpecHPMT-DP variant isolating the gain of asynchronous data
	// persistence.
	DataPersist bool
}

func (o *HWOptions) setDefaults() {
	if o.EpochBytes == 0 {
		o.EpochBytes = 2 << 20
	}
	if o.EpochPages == 0 {
		o.EpochPages = 200
	}
	if o.MaxEpochs == 0 {
		o.MaxEpochs = 8
	}
	if o.SpecRingCap == 0 {
		o.SpecRingCap = (o.MaxEpochs + 2) * (o.EpochBytes + o.EpochPages*(pmem.PageSize+64))
	}
	if o.UndoRingCap == 0 {
		o.UndoRingCap = 4 << 20
	}
}

const (
	hpmtMagic = 0x5350454348504d54 // "SPECHPMT"

	offHPMTMagic    = 0
	offHPMTSpecBase = 8
	offHPMTSpecCap  = 16
	offHPMTSpecHead = 24
	offHPMTUndoBase = 32
	offHPMTUndoCap  = 40
	offHPMTUndoHead = 48

	recKindPage   = 1
	recKindCommit = 2
)

func init() {
	txn.Register("SpecHPMT", func(env txn.Env) (txn.Engine, error) {
		return NewSpecHPMT(env, HWOptions{})
	})
	txn.Register("SpecHPMT-DP", func(env txn.Env) (txn.Engine, error) {
		return NewSpecHPMT(env, HWOptions{DataPersist: true})
	})
}

// NewSpecHPMT attaches to (or initialises) a hardware SpecPMT engine.
func NewSpecHPMT(env txn.Env, opt HWOptions) (*SpecHPMT, error) {
	opt.setDefaults()
	e := &SpecHPMT{env: env, cpu: NewCPU(env.Dev), opt: opt, nextEID: 1}
	c := e.cpu.Core
	boot := env.Core
	if boot.LoadUint64(env.Root+offHPMTMagic) == hpmtMagic {
		sb := pmem.Addr(boot.LoadUint64(env.Root + offHPMTSpecBase))
		sc := int(boot.LoadUint64(env.Root + offHPMTSpecCap))
		sh := boot.LoadUint64(env.Root + offHPMTSpecHead)
		ub := pmem.Addr(boot.LoadUint64(env.Root + offHPMTUndoBase))
		uc := int(boot.LoadUint64(env.Root + offHPMTUndoCap))
		uh := boot.LoadUint64(env.Root + offHPMTUndoHead)
		e.spec = NewRing(c, sb, sc, sh)
		e.undo = NewRing(c, ub, uc, uh)
		e.cur = epochInfo{eid: 1, start: sh, startTS: env.TS.Next()}
		e.nextEID = 2
		e.needScan = true
		e.installTLBHook()
		return e, nil
	}
	sb, err := env.LogHeap.Alloc(opt.SpecRingCap)
	if err != nil {
		return nil, fmt.Errorf("hwsim: SpecHPMT spec log: %w", err)
	}
	ub, err := env.LogHeap.Alloc(opt.UndoRingCap)
	if err != nil {
		return nil, fmt.Errorf("hwsim: SpecHPMT undo log: %w", err)
	}
	e.spec = NewRing(c, sb, opt.SpecRingCap, 0)
	e.undo = NewRing(c, ub, opt.UndoRingCap, 0)
	e.cur = epochInfo{eid: 1, start: 0, startTS: env.TS.Next()}
	e.nextEID = 2
	boot.StoreUint64(env.Root+offHPMTSpecBase, uint64(sb))
	boot.StoreUint64(env.Root+offHPMTSpecCap, uint64(opt.SpecRingCap))
	boot.StoreUint64(env.Root+offHPMTSpecHead, 0)
	boot.StoreUint64(env.Root+offHPMTUndoBase, uint64(ub))
	boot.StoreUint64(env.Root+offHPMTUndoCap, uint64(opt.UndoRingCap))
	boot.StoreUint64(env.Root+offHPMTUndoHead, 0)
	boot.StoreUint64(env.Root+offHPMTMagic, hpmtMagic)
	boot.PersistBarrier(env.Root, txn.RootSize, pmem.KindLog)
	e.installTLBHook()
	return e, nil
}

// installTLBHook closes the tracking-loss hazard: when a hot page's TLB
// entry is evicted, its metadata (and with it the ability to flush the page
// at epoch reclamation) disappears, so its dirty lines are persisted first.
func (e *SpecHPMT) installTLBHook() {
	e.cpu.TLB.OnEvict = func(victim *tlbEntry) {
		if !victim.EpochBit {
			return
		}
		e.flushPageData(victim.page)
		e.cpu.Core.Fence()
	}
}

// flushPageData writes back every dirty L1 line of the page.
func (e *SpecHPMT) flushPageData(page uint64) {
	firstLine := page * (pmem.PageSize / pmem.LineSize)
	for l := firstLine; l < firstLine+pmem.PageSize/pmem.LineSize; l++ {
		if ce := e.cpu.L1.Lookup(l); ce != nil && ce.dirty {
			e.cpu.Core.Flush(LineAddr(l), pmem.LineSize, pmem.KindData)
			ce.dirty = false
			ce.PBit = false
		}
	}
}

// Name implements txn.Engine.
func (e *SpecHPMT) Name() string {
	if e.opt.DataPersist {
		return "SpecHPMT-DP"
	}
	return "SpecHPMT"
}

// Close implements txn.Engine.
func (e *SpecHPMT) Close() error { return nil }

// LiveLogBytes reports the speculative log's live byte count — the memory
// consumption Figure 15 trades against performance.
func (e *SpecHPMT) LiveLogBytes() int { return e.spec.Live() }

// Begin implements txn.Engine.
func (e *SpecHPMT) Begin() txn.Tx {
	if e.open {
		panic("hwsim: one transaction per core")
	}
	if e.needScan {
		panic("hwsim: Recover must run before transactions on an attached engine")
	}
	e.open = true
	e.cpu.Core.Stats.TxBegun++
	e.cpu.Core.TraceTxBegin()
	e.retryDeferredReclaims()
	// In-transaction hot lines may overflow the cache freely: the write-back
	// persists an uncommitted value, but chronological replay of the
	// speculative log always reinstates the page's last committed content
	// (the page-image record created at the cold-to-hot transition precedes
	// any hot update of the transaction), so no eviction-time logging is
	// needed here — the commit record is built from the transaction's
	// hot-line set rather than an L1 scan.
	return &hpmtTx{
		e:        e,
		ws:       txn.NewWriteSet(),
		hotLines: map[uint64]bool{},
		logged:   map[uint64]bool{},
		old:      map[uint64][pmem.LineSize]byte{},
	}
}

type hpmtTx struct {
	e        *SpecHPMT
	ws       *txn.WriteSet
	hotLines map[uint64]bool // hot lines dirtied by this tx, pending commit logging
	logged   map[uint64]bool // cold lines undo-logged this tx
	old      map[uint64][pmem.LineSize]byte
	done     bool
	err      error
}

// Store implements txn.Tx (§5.1, Figure 7): cold lines are undo-logged
// before the in-place write; hot lines write the L1 directly and are
// speculatively logged at commit; a page whose counter saturates is bulk
// copied into the log and becomes hot.
func (t *hpmtTx) Store(addr pmem.Addr, data []byte) {
	if t.done {
		panic("hwsim: use of finished transaction")
	}
	if len(data) == 0 {
		return
	}
	e := t.e
	first, last := pmem.LineOf(addr), pmem.LineOf(addr+pmem.Addr(len(data)-1))
	for l := first; l <= last; l++ {
		if _, ok := t.old[l]; !ok {
			var img [pmem.LineSize]byte
			e.cpu.ReadLine(l, &img)
			t.old[l] = img
		}
		page := l / (pmem.PageSize / pmem.LineSize)
		te := e.cpu.TLB.Lookup(page)
		if !te.EpochBit && !e.specDisabled && e.coord != nil && e.coord.imaged(page) {
			// A speculative log — another thread's, or this thread's from
			// before its TLB lost track of the page — holds an image of
			// the page, which merged recovery replays. A cold store would
			// persist in place with no record ordered after that image and
			// be regressed by it, so the page goes hot here: a fresh image
			// (capturing every committed write so far) and commit records,
			// all stamped after the older image.
			if err := e.makeHot(page, te); err != nil {
				t.err = err
				return
			}
		}
		if te.EpochBit {
			t.hotLines[l] = true
			continue
		}
		// Cold: undo log the line once per transaction.
		if !t.logged[l] {
			img := t.old[l]
			payload := make([]byte, 8+pmem.LineSize)
			binary.LittleEndian.PutUint64(payload, l)
			copy(payload[8:], img[:])
			if _, err := e.undo.Append(payload); err != nil {
				t.err = err
				return
			}
			t.logged[l] = true
			e.cpu.Core.Stats.LogRecords++
			e.cpu.Core.TraceLogAppend(len(payload) + ringFrame)
		}
		e.undo.FlushPending(pmem.KindLog)
		e.cpu.Core.OrderPoint()
		// Saturating store counter drives the hotness transition — unless
		// speculation is disabled via the §5.1.2 control bit.
		if te.CntEID < hotThreshold {
			te.CntEID++
		}
		if te.CntEID >= hotThreshold && !e.specDisabled {
			if err := t.e.makeHot(page, te); err != nil {
				t.err = err
				return
			}
			t.hotLines[l] = true
		}
	}
	t.ws.Add(addr, len(data))
	ents := e.cpu.WriteData(addr, data)
	for _, ce := range ents {
		if t.hotLines[ce.tag] {
			ce.PBit = true
			ce.LogBit = true
		}
	}
}

// makeHot performs the cold-to-hot transition: bulk copy the page image into
// the speculative log (the paper uses a hardware bulk copy engine), then set
// the TLB metadata.
func (e *SpecHPMT) makeHot(page uint64, te *tlbEntry) error {
	payload := make([]byte, 24+pmem.PageSize)
	payload[0] = recKindPage
	payload[1] = e.cur.eid
	binary.LittleEndian.PutUint64(payload[8:], e.env.TS.Next())
	binary.LittleEndian.PutUint64(payload[16:], page)
	e.cpu.Core.LoadRaw(pmem.Addr(page*pmem.PageSize), payload[24:])
	if err := e.specAppend(payload); err != nil {
		return err
	}
	e.spec.FlushPending(pmem.KindLog)
	e.cpu.Core.OrderPoint()
	e.cpu.Core.Compute(200) // bulk copy engine issue latency
	te.EpochBit = true
	te.CntEID = e.cur.eid
	if e.coord != nil {
		e.coord.noteImage(page, 1)
	}
	e.cur.pages++
	e.cpu.Core.Stats.PageCopies++
	return nil
}

// specAppend appends to the speculative log, reclaiming epochs on pressure.
func (e *SpecHPMT) specAppend(payload []byte) error {
	for {
		off, err := e.spec.Append(payload)
		if err == nil {
			e.cur.bytes += len(payload) + ringFrame
			e.cpu.Core.Stats.AddLiveLog(int64(len(payload) + ringFrame))
			e.cpu.Core.TraceLogAppend(len(payload) + ringFrame)
			_ = off
			return nil
		}
		if len(e.epochs) == 0 {
			return err
		}
		if !e.reclaimOldestEpoch() {
			return fmt.Errorf("hwsim: %w (reclamation deferred by the multi-thread protocol)", err)
		}
	}
}

// specLogLines appends one commit record covering the given hot lines with
// their current (new) values.
func (t *hpmtTx) specLogLines(lines []uint64) {
	if len(lines) == 0 {
		return
	}
	e := t.e
	payload := make([]byte, 16+len(lines)*(8+pmem.LineSize))
	payload[0] = recKindCommit
	payload[1] = e.cur.eid
	binary.LittleEndian.PutUint32(payload[2:], uint32(len(lines)))
	binary.LittleEndian.PutUint64(payload[8:], e.env.TS.Next())
	p := 16
	for _, l := range lines {
		binary.LittleEndian.PutUint64(payload[p:], l)
		var img [pmem.LineSize]byte
		e.cpu.ReadLine(l, &img)
		copy(payload[p+8:], img[:])
		p += 8 + pmem.LineSize
	}
	if err := e.specAppend(payload); err != nil {
		t.err = err
		return
	}
	e.cpu.Core.Stats.LogRecords++
}

// Load implements txn.Tx.
func (t *hpmtTx) Load(addr pmem.Addr, buf []byte) { t.e.cpu.ReadData(addr, buf) }

// LoadUint64 implements txn.Tx.
func (t *hpmtTx) LoadUint64(addr pmem.Addr) uint64 {
	var b [8]byte
	t.Load(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// StoreUint64 implements txn.Tx.
func (t *hpmtTx) StoreUint64(addr pmem.Addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	t.Store(addr, b[:])
}

// Compute implements txn.Tx.
func (t *hpmtTx) Compute(ns int64) { t.e.cpu.Core.Compute(ns) }

// Commit implements txn.Tx (§5.2: "when a transaction commits, the hardware
// scans the L1 cache to find dirty cache lines updated by the transaction.
// It creates and persists log records for the speculatively logged pages and
// cache lines. It skips the persistence of those updated cache lines. It
// persists the undo logged cache lines.").
func (t *hpmtTx) Commit() error {
	if t.done {
		return errors.New("hwsim: transaction already finished")
	}
	t.done = true
	e := t.e
	e.open = false
	c := e.cpu.Core
	if t.err != nil {
		t.rollback()
		c.TraceTxAbort()
		return t.err
	}
	commitStart := c.Now()
	var hot []uint64
	for l := range t.hotLines {
		hot = append(hot, l)
	}
	sortLines(hot)
	t.specLogLines(hot)
	if t.err != nil {
		t.rollback()
		c.TraceTxAbort()
		return t.err
	}
	e.spec.FlushPending(pmem.KindLog)
	e.undo.FlushPending(pmem.KindLog)
	// Persist cold (undo-logged) data; skip hot data unless DP.
	for _, l := range t.ws.Lines() {
		isHot := t.hotLines[l]
		if isHot && !e.opt.DataPersist {
			continue
		}
		c.Flush(pmem.Addr(l*pmem.LineSize), pmem.LineSize, pmem.KindData)
		if ce := e.cpu.L1.Lookup(l); ce != nil {
			ce.dirty = false
		}
	}
	c.Fence() // the single commit fence
	t.retireUndo()
	// Hot lines stay dirty with PBit set (they persist on eviction or epoch
	// reclamation); LogBit clears at commit (§5.1).
	for l := range t.hotLines {
		if ce := e.cpu.L1.Lookup(l); ce != nil {
			ce.LogBit = false
		}
	}
	c.Stats.TxCommitted++
	c.TraceTxCommit(commitStart, t.ws.Len(), 0)
	e.maybeCloseEpoch()
	return nil
}

func (t *hpmtTx) retireUndo() {
	e := t.e
	c := e.cpu.Core
	e.undo.AdvanceHead(e.undo.Tail())
	c.StoreUint64(e.env.Root+offHPMTUndoHead, e.undo.Head())
	c.PersistBarrier(e.env.Root+offHPMTUndoHead, 8, pmem.KindLog)
}

// Abort implements txn.Tx: restore the pre-transaction line images.
func (t *hpmtTx) Abort() error {
	if t.done {
		return errors.New("hwsim: transaction already finished")
	}
	t.done = true
	t.e.open = false
	t.rollback()
	t.e.cpu.Core.Stats.TxAborted++
	t.e.cpu.Core.TraceTxAbort()
	return nil
}

func (t *hpmtTx) rollback() {
	e := t.e
	for l, img := range t.old {
		e.cpu.WriteData(LineAddr(l), img[:])
		if ce := e.cpu.L1.Lookup(l); ce != nil {
			ce.LogBit = false
		}
	}
	// A hot line's pre-transaction value is covered by its page record or
	// an earlier commit record, so only restore architectural state; cold
	// lines' rollback persists like EDE's.
	for l := range t.logged {
		e.cpu.Core.Flush(LineAddr(l), pmem.LineSize, pmem.KindData)
	}
	e.cpu.Core.Fence()
	t.retireUndo()
}

// maybeCloseEpoch starts a new epoch when the open one exceeds its bounds
// and reclaims the oldest once MaxEpochs are outstanding (§5.2.1).
func (e *SpecHPMT) maybeCloseEpoch() {
	e.retryDeferredReclaims()
	if e.cur.bytes < e.opt.EpochBytes && e.cur.pages < e.opt.EpochPages {
		return
	}
	closed := e.cur
	closed.end = e.spec.Tail()
	closed.endTS = e.env.TS.Next()
	e.epochs = append(e.epochs, closed)
	// EID 0 is reserved for cold pages (§5.2.1); the remaining IDs cycle.
	// Reassigning an ID still held by an unreclaimed epoch first switches
	// that epoch's pages cold (clearepoch) and marks it inactive — the
	// §5.2.2 activeness rule: "let an epoch be inactive if its epoch ID has
	// been reassigned to a younger epoch of the same thread". Its records
	// stay in the ring (recovery still replays them) until reclamation
	// frees the space.
	eid := e.nextEID
	if eid == 0 || int(eid) > e.opt.MaxEpochs+1 {
		eid = 1
	}
	for i := range e.epochs {
		if e.epochs[i].eid == eid && !e.epochs[i].inactive {
			e.cpu.TLB.ClearEpoch(eid)
			e.cpu.Core.Compute(10)
			e.epochs[i].inactive = true
		}
	}
	e.nextEID = eid + 1
	e.cur = epochInfo{eid: eid, start: closed.end, startTS: e.env.TS.Next()}
	if len(e.epochs) >= e.opt.MaxEpochs {
		e.reclaimOldestEpoch()
	}
}

// retryDeferredReclaims drains reclamations that the multi-thread protocol
// deferred ("the software defers the check and log reclamation to further
// transaction starts or commits", §5.2.2).
func (e *SpecHPMT) retryDeferredReclaims() {
	for e.deferredCycles > 0 {
		if !e.reclaimOldestEpoch() {
			return
		}
		e.deferredCycles--
	}
}

// reclaimOldestEpoch is the three-step foreground reclamation of §5.2.1:
// persist the epoch's speculatively logged data, clearepoch its TLB
// entries, and free its log records.
func (e *SpecHPMT) reclaimOldestEpoch() bool {
	if len(e.epochs) == 0 {
		return true
	}
	ep := e.epochs[0]
	// Multi-thread protocol (§5.2.2): reclaim e only if every active epoch
	// — any thread's unreclaimed epoch, including open ones — started after
	// e ended. Otherwise another thread may still hold a page image that
	// predates records in e, and replaying it after e's records are gone
	// would regress committed data (Figure 11).
	if e.coord != nil && !e.coord.canReclaim(e, ep.endTS) {
		e.deferredCycles++
		return false
	}
	e.epochs = e.epochs[1:]
	c := e.cpu.Core
	reclaimStart := c.Now()
	// Step 1: persist the speculatively logged data of the epoch, found by
	// scanning its log records ("scanning the log record and selectively
	// flushing data addresses indicated in the log records via clwb",
	// §5.2.1) — the TLB may no longer track the pages if the epoch went
	// inactive through ID reassignment.
	flushed := map[uint64]bool{}
	off := ep.start
	for off < ep.end {
		payload, next, ok := e.spec.ScanRecord(c, off)
		if !ok {
			break
		}
		e.flushRecordData(payload, flushed)
		if e.coord != nil && len(payload) == 24+pmem.PageSize && payload[0] == recKindPage {
			e.coord.noteImage(binary.LittleEndian.Uint64(payload[16:]), -1)
		}
		off = next
	}
	c.Fence()
	// Step 2: clearepoch EID — a single instruction switches the pages cold
	// (a no-op if reassignment already cleared them).
	e.cpu.TLB.ClearEpoch(ep.eid)
	c.Compute(10)
	// Step 3: reclaim the records.
	freed := int64(ep.end - e.spec.Head())
	e.spec.AdvanceHead(ep.end)
	c.StoreUint64(e.env.Root+offHPMTSpecHead, e.spec.Head())
	c.PersistBarrier(e.env.Root+offHPMTSpecHead, 8, pmem.KindLog)
	c.Stats.EpochsReclaimed++
	c.Stats.ReclaimCycles++
	c.Stats.AddLiveLog(-freed)
	c.TraceReclaim(reclaimStart, uint64(len(flushed)), freed)
	c.TraceLiveLog()
	return true
}

// flushRecordData writes back the still-dirty lines named by one
// speculative log record (page image or commit record).
func (e *SpecHPMT) flushRecordData(payload []byte, flushed map[uint64]bool) {
	if len(payload) < 16 {
		return
	}
	flushLine := func(l uint64) {
		if flushed[l] {
			return
		}
		flushed[l] = true
		if ce := e.cpu.L1.Lookup(l); ce != nil && ce.dirty {
			e.cpu.Core.Flush(LineAddr(l), pmem.LineSize, pmem.KindData)
			ce.dirty = false
			ce.PBit = false
		} else if e.cpu.Core.Device().IsDirty(LineAddr(l)) {
			e.cpu.Core.Flush(LineAddr(l), pmem.LineSize, pmem.KindData)
		}
	}
	switch payload[0] {
	case recKindPage:
		if len(payload) != 24+pmem.PageSize {
			return
		}
		page := binary.LittleEndian.Uint64(payload[16:])
		first := page * (pmem.PageSize / pmem.LineSize)
		for l := first; l < first+pmem.PageSize/pmem.LineSize; l++ {
			flushLine(l)
		}
	case recKindCommit:
		n := int(binary.LittleEndian.Uint32(payload[2:]))
		if len(payload) != 16+n*(8+pmem.LineSize) {
			return
		}
		p := 16
		for i := 0; i < n; i++ {
			flushLine(binary.LittleEndian.Uint64(payload[p:]))
			p += 8 + pmem.LineSize
		}
	}
}

// Recover implements txn.Engine with the three-step protocol of §5.1.1:
// replay the speculative log in chronological order (committed records redo,
// the trailing uncommitted page images roll hot pages back), then apply the
// undo log in reverse, then persist everything touched and retire both logs.
func (e *SpecHPMT) Recover() error {
	c := e.cpu.Core
	recoverStart := c.Now()
	defer func() { c.TraceRecoverSpan(recoverStart) }()
	touched := txn.NewWriteSet()
	specTail := e.spec.Scan(c, func(off uint64, payload []byte) bool {
		if len(payload) < 16 {
			return false
		}
		switch payload[0] {
		case recKindPage:
			if len(payload) != 24+pmem.PageSize {
				return false
			}
			page := binary.LittleEndian.Uint64(payload[16:])
			c.StoreRaw(pmem.Addr(page*pmem.PageSize), payload[24:])
			touched.Add(pmem.Addr(page*pmem.PageSize), pmem.PageSize)
		case recKindCommit:
			n := int(binary.LittleEndian.Uint32(payload[2:]))
			if len(payload) != 16+n*(8+pmem.LineSize) {
				return false
			}
			p := 16
			for i := 0; i < n; i++ {
				line := binary.LittleEndian.Uint64(payload[p:])
				c.StoreRaw(LineAddr(line), payload[p+8:p+8+pmem.LineSize])
				touched.Add(LineAddr(line), pmem.LineSize)
				p += 8 + pmem.LineSize
			}
		default:
			return false
		}
		return true
	})
	// Undo records of the interrupted transaction, in reverse.
	type urec struct {
		line uint64
		old  []byte
	}
	var undos []urec
	undoTail := e.undo.Scan(c, func(off uint64, payload []byte) bool {
		if len(payload) != 8+pmem.LineSize {
			return false
		}
		undos = append(undos, urec{binary.LittleEndian.Uint64(payload), payload[8:]})
		return true
	})
	for i := len(undos) - 1; i >= 0; i-- {
		c.StoreRaw(LineAddr(undos[i].line), undos[i].old)
		touched.Add(LineAddr(undos[i].line), pmem.LineSize)
	}
	for _, l := range touched.Lines() {
		c.Flush(pmem.Addr(l*pmem.LineSize), pmem.LineSize, pmem.KindData)
	}
	c.Fence()
	// With the data durable, both logs retire entirely.
	e.spec.ResumeAt(specTail)
	e.spec.AdvanceHead(specTail)
	c.StoreUint64(e.env.Root+offHPMTSpecHead, specTail)
	e.undo.ResumeAt(undoTail)
	e.undo.AdvanceHead(undoTail)
	c.StoreUint64(e.env.Root+offHPMTUndoHead, undoTail)
	c.Flush(e.env.Root+offHPMTSpecHead, 8, pmem.KindLog)
	c.Flush(e.env.Root+offHPMTUndoHead, 8, pmem.KindLog)
	c.Fence()
	e.epochs = nil
	e.cur = epochInfo{eid: 1, start: specTail, startTS: e.env.TS.Next()}
	e.nextEID = 2
	e.needScan = false
	return nil
}

// sortLines sorts a line slice ascending (insertion sort; commit sets are
// small).
func sortLines(ls []uint64) {
	for i := 1; i < len(ls); i++ {
		for j := i; j > 0 && ls[j] < ls[j-1]; j-- {
			ls[j], ls[j-1] = ls[j-1], ls[j]
		}
	}
}
