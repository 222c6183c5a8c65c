package spec

import (
	"errors"
	"fmt"

	"specpmt/internal/pmem"
	"specpmt/internal/txn"
)

// HashEngine is the memory-space-efficient alternative the paper considers
// and rejects in §4: "set a limit of only one log record for each datum...
// a hash table indexed by each datum's address... Such a design conserves
// memory space but sacrifices spatial locality... with the hash table
// approach incurring 3.2× slowdown over the sequential log design."
//
// Each datum owns one fixed-size slot in a persistent hash table; every
// commit rewrites and flushes the touched slots — random persistent memory
// writes instead of the sequential appends of the chained-block design. The
// engine exists to reproduce that ablation; it trades the sequential
// design's total-order recovery story for bounded memory, and its recovery
// has a documented window (slots overwritten by a commit whose marker never
// persisted cannot roll back further than the previous slot value).
type HashEngine struct {
	env   txn.Env
	opt   HashOptions
	table pmem.Addr
	slots int
	// slotOf caches each address's slot index (volatile; rebuilt on scan).
	slotOf map[pmem.Addr]int
	used   map[int]pmem.Addr
	open   bool

	// cur is the reusable transaction object (one open tx per engine) and
	// slotBuf the slot staging buffer, recycled across commits.
	cur     hashTx
	slotBuf []byte
}

// HashOptions configures HashEngine.
type HashOptions struct {
	// Slots is the hash table capacity (default 65536).
	Slots int
}

const (
	hashMagic = 0x5350454348415348 // "SPECHASH"

	offHashTable = 8
	offHashSlots = 16
	offCommitTS  = 24

	slotSize   = 128
	slotHeader = 8 + 4 + 4 + 8 // addr, size, pad, ts
	slotValCap = slotSize - slotHeader - 8
)

// ErrValueTooLarge reports a value exceeding the fixed slot capacity.
var ErrValueTooLarge = errors.New("spec: value exceeds hash-log slot capacity")

// ErrTableFull reports hash table exhaustion.
var ErrTableFull = errors.New("spec: hash-log table full")

func init() {
	txn.Register("SpecSPMT-Hash", func(env txn.Env) (txn.Engine, error) {
		return NewHash(env, HashOptions{})
	})
}

// NewHash attaches to (or initialises) a hash-log engine at env.Root.
func NewHash(env txn.Env, opt HashOptions) (*HashEngine, error) {
	if opt.Slots == 0 {
		opt.Slots = 1 << 16
	}
	e := &HashEngine{env: env, opt: opt, slotOf: map[pmem.Addr]int{}, used: map[int]pmem.Addr{}}
	c := env.Core
	if c.LoadUint64(env.Root+offMagic) == hashMagic {
		e.table = pmem.Addr(c.LoadUint64(env.Root + offHashTable))
		e.slots = int(c.LoadUint64(env.Root + offHashSlots))
		return e, nil
	}
	tbl, err := env.LogHeap.Alloc(opt.Slots * slotSize)
	if err != nil {
		return nil, fmt.Errorf("spec: allocating hash-log table: %w", err)
	}
	e.table = tbl
	e.slots = opt.Slots
	c.StoreUint64(env.Root+offHashTable, uint64(tbl))
	c.StoreUint64(env.Root+offHashSlots, uint64(opt.Slots))
	c.StoreUint64(env.Root+offCommitTS, 0)
	c.StoreUint64(env.Root+offMagic, hashMagic)
	c.PersistBarrier(env.Root, txn.RootSize, pmem.KindLog)
	return e, nil
}

// Name implements txn.Engine.
func (e *HashEngine) Name() string { return "SpecSPMT-Hash" }

// Close implements txn.Engine.
func (e *HashEngine) Close() error { return nil }

// Begin implements txn.Engine.
func (e *HashEngine) Begin() txn.Tx {
	if e.open {
		panic("spec: hash engine supports one open transaction per core")
	}
	e.open = true
	e.env.Core.Stats.TxBegun++
	e.env.Core.TraceTxBegin()
	t := &e.cur
	if t.e == nil {
		t.e = e
		t.byAddr = map[pmem.Addr]int{}
		t.old = map[pmem.Addr][]byte{}
	}
	t.reset()
	return t
}

type hashTx struct {
	e      *HashEngine
	ents   []logEntry
	byAddr map[pmem.Addr]int
	old    map[pmem.Addr][]byte
	done   bool
	err    error
	arena  txn.Arena
}

// reset readies the reusable tx, keeping maps, slices, and arena capacity;
// like tx.reset it deletes only the last transaction's keys.
func (t *hashTx) reset() {
	for _, en := range t.ents {
		delete(t.byAddr, en.addr)
		delete(t.old, en.addr)
	}
	t.ents = t.ents[:0]
	t.done = false
	t.err = nil
	t.arena.Reset()
}

// Load implements txn.Tx.
func (t *hashTx) Load(addr pmem.Addr, buf []byte) { t.e.env.Core.Load(addr, buf) }

// LoadUint64 implements txn.Tx.
func (t *hashTx) LoadUint64(addr pmem.Addr) uint64 { return t.e.env.Core.LoadUint64(addr) }

// Compute implements txn.Tx.
func (t *hashTx) Compute(ns int64) { t.e.env.Core.Compute(ns) }

// StoreUint64 implements txn.Tx.
func (t *hashTx) StoreUint64(addr pmem.Addr, v uint64) {
	var b [8]byte
	putU64(b[:], 0, v)
	t.Store(addr, b[:])
}

// Store implements txn.Tx.
func (t *hashTx) Store(addr pmem.Addr, data []byte) {
	if t.done {
		panic("spec: use of finished transaction")
	}
	if len(data) > slotValCap {
		t.err = ErrValueTooLarge
		return
	}
	c := t.e.env.Core
	if _, seen := t.old[addr]; !seen {
		prev := t.arena.Grab(len(data))
		c.Load(addr, prev)
		t.old[addr] = prev
	}
	c.Store(addr, data)
	if i, ok := t.byAddr[addr]; ok && len(t.ents[i].val) == len(data) {
		copy(t.ents[i].val, data)
		return
	}
	t.byAddr[addr] = len(t.ents)
	val := t.arena.Grab(len(data))
	copy(val, data)
	t.ents = append(t.ents, logEntry{addr: addr, val: val})
}

func (e *HashEngine) slotIndex(addr pmem.Addr) (int, error) {
	if i, ok := e.slotOf[addr]; ok {
		return i, nil
	}
	h := int((uint64(addr) * 0x9e3779b97f4a7c15) % uint64(e.slots))
	for probe := 0; probe < e.slots; probe++ {
		i := (h + probe) % e.slots
		if owner, taken := e.used[i]; !taken || owner == addr {
			e.used[i] = addr
			e.slotOf[addr] = i
			return i, nil
		}
	}
	return 0, ErrTableFull
}

func (e *HashEngine) slotAddr(i int) pmem.Addr { return e.table + pmem.Addr(i*slotSize) }

// Commit writes one slot per updated datum — a scattered, random-address
// persistent write pattern — flushes them, fences, then persists the commit
// timestamp with a second barrier.
func (t *hashTx) Commit() error {
	if t.done {
		return errors.New("spec: transaction already finished")
	}
	t.done = true
	e := t.e
	e.open = false
	c := e.env.Core
	if t.err != nil {
		t.restoreOld()
		c.Stats.TxAborted++
		c.TraceTxAbort()
		return t.err
	}
	commitStart := c.Now()
	if len(t.ents) == 0 {
		c.Stats.TxCommitted++
		c.TraceTxCommit(commitStart, 0, 0)
		return nil
	}
	ts := e.env.TS.Next()
	logBytes := 0
	for _, en := range t.ents {
		i, err := e.slotIndex(en.addr)
		if err != nil {
			t.restoreOld()
			c.Stats.TxAborted++
			c.TraceTxAbort()
			return err
		}
		n := slotHeader + len(en.val) + 8
		if cap(e.slotBuf) < n {
			e.slotBuf = make([]byte, n)
		}
		slot := e.slotBuf[:n]
		putU64(slot, 0, uint64(en.addr))
		putU32(slot, 8, uint32(len(en.val)))
		putU64(slot, 16, ts)
		copy(slot[slotHeader:], en.val)
		putU64(slot, slotHeader+len(en.val), txn.Checksum64(slot[:slotHeader+len(en.val)]))
		at := e.slotAddr(i)
		c.Store(at, slot)
		c.Flush(at, len(slot), pmem.KindLog)
		c.Stats.LogRecords++
		c.TraceLogAppend(len(slot))
		logBytes += len(slot)
	}
	c.Fence()
	c.StoreUint64(e.env.Root+offCommitTS, ts)
	c.PersistBarrier(e.env.Root+offCommitTS, 8, pmem.KindLog)
	c.Stats.TxCommitted++
	c.TraceTxCommit(commitStart, len(t.ents), logBytes)
	return nil
}

// Abort implements txn.Tx.
func (t *hashTx) Abort() error {
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
func (t *hashTx) restoreOld() {
	c := t.e.env.Core
	for i := len(t.ents) - 1; i >= 0; i-- {
		a := t.ents[i].addr
		c.Store(a, t.old[a])
	}
}

// Recover replays every slot whose checksum is valid and whose timestamp is
// within the durable commit horizon.
func (e *HashEngine) Recover() error {
	c := e.env.Core
	recoverStart := c.Now()
	defer func() { c.TraceRecoverSpan(recoverStart) }()
	horizon := c.LoadUint64(e.env.Root + offCommitTS)
	e.slotOf = map[pmem.Addr]int{}
	e.used = map[int]pmem.Addr{}
	touched := txn.NewWriteSet()
	for i := 0; i < e.slots; i++ {
		at := e.slotAddr(i)
		var hdr [slotHeader]byte
		c.Load(at, hdr[:])
		size := int(getU32(hdr[:], 8))
		ts := getU64(hdr[:], 16)
		if size == 0 || size > slotValCap {
			continue
		}
		slot := make([]byte, slotHeader+size+8)
		c.Load(at, slot)
		if txn.Checksum64(slot[:slotHeader+size]) != getU64(slot, slotHeader+size) {
			continue
		}
		if ts > horizon {
			continue // written by a commit that never became durable
		}
		addr := pmem.Addr(getU64(slot, 0))
		c.Store(addr, slot[slotHeader:slotHeader+size])
		touched.Add(addr, size)
		e.used[i] = addr
		e.slotOf[addr] = i
	}
	for _, l := range touched.Lines() {
		c.Flush(pmem.Addr(l*pmem.LineSize), pmem.LineSize, pmem.KindData)
	}
	c.Fence()
	return nil
}
