package spec

import (
	"encoding/binary"
	"fmt"

	"specpmt/internal/pmalloc"
	"specpmt/internal/pmem"
	"specpmt/internal/txn"
)

// The speculative log area is a chain of fixed-size log blocks (§4.1,
// Figure 6): each thread-private area is a sequence of blocks connected by
// forward block pointers, holding log records in chronological order. New
// records are only appended; a reclamation step splices one compacted block
// in place of a short run of blocks and frees the run.
//
// Block layout:
//
//	[ next block address : 8 bytes  ]
//	[ incarnation        : 8 bytes  ]
//	[ reserved           : 16 bytes ]
//	[ payload: records ...          ]
//
// The payload is cut into 32-byte slots, and every record starts on one.
// Log blocks are line-aligned and the header is one slot long, so a slot is
// also 32-byte aligned on the device: a record of at most 32 bytes never
// straddles a cache line, and two of them share one. A record is followed
// by the next at the first slot past its end; the gap bytes in between are
// never written and never read. When a record does not fit in the
// remaining payload, a pad marker at the next slot closes the block and the
// record starts in a freshly linked block.
//
// A record takes one of two forms, told apart by bit 31 of its first word:
//
//	compact: [ 1<<31 | addr>>32 u32 | addr u32 | timestamp u64 | value u64 | checksum u64 ]
//	sized:   [ size u32 | nentries u32 | timestamp u64 | entries... | checksum u64 ]
//	         entry: [ addr u64 | size u32 | value bytes ]
//
// The 32-byte compact form holds exactly one 8-byte value at an address
// below 2^62: a lone 8-byte store, the commonest transaction. Everything
// else is sized; its size is bounded by the block payload, so bit 31 of its
// first word is clear. The pad marker 0xFFFFFFFF is neither, because a
// compact record's second-highest bit is clear. Both forms keep the
// timestamp at offset 8.
//
// The checksum doubles as the commit marker (§4.1): a record is committed
// iff its stored checksum matches its contents. It is salted with the
// containing block's incarnation and the record's offset, so residual bytes
// of recycled blocks can never masquerade as live records.
//
// This file is the only code that knows the record layout: every writer
// goes through encodeRecord (via chain.appendEntries) and every reader
// through scanAll and decodeEntries.
const (
	blockHeader = 32
	recSlot     = 32
	recHeader   = 4 + 4 + 8 // size, nentries, timestamp
	recFooter   = 8         // salted checksum
	entHeader   = 8 + 4     // addr, size
	padMarker   = 0xFFFFFFFF

	compactLen   = 32
	compactVal   = 16 // value offset inside a compact record
	compactFlag  = 1 << 31
	compactLimit = 1 << 62 // addresses at or above it need the sized form
)

// errRecordTooLarge reports a transaction whose record exceeds one block.
var errRecordTooLarge = fmt.Errorf("spec: transaction record exceeds log block payload")

// errMalformedRecord reports record bytes whose first word does not announce
// their own length — e.g. a sized record whose size word has bit 31 set.
var errMalformedRecord = fmt.Errorf("spec: malformed log record")

// recLoc identifies a record (or an entry inside one) by block address and
// byte offset within the block payload — stable across chain splices.
type recLoc struct {
	block pmem.Addr
	off   int
}

// chain is a thread-private log block chain.
type chain struct {
	core  *pmem.Core
	heap  *pmalloc.Heap
	ts    *txn.Timestamp
	bsize int

	blocks []pmem.Addr
	used   int // payload offset of the final block's next free slot
	incarn map[pmem.Addr]uint64
	// unflushed tracks device ranges written since the last flushPending —
	// record bytes, pad markers, block headers, and next pointers — so the
	// single commit fence persists everything a record's validity needs.
	unflushed []span
	// buf stages the record appendEntries encodes; appendRecord copies it
	// into the device, so the next record may overwrite it.
	buf []byte
}

type span struct {
	addr pmem.Addr
	n    int
}

func (c *chain) payload() int { return c.bsize - blockHeader }

// maxValue is the largest value a one-entry record in this chain can carry.
func (c *chain) maxValue() int { return c.payload() - recHeader - entHeader - recFooter }

// newChain allocates the first block of a fresh chain.
func newChain(core *pmem.Core, heap *pmalloc.Heap, ts *txn.Timestamp, bsize int) (*chain, error) {
	c := &chain{core: core, heap: heap, ts: ts, bsize: bsize, incarn: map[pmem.Addr]uint64{}}
	if _, err := c.appendBlock(); err != nil {
		return nil, err
	}
	return c, nil
}

// openChain rebuilds the volatile state of an existing chain by walking the
// persistent next pointers from head. The used-offset of the final block is
// unknown until a scan; callers that intend to append must scan first (the
// engine's Recover does).
func openChain(core *pmem.Core, heap *pmalloc.Heap, ts *txn.Timestamp, bsize int, head pmem.Addr) *chain {
	c := &chain{core: core, heap: heap, ts: ts, bsize: bsize, incarn: map[pmem.Addr]uint64{}}
	for b := head; b != 0; {
		c.blocks = append(c.blocks, b)
		c.incarn[b] = core.LoadUint64(b + 8)
		b = pmem.Addr(core.LoadUint64(b))
	}
	return c
}

// head returns the first block of the chain.
func (c *chain) head() pmem.Addr { return c.blocks[0] }

// appendBlock allocates, initialises, and links a new tail block.
func (c *chain) appendBlock() (pmem.Addr, error) {
	b, err := c.heap.Alloc(c.bsize)
	if err != nil {
		return 0, fmt.Errorf("spec: allocating log block: %w", err)
	}
	inc := c.ts.Next()
	c.core.StoreUint64(b, 0)
	c.core.StoreUint64(b+8, inc)
	c.incarn[b] = inc
	c.track(span{b, blockHeader})
	if n := len(c.blocks); n > 0 {
		prev := c.blocks[n-1]
		c.core.StoreUint64(prev, uint64(b))
		c.track(span{prev, 8})
	}
	c.blocks = append(c.blocks, b)
	c.used = 0
	return b, nil
}

func (c *chain) track(sp span) { c.unflushed = append(c.unflushed, sp) }

// salt computes the checksum salt for a record at loc.
func (c *chain) salt(loc recLoc) uint64 {
	return c.incarn[loc.block] ^ (uint64(loc.off) * 0x9e3779b97f4a7c15)
}

// logEntry is one entry of a record: a datum's address and its new value.
// encodeRecord sets valOff, the value's offset inside the encoded record,
// which the volatile index keeps.
type logEntry struct {
	addr   pmem.Addr
	val    []byte
	valOff int
}

// compactable reports whether ents fit the compact form.
func compactable(ents []logEntry) bool {
	return len(ents) == 1 && len(ents[0].val) == 8 && ents[0].addr < compactLimit
}

// recordLen is the encoded length of a record holding ents.
func recordLen(ents []logEntry) int {
	if compactable(ents) {
		return compactLen
	}
	n := recHeader + recFooter
	for _, en := range ents {
		n += entHeader + len(en.val)
	}
	return n
}

// slotBytes is the payload a record of n bytes occupies: up to the next slot.
func slotBytes(n int) int { return (n + recSlot - 1) / recSlot * recSlot }

// freshCost bounds the payload an entry of size bytes at addr takes when a
// reclamation step copies it: a compact record alone, and otherwise the
// slots of a one-entry sized record. Packed with other entries it takes no
// more, so a run's summed costs bound the payload its copy needs.
func freshCost(addr pmem.Addr, size int) int64 {
	if size == 8 && addr < compactLimit {
		return compactLen
	}
	return int64(slotBytes(recHeader + entHeader + size + recFooter))
}

// lenOf returns the length of the record whose first word is w, or 0 when w
// starts no record: a pad marker, a word no encoder writes, or a sized word
// below the smallest sized record.
func lenOf(w uint32) int {
	switch {
	case w>>30 == compactFlag>>30:
		return compactLen
	case w&compactFlag != 0 || w < recHeader+recFooter:
		return 0
	}
	return int(w)
}

// encodeRecord lays out ents as one record stamped ts, reusing buf when it
// is large enough, and sets each entry's valOff. The checksum word is left
// for appendRecord, which knows the record's location.
func encodeRecord(buf []byte, ts uint64, ents []logEntry) []byte {
	n := recordLen(ents)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	rec := buf[:n]
	putU64(rec, 8, ts)
	if compactable(ents) {
		a := uint64(ents[0].addr)
		putU32(rec, 0, compactFlag|uint32(a>>32))
		putU32(rec, 4, uint32(a))
		copy(rec[compactVal:], ents[0].val)
		ents[0].valOff = compactVal
		return rec
	}
	putU32(rec, 0, uint32(n))
	putU32(rec, 4, uint32(len(ents)))
	p := recHeader
	for i := range ents {
		en := &ents[i]
		putU64(rec, p, uint64(en.addr))
		putU32(rec, p+8, uint32(len(en.val)))
		copy(rec[p+entHeader:], en.val)
		en.valOff = p + entHeader
		p += entHeader + len(en.val)
	}
	return rec
}

// appendEntries encodes ents as one record stamped ts and appends it at the
// tail (see appendRecord). It returns the record's location and the payload
// bytes it occupies.
func (c *chain) appendEntries(ts uint64, ents []logEntry) (recLoc, int, error) {
	c.buf = encodeRecord(c.buf, ts, ents)
	loc, err := c.appendRecord(c.buf)
	return loc, slotBytes(len(c.buf)), err
}

// nextRun returns the end of the longest run of ents from start that one
// record can hold: it stops where the record would outgrow the block
// payload, or at an entry i > start for which brk(i) asks for a new record
// (brk may be nil). It returns start when ents[start] alone does not fit a
// block.
func (c *chain) nextRun(ents []logEntry, start int, brk func(i int) bool) int {
	if recordLen(ents[start:start+1]) > c.payload() {
		return start
	}
	// Two or more entries always take the sized form, so the length grows
	// by one entry header plus value per member.
	size := recHeader + recFooter + entHeader + len(ents[start].val)
	end := start + 1
	for end < len(ents) && (brk == nil || !brk(end)) {
		if size += entHeader + len(ents[end].val); size > c.payload() {
			break
		}
		end++
	}
	return end
}

// appendRecord writes rec (a fully encoded record whose final 8 bytes will
// be overwritten with the salted checksum) at the next slot of the tail and
// returns its location. The bytes are volatile until flushPending + fence.
func (c *chain) appendRecord(rec []byte) (recLoc, error) {
	if len(rec) > c.payload() {
		return recLoc{}, errRecordTooLarge
	}
	if len(rec) < 4 || lenOf(getU32(rec, 0)) != len(rec) {
		return recLoc{}, errMalformedRecord
	}
	if c.used+len(rec) > c.payload() {
		c.sealTail()
		if _, err := c.appendBlock(); err != nil {
			return recLoc{}, err
		}
	}
	loc := recLoc{c.blocks[len(c.blocks)-1], c.used}
	sum := txn.Checksum64(rec[:len(rec)-recFooter]) ^ c.salt(loc)
	binary.LittleEndian.PutUint64(rec[len(rec)-recFooter:], sum)
	at := loc.block + pmem.Addr(blockHeader+loc.off)
	c.core.Store(at, rec)
	c.track(span{at, len(rec)})
	c.used += slotBytes(len(rec))
	return loc, nil
}

// sealTail closes the current tail block with a pad marker at its next slot,
// so that a scan continues into the next chain block instead of stopping
// there. appendRecord seals a block before linking the next one; a
// reclamation step seals the block it splices ahead of other blocks, whose
// free space must not read as "end of log". A slot too short for any record
// needs no marker: the scan never reads it.
func (c *chain) sealTail() {
	if c.payload()-c.used >= compactLen {
		var pad [4]byte
		binary.LittleEndian.PutUint32(pad[:], padMarker)
		at := c.blocks[len(c.blocks)-1] + pmem.Addr(blockHeader+c.used)
		c.core.Store(at, pad[:])
		c.track(span{at, 4})
	}
}

// flushPending issues CLWB for everything written since the last call. The
// caller follows with the (single) commit fence.
func (c *chain) flushPending(kind pmem.Kind) {
	for _, sp := range c.unflushed {
		c.core.Flush(sp.addr, sp.n, kind)
	}
	c.unflushed = c.unflushed[:0]
}

// scanRecord decodes the record at loc using core (which may differ from the
// chain's owner, e.g. the reclaimer core). It returns the raw record bytes
// (header through checksum) and whether the record is committed.
func (c *chain) scanRecord(core *pmem.Core, loc recLoc) (rec []byte, committed bool) {
	limit := c.payload() - loc.off
	if limit < compactLen {
		return nil, false
	}
	var w [4]byte
	core.Load(loc.block+pmem.Addr(blockHeader+loc.off), w[:])
	size := lenOf(binary.LittleEndian.Uint32(w[:]))
	if size == 0 || size > limit {
		return nil, false
	}
	rec = make([]byte, size)
	core.Load(loc.block+pmem.Addr(blockHeader+loc.off), rec)
	want := binary.LittleEndian.Uint64(rec[size-recFooter:])
	got := txn.Checksum64(rec[:size-recFooter]) ^ c.salt(loc)
	return rec, got == want
}

// scanEntry is one decoded log entry.
type scanEntry struct {
	Addr pmem.Addr
	Val  []byte
	// ValOff is the offset of the value bytes within the record.
	ValOff int
}

// recordForm names a record's form, for inspection output.
func recordForm(rec []byte) string {
	if len(rec) >= 4 && lenOf(getU32(rec, 0)) == compactLen {
		return "compact"
	}
	return "sized"
}

// decodeEntries parses a committed record's entries. Returns nil if the
// entry structure is malformed (cannot happen for checksum-valid records
// written by this code, but recovery is defensive).
func decodeEntries(rec []byte) (ts uint64, ents []scanEntry) {
	if len(rec) < recHeader+recFooter {
		return 0, nil
	}
	ts = binary.LittleEndian.Uint64(rec[8:])
	if w := getU32(rec, 0); lenOf(w) == compactLen {
		if len(rec) != compactLen {
			return ts, nil
		}
		a := pmem.Addr(uint64(w&^compactFlag)<<32 | uint64(getU32(rec, 4)))
		return ts, []scanEntry{{Addr: a, Val: rec[compactVal : compactVal+8], ValOff: compactVal}}
	}
	n := int(binary.LittleEndian.Uint32(rec[4:]))
	p := recHeader
	end := len(rec) - recFooter
	for i := 0; i < n; i++ {
		if p+entHeader > end {
			return ts, nil
		}
		a := pmem.Addr(binary.LittleEndian.Uint64(rec[p:]))
		sz := int(binary.LittleEndian.Uint32(rec[p+8:]))
		if sz < 0 || p+entHeader+sz > end {
			return ts, nil
		}
		ents = append(ents, scanEntry{Addr: a, Val: rec[p+entHeader : p+entHeader+sz], ValOff: p + entHeader})
		p += entHeader + sz
	}
	return ts, ents
}

// holdsEntry reports whether rec, a committed record, holds an entry for
// addr whose value is the size bytes at valOff — the check an index entry
// must pass, whichever the record's form.
func holdsEntry(rec []byte, addr pmem.Addr, valOff, size int) bool {
	_, ents := decodeEntries(rec)
	for _, en := range ents {
		if en.Addr == addr && en.ValOff == valOff && len(en.Val) == size {
			return true
		}
	}
	return false
}

// recordTS returns a record's commit timestamp.
func recordTS(rec []byte) uint64 { return getU64(rec, 8) }

// scanAll walks the chain from its head and calls fn for each committed
// record in chain order, stopping at the first uncommitted/torn record
// (§4.1: "the recovery stops once a corrupted log record is encountered
// because there should not be fresh records afterward"). It reads records
// only at slots, so gap bytes are never interpreted. It returns the
// location one past the final committed record — its next slot — which is
// where appending may resume.
func (c *chain) scanAll(core *pmem.Core, fn func(loc recLoc, rec []byte) bool) (tailBlock int, tailOff int) {
	for bi, b := range c.blocks {
		off, stopped := c.scanBlock(core, b, fn)
		if stopped || bi == len(c.blocks)-1 {
			return bi, off
		}
	}
	return 0, 0
}

// scanBlock calls fn for each committed record of block b in order, until a
// pad marker or the end of the payload. It returns the offset it reached,
// and stopped = true when an uncommitted record or fn ended the scan there.
func (c *chain) scanBlock(core *pmem.Core, b pmem.Addr, fn func(loc recLoc, rec []byte) bool) (off int, stopped bool) {
	for c.payload()-off >= compactLen {
		if core.LoadUint32(b+pmem.Addr(blockHeader+off)) == padMarker {
			break // explicit pad: rest of block is dead space
		}
		rec, committed := c.scanRecord(core, recLoc{b, off})
		if !committed || fn != nil && !fn(recLoc{b, off}, rec) {
			return off, true
		}
		off += slotBytes(len(rec))
	}
	return off, false
}

// resumeAt positions the append cursor. Blocks after tailBlock are discarded
// from the volatile view (they contain nothing committed) and freed.
func (c *chain) resumeAt(tailBlock, tailOff int) {
	for _, b := range c.blocks[tailBlock+1:] {
		delete(c.incarn, b)
		c.heap.Free(b, c.bsize)
	}
	c.blocks = c.blocks[:tailBlock+1]
	c.used = tailOff
	// The discarded blocks are unreachable after the next pointer of the
	// tail block is cleared; clear it so a later crash cannot resurrect
	// them.
	tb := c.blocks[tailBlock]
	c.core.StoreUint64(tb, 0)
	c.track(span{tb, 8})
}

// Little-endian scratch helpers shared across the package.
func putU64(b []byte, off int, v uint64) { binary.LittleEndian.PutUint64(b[off:], v) }
func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func getU64(b []byte, off int) uint64    { return binary.LittleEndian.Uint64(b[off:]) }
func getU32(b []byte, off int) uint32    { return binary.LittleEndian.Uint32(b[off:]) }

// freeBlocks returns blocks to the heap once they are unreachable.
func (c *chain) freeBlocks(blocks []pmem.Addr) {
	for _, b := range blocks {
		c.heap.Free(b, c.bsize)
	}
}
