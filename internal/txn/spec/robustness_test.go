package spec

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"specpmt/internal/pmem"
	"specpmt/internal/txn/txntest"
)

// Recovery code parses bytes that a crash may have torn arbitrarily; no
// input may panic it.

func TestDecodeEntriesNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) < recHeader+recFooter {
			return true
		}
		defer func() {
			if recover() != nil {
				t.Errorf("decodeEntries panicked on %d bytes", len(raw))
			}
		}()
		decodeEntries(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScanGarbageBlockNeverPanics(t *testing.T) {
	f := func(seedBytes []byte) bool {
		w := txntest.NewWorld(16 << 20)
		env := w.Env(false)
		e, err := New(env, Options{BlockSize: 1024, DisableReclaim: true})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		// Scribble garbage straight into the head block's payload.
		b := e.ch.blocks[0]
		n := len(seedBytes)
		if n > 1024-blockHeader {
			n = 1024 - blockHeader
		}
		if n > 0 {
			env.Core.Store(b+blockHeader, seedBytes[:n])
		}
		defer func() {
			if recover() != nil {
				t.Error("scanAll panicked on scribbled block")
			}
		}()
		e.ch.scanAll(env.Core, func(loc recLoc, rec []byte) bool { return true })
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverOnScribbledLogRestoresPrefix(t *testing.T) {
	// Whatever garbage lands after the last committed record, recovery must
	// still restore every committed value and leave the engine usable.
	for seed := uint64(0); seed < 10; seed++ {
		w := txntest.NewWorld(32 << 20)
		env := w.Env(false)
		e, _ := New(env, Options{DisableReclaim: true})
		a, _ := w.DataHeap.Alloc(64)
		for v := uint64(1); v <= 3; v++ {
			tx := e.Begin()
			tx.StoreUint64(a, v)
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		// Scribble beyond the committed tail.
		tailBlock := e.ch.blocks[len(e.ch.blocks)-1]
		used := e.ch.used
		garbage := make([]byte, 64)
		for i := range garbage {
			garbage[i] = byte(seed*31 + uint64(i)*7)
		}
		if used+len(garbage) < e.ch.payload() {
			env.Core.Store(tailBlock+pmem.Addr(blockHeader+used), garbage)
			env.Core.PersistBarrier(tailBlock+pmem.Addr(blockHeader+used), len(garbage), pmem.KindLog)
		}
		e.Close()
		w.Dev.CrashClean()
		e2, _ := New(w.SameEnv(env), Options{})
		if err := e2.Recover(); err != nil {
			t.Fatal(err)
		}
		if got := w.Dev.NewCore().LoadUint64(a); got != 3 {
			t.Fatalf("seed %d: a=%d want 3", seed, got)
		}
		// Engine stays usable after recovering over garbage.
		tx := e2.Begin()
		tx.StoreUint64(a, 4)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		e2.Close()
	}
}

func TestDumpLogSmoke(t *testing.T) {
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{DisableReclaim: true})
	defer e.Close()
	a, _ := w.DataHeap.Alloc(64)
	for v := uint64(1); v <= 3; v++ {
		tx := e.Begin()
		tx.StoreUint64(a, v)
		tx.Commit()
	}
	var sb strings.Builder
	e.DumpLog(&sb)
	out := sb.String()
	for _, want := range []string{"speculative log", "block 0", "fresh", "stale", "3 committed record(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("DumpLog missing %q:\n%s", want, out)
		}
	}
	if e.IndexSize() != 1 || e.Blocks() != 1 {
		t.Fatalf("IndexSize=%d Blocks=%d", e.IndexSize(), e.Blocks())
	}
}

func TestChecksumSaltDiffersAcrossOffsets(t *testing.T) {
	w := txntest.NewWorld(16 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{DisableReclaim: true})
	defer e.Close()
	c := e.ch
	if c.salt(recLoc{c.blocks[0], 0}) == c.salt(recLoc{c.blocks[0], 64}) {
		t.Fatal("salt must vary with record offset")
	}
}

// TestTornCompactRecordStopsScan corrupts each 8-byte word of the last
// committed compact record in turn — flag and address, timestamp, value,
// checksum — in its low byte, its high byte, and byte 3, which holds the
// form flag in word 0. Recovery must stop at that record and restore every
// earlier one.
func TestTornCompactRecordStopsScan(t *testing.T) {
	const n = 5
	for word := 0; word < 4; word++ {
		for _, b := range []int{0, 3, 7} {
			w := txntest.NewWorld(32 << 20)
			env := w.Env(false)
			e, _ := New(env, Options{DisableReclaim: true})
			addrs := make([]pmem.Addr, n)
			for i := range addrs {
				addrs[i], _ = w.DataHeap.Alloc(64)
				tx := e.Begin()
				tx.StoreUint64(addrs[i], uint64(i+1))
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			last := e.index[addrs[n-1]].rec
			if rec, _ := e.ch.scanRecord(env.Core, last); recordForm(rec) != "compact" {
				t.Fatalf("a lone 8-byte store logged a %s record", recordForm(rec))
			}
			at := last.block + pmem.Addr(blockHeader+last.off+8*word+b)
			e.Close()
			w.Dev.CrashClean()
			c := w.Dev.NewCore()
			var x [1]byte
			c.Load(at, x[:])
			x[0] ^= 0x80
			c.Store(at, x[:])
			c.PersistBarrier(at, 1, pmem.KindLog)
			e2, _ := New(w.SameEnv(env), Options{DisableReclaim: true})
			records := 0
			tb, to := e2.ch.scanAll(c, func(recLoc, []byte) bool { records++; return true })
			if records != n-1 || e2.ch.blocks[tb] != last.block || to != last.off {
				t.Fatalf("word %d byte %d: scan kept %d records and stopped at block %d +%d, want %d records and +%d",
					word, b, records, tb, to, n-1, last.off)
			}
			if err := e2.Recover(); err != nil {
				t.Fatal(err)
			}
			for i, a := range addrs {
				want := uint64(i + 1)
				if i == n-1 {
					want = 0
				}
				if got := c.LoadUint64(a); got != want {
					t.Fatalf("word %d byte %d: addrs[%d]=%d want %d", word, b, i, got, want)
				}
			}
			e2.Close()
		}
	}
}

// TestRecycledBlockCompactResidue recycles a log block that is full of
// committed compact records: reclamation frees it, the chain relinks it
// under a new incarnation, and none of the residual records past the new
// tail may read as committed — before or after a crash.
func TestRecycledBlockCompactResidue(t *testing.T) {
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{BlockSize: 512, DisableReclaim: true})
	a, _ := w.DataHeap.Alloc(64)
	v := uint64(0)
	commit := func() {
		v++
		tx := e.Begin()
		tx.StoreUint64(a, v)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for len(e.ch.blocks) < 3 {
		commit()
	}
	old := map[pmem.Addr]bool{}
	for _, b := range e.ch.blocks[:len(e.ch.blocks)-1] {
		old[b] = true
	}
	if err := e.ReclaimNow(); err != nil {
		t.Fatal(err)
	}
	var recycled pmem.Addr
	for recycled == 0 {
		n := len(e.ch.blocks)
		commit()
		if tail := e.ch.blocks[len(e.ch.blocks)-1]; len(e.ch.blocks) > n && old[tail] {
			recycled = tail
		}
		if v > 1000 {
			t.Fatal("no freed block was ever recycled")
		}
	}
	c := env.Core
	residue := 0
	for off := e.ch.used; off+compactLen <= e.ch.payload(); off += recSlot {
		if lenOf(c.LoadUint32(recycled+pmem.Addr(blockHeader+off))) == compactLen {
			residue++
		}
		if _, ok := e.ch.scanRecord(c, recLoc{recycled, off}); ok {
			t.Fatalf("residual record at +%d of recycled block reads as committed", off)
		}
	}
	if residue == 0 {
		t.Fatal("the recycled block holds no residual compact records; the test proves nothing")
	}
	e.Close()
	w.Dev.CrashClean()
	e2, _ := New(w.SameEnv(env), Options{BlockSize: 512, DisableReclaim: true})
	if err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if got := w.Dev.NewCore().LoadUint64(a); got != v {
		t.Fatalf("a=%d after recovery, want %d", got, v)
	}
}

// TestDumpLogForms walks a chain holding both record forms and a pad
// marker: DumpLog names each record's form, size and slot bytes, and the
// walk crosses the pad into the next block.
func TestDumpLogForms(t *testing.T) {
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{BlockSize: 512, DisableReclaim: true})
	defer e.Close()
	addrs := make([]pmem.Addr, 3)
	for i := range addrs {
		addrs[i], _ = w.DataHeap.Alloc(64)
	}
	store := func(n int) {
		tx := e.Begin()
		for _, a := range addrs[:n] {
			tx.StoreUint64(a, 1)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// 480 payload bytes: 13 compact records (416), one three-entry sized
	// record (84 bytes, 96 with its slot) does not fit the 64 left, so a pad
	// closes block 0 and the record opens block 1.
	for i := 0; i < 13; i++ {
		store(1)
	}
	store(3)
	b0 := e.ch.blocks[0]
	if got := env.Core.LoadUint32(b0 + blockHeader + 13*32); got != padMarker {
		t.Fatalf("no pad marker at block 0 +416: word %#x", got)
	}
	var sb strings.Builder
	e.DumpLog(&sb)
	out := sb.String()
	for _, want := range []string{
		"compact size=32B slot=32B entries=1",
		"sized size=84B slot=96B entries=3",
		"14 committed record(s)",
		fmt.Sprintf("record @%d+0 ", e.ch.blocks[1]),
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DumpLog missing %q:\n%s", want, out)
		}
	}
}
