package spec

import (
	"bytes"
	"testing"

	"specpmt/internal/pmem"
	"specpmt/internal/sim"
	"specpmt/internal/txn"
	"specpmt/internal/txn/txntest"
)

// linesSpanned counts the cache lines [at, at+n) touches.
func linesSpanned(at pmem.Addr, n int) uint64 {
	return uint64((at+pmem.Addr(n)-1)/pmem.LineSize-at/pmem.LineSize) + 1
}

// TestRecordGeometry pins the log's line-aware layout per transaction shape:
// a record's size, the payload it occupies (its size rounded up to a 32-byte
// slot), and the cache lines one commit flushes. A lone 8-byte store takes
// the 32-byte compact form and flushes exactly one line.
func TestRecordGeometry(t *testing.T) {
	const bsize = 1024
	payload := bsize - 32 // the 32-byte block header
	shapes := []struct {
		name string
		vals []int // value size of each entry
		size int   // encoded record bytes
	}{
		{"one-8B", []int{8}, 32},
		{"one-16B", []int{16}, 16 + 12 + 16 + 8},
		{"two-8B", []int{8, 8}, 16 + 2*20 + 8},
		{"three-8B", []int{8, 8, 8}, 16 + 3*20 + 8},
		{"largest", []int{payload - 16 - 12 - 8}, payload},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			w := txntest.NewWorld(64 << 20)
			env := w.Env(false)
			e, err := New(env, Options{BlockSize: bsize, DisableReclaim: true})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			addrs := make([]pmem.Addr, len(sh.vals))
			for i, n := range sh.vals {
				addrs[i], _ = w.DataHeap.Alloc(n)
			}
			slot := (sh.size + 31) / 32 * 32
			c := env.Core
			var rollovers, steady int
			for i := 0; i < 1000; i++ {
				flushes, blocks, live := c.Stats.Flushes, len(e.ch.blocks), e.LiveLogBytes()
				tx := e.Begin()
				for j, a := range addrs {
					tx.Store(a, bytes.Repeat([]byte{byte(i + j)}, sh.vals[j]))
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
				loc := e.index[addrs[0]].rec
				rec, ok := e.ch.scanRecord(c, loc)
				if !ok || len(rec) != sh.size {
					t.Fatalf("commit %d: record of %d bytes (committed %v), want %d", i, len(rec), ok, sh.size)
				}
				if loc.off%32 != 0 {
					t.Fatalf("commit %d: record at payload offset %d, not on a 32-byte slot", i, loc.off)
				}
				if got := e.ch.used - loc.off; got != slot {
					t.Fatalf("commit %d: record occupies %d payload bytes, want %d", i, got, slot)
				}
				if got := e.LiveLogBytes() - live; got != int64(slot) {
					t.Fatalf("commit %d: live log grew by %d bytes, want %d", i, got, slot)
				}
				if len(e.ch.blocks) != blocks {
					rollovers++
					continue
				}
				steady++
				at := loc.block + pmem.Addr(blockHeader+loc.off)
				want := linesSpanned(at, sh.size)
				if got := c.Stats.Flushes - flushes; got != want {
					t.Fatalf("commit %d: flushed %d lines for a %d-byte record spanning %d", i, got, sh.size, want)
				}
				if sh.size <= 32 && want != 1 {
					t.Fatalf("commit %d: a %d-byte record spans %d lines", i, sh.size, want)
				}
				if limit := uint64(slot+pmem.LineSize-1)/pmem.LineSize + 1; want > limit {
					t.Fatalf("commit %d: a %d-byte slot spans %d lines, more than %d", i, slot, want, limit)
				}
			}
			if rollovers < 3 {
				t.Fatalf("only %d block rollovers in 1000 commits", rollovers)
			}
			if steady == 0 {
				t.Fatal("no commit landed inside a block")
			}
		})
	}
}

// TestRecordTooLargeBoundary checks that the record bound is the usable
// payload to the byte: a one-entry record that fills it commits, one byte
// more does not.
func TestRecordTooLargeBoundary(t *testing.T) {
	const bsize = 1024
	w := txntest.NewWorld(32 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{BlockSize: bsize, DisableReclaim: true})
	defer e.Close()
	a, _ := w.DataHeap.Alloc(bsize)
	fits := bsize - 32 - 16 - 12 - 8 // header, record header, entry header, checksum
	for _, tc := range []struct {
		n    int
		want error
	}{{fits, nil}, {fits + 1, ErrTxTooLarge}} {
		tx := e.Begin()
		tx.Store(a, make([]byte, tc.n))
		if err := tx.Commit(); err != tc.want {
			t.Fatalf("%d-byte value: err=%v want %v", tc.n, err, tc.want)
		}
	}
	rec := make([]byte, e.ch.payload()+1)
	putU32(rec, 0, uint32(len(rec)))
	if _, err := e.ch.appendRecord(rec); err != errRecordTooLarge {
		t.Fatalf("appendRecord of payload+1 bytes: err=%v want errRecordTooLarge", err)
	}
}

// TestAppendRecordRejectsFlaggedSize checks that a sized record whose size
// word has bit 31 set — the compact form's flag — is refused rather than
// written as a record the scanner would misread.
func TestAppendRecordRejectsFlaggedSize(t *testing.T) {
	w := txntest.NewWorld(16 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{DisableReclaim: true})
	defer e.Close()
	rec := encodeRecord(nil, 1, []logEntry{{addr: 4096, val: make([]byte, 16)}})
	putU32(rec, 0, getU32(rec, 0)|compactFlag)
	used, pending := e.ch.used, len(e.ch.unflushed)
	if _, err := e.ch.appendRecord(rec); err != errMalformedRecord {
		t.Fatalf("err=%v want errMalformedRecord", err)
	}
	if e.ch.used != used || len(e.ch.unflushed) != pending {
		t.Fatal("a refused record moved the tail")
	}
}

// TestMergedRecoveryCoverageFillsBlock packs the coverage records of merged
// recovery right up to the block boundary: each holds exactly one payload's
// worth of entries, so a record one byte longer than the bound would overrun
// its block. Every value must survive a second crash.
func TestMergedRecoveryCoverageFillsBlock(t *testing.T) {
	const bsize, threads, groups, small = 1024, 2, 2, 40
	w := txntest.NewWorld(64 << 20)
	envs := poolEnvs(w, threads)
	p, err := NewPool(envs, Options{BlockSize: bsize, DisableReclaim: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := p.Engine(0).ch.payload()
	// One group: small 8-byte cells plus one cell sized so that the group's
	// coverage record is exactly one payload long.
	big := payload - recHeader - recFooter - small*(entHeader+8) - entHeader
	type cell struct {
		addr pmem.Addr
		val  []byte
	}
	var cells []cell
	for g := 0; g < groups; g++ {
		for i := 0; i <= small; i++ {
			n := 8
			if i == small {
				n = big
			}
			a, _ := w.DataHeap.Alloc(n)
			cells = append(cells, cell{a, bytes.Repeat([]byte{byte(len(cells) + 1)}, n)})
		}
	}
	for i, cl := range cells {
		tx := p.Engine(i % threads).Begin()
		tx.Store(cl.addr, cl.val)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	reattach := func(seed uint64) *Pool {
		w.Dev.Crash(sim.NewRand(seed))
		var envs2 []txn.Env
		for _, env := range envs {
			envs2 = append(envs2, w.SameEnv(env))
		}
		p2, err := NewPool(envs2, Options{BlockSize: bsize, DisableReclaim: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := p2.Recover(); err != nil {
			t.Fatal(err)
		}
		return p2
	}
	p2 := reattach(5)
	e := p2.Engine(0)
	var lens []int
	e.ch.scanAll(e.env.Core, func(loc recLoc, rec []byte) bool {
		if loc.off != 0 || loc.off+len(rec) > payload {
			t.Errorf("coverage record at +%d of %d bytes overruns a %d-byte payload", loc.off, len(rec), payload)
		}
		lens = append(lens, len(rec))
		return true
	})
	if len(lens) != groups || e.Blocks() != groups {
		t.Fatalf("coverage records %v in %d blocks, want %d full blocks", lens, e.Blocks(), groups)
	}
	for _, n := range lens {
		if n != payload {
			t.Fatalf("coverage record lengths %v, want each %d", lens, payload)
		}
	}
	if err := p2.VerifyRecovered(w.LogHeap.Allocated); err != nil {
		t.Fatal(err)
	}
	p2.Close()
	p3 := reattach(6)
	defer p3.Close()
	c := w.Dev.NewCore()
	for i, cl := range cells {
		got := make([]byte, len(cl.val))
		c.Load(cl.addr, got)
		if !bytes.Equal(got, cl.val) {
			t.Fatalf("cell %d lost across two merged recoveries", i)
		}
	}
}
