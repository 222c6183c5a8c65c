package spec

import (
	"testing"

	"specpmt/internal/txn"
	"specpmt/internal/txn/txntest"
)

// Native fuzz targets. The seed corpus runs in ordinary `go test`; extend
// coverage with `go test -fuzz=FuzzDecodeEntries ./internal/txn/spec`.

// committedRecords returns the raw bytes of every committed record after a
// lone 8-byte store (a compact record) and a two-entry transaction (a sized
// one).
func committedRecords() [][]byte {
	w := txntest.NewWorld(16 << 20)
	env := w.Env(false)
	e, _ := New(env, Options{DisableReclaim: true})
	defer e.Close()
	a, _ := w.DataHeap.Alloc(64)
	b, _ := w.DataHeap.Alloc(64)
	tx := e.Begin()
	tx.StoreUint64(a, 7)
	tx.Commit()
	tx = e.Begin()
	tx.StoreUint64(a, 8)
	tx.StoreUint64(b, 9)
	tx.Commit()
	var recs [][]byte
	e.ch.scanAll(env.Core, func(loc recLoc, rec []byte) bool {
		recs = append(recs, append([]byte(nil), rec...))
		return true
	})
	return recs
}

func FuzzDecodeEntries(f *testing.F) {
	// Seed with genuine records of both forms, and with a compact record
	// cut short and one grown past its 32 bytes.
	recs := committedRecords()
	for _, rec := range recs {
		f.Add(rec)
	}
	compact := recs[0]
	if recordForm(compact) != "compact" || recordForm(recs[1]) != "sized" {
		f.Fatal("seed records are not one of each form")
	}
	f.Add(compact[:compactLen-1])
	f.Add(append(append([]byte(nil), compact...), 0))
	f.Add([]byte{})
	f.Add(make([]byte, recHeader+recFooter))
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Must never panic, whatever the bytes.
		decodeEntries(raw)
	})
}

func FuzzChecksumTamper(f *testing.F) {
	f.Add([]byte("hello world"), 3)
	// The checksummed body of a compact record: its flag word, address,
	// timestamp and value, with the flag byte and the value as targets.
	body := committedRecords()[0][:compactLen-recFooter]
	f.Add(body, 3)
	f.Add(body, compactVal)
	f.Fuzz(func(t *testing.T, data []byte, flip int) {
		if len(data) == 0 {
			return
		}
		sum := txn.Checksum64(data)
		mut := append([]byte(nil), data...)
		mut[((flip%len(mut))+len(mut))%len(mut)] ^= 0x01
		if txn.Checksum64(mut) == sum {
			t.Fatal("single-byte tamper not detected")
		}
	})
}
