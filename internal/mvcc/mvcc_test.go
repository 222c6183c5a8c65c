package mvcc

import (
	"sync"
	"testing"
	"time"
)

func TestSnapshotVisibility(t *testing.T) {
	s := &Store{}
	s.Seed(1, 100, 0)
	s.Advance(0)

	snap0, ok := s.Acquire()
	if !ok || snap0.LSN != 0 {
		t.Fatalf("acquire: got %+v ok=%v", snap0, ok)
	}
	if v, ok := s.Get(snap0, 1); !ok || v != 100 {
		t.Fatalf("snap0 get: %d %v", v, ok)
	}

	s.Install(1, 200, false, 5)
	s.Advance(5)

	// The old snapshot still sees the old value.
	if v, ok := s.Get(snap0, 1); !ok || v != 100 {
		t.Fatalf("snap0 after install: %d %v", v, ok)
	}
	snap5, ok := s.Acquire()
	if !ok || snap5.LSN != 5 {
		t.Fatalf("acquire: got %+v ok=%v", snap5, ok)
	}
	if v, ok := s.Get(snap5, 1); !ok || v != 200 {
		t.Fatalf("snap5 get: %d %v", v, ok)
	}
	s.Release(snap0)
	s.Release(snap5)
}

func TestTombstoneAndReclaim(t *testing.T) {
	s := &Store{}
	s.Seed(7, 1, 0)
	for lsn := uint64(1); lsn <= 10; lsn++ {
		s.Install(7, lsn*10, false, lsn)
		s.Advance(lsn)
	}
	// No snapshots held: trim (which runs just before each Advance) keeps
	// the new version plus the one visible at the pre-advance watermark.
	if live := s.Live(); live > 2 {
		t.Fatalf("live = %d, want <= 2", live)
	}
	if s.Reclaims() == 0 {
		t.Fatal("no reclaims counted")
	}
	s.Install(7, 0, true, 11)
	s.Advance(11)
	snap, _ := s.Acquire()
	if _, ok := s.Get(snap, 7); ok {
		t.Fatal("deleted key visible")
	}
	s.Release(snap)
	// Once no snapshot can look behind the tombstone, a read of the dead
	// key reclaims the whole chain.
	s.Install(8, 1, false, 12)
	s.Advance(12)
	snap, _ = s.Acquire()
	if _, ok := s.Get(snap, 7); ok {
		t.Fatal("deleted key visible")
	}
	s.Release(snap)
	if _, found := s.chains.Load(uint64(7)); found {
		t.Fatal("dead tombstone chain not reclaimed")
	}
}

func TestHeldSnapshotPinsVersions(t *testing.T) {
	s := &Store{}
	s.Install(1, 10, false, 1)
	s.Advance(1)
	snap, _ := s.Acquire()
	for lsn := uint64(2); lsn <= 20; lsn++ {
		s.Install(1, lsn, false, lsn)
		s.Advance(lsn)
	}
	if v, ok := s.Get(snap, 1); !ok || v != 10 {
		t.Fatalf("pinned version lost: %d %v", v, ok)
	}
	s.Release(snap)
}

func TestAcquireExhaustion(t *testing.T) {
	s := &Store{}
	s.Advance(1)
	var snaps []Snapshot
	for i := 0; i < snapSlots; i++ {
		sn, ok := s.Acquire()
		if !ok {
			t.Fatalf("slot %d: acquire failed", i)
		}
		snaps = append(snaps, sn)
	}
	if _, ok := s.Acquire(); ok {
		t.Fatal("acquire succeeded past slot capacity")
	}
	s.Release(snaps[17])
	if _, ok := s.Acquire(); !ok {
		t.Fatal("acquire failed after release")
	}
	for i, sn := range snaps {
		if i != 17 {
			s.Release(sn)
		}
	}
}

// TestConcurrentReadersNeverSeeFuture hammers one store with a publisher
// installing monotonically increasing values and readers asserting that a
// snapshot never observes a value published after its LSN and never goes
// back in time within one snapshot.
func TestConcurrentReadersNeverSeeFuture(t *testing.T) {
	s := &Store{}
	const keys = 8
	for k := uint64(0); k < keys; k++ {
		s.Seed(k, 0, 0)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single publisher: value == lsn for every key it touches
		defer wg.Done()
		lsn := uint64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			lsn++
			s.Install(lsn%keys, lsn, false, lsn)
			s.Advance(lsn)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(200 * time.Millisecond)
			for time.Now().Before(deadline) {
				snap, ok := s.Acquire()
				if !ok {
					continue
				}
				for k := uint64(0); k < keys; k++ {
					if v, ok := s.Get(snap, k); ok && v > snap.LSN {
						t.Errorf("snapshot %d observed future value %d", snap.LSN, v)
					}
				}
				s.Release(snap)
			}
		}()
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestWatermarkWait(t *testing.T) {
	w := NewWatermark()
	w.AdvanceTo(5)
	if v, ok := w.Wait(3, nil); !ok || v != 5 {
		t.Fatalf("wait below current: %d %v", v, ok)
	}
	done := make(chan uint64, 1)
	go func() {
		v, ok := w.Wait(10, nil)
		if !ok {
			t.Error("wait aborted unexpectedly")
		}
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	w.AdvanceTo(7)
	w.AdvanceTo(12)
	select {
	case v := <-done:
		if v < 10 {
			t.Fatalf("woke at %d before target", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait(10) never woke")
	}
	stop := make(chan struct{})
	close(stop)
	if _, ok := w.Wait(100, stop); ok {
		t.Fatal("stopped wait reported success")
	}
}

// TestWatermarkAdvanceAllocs: with no waiter since the last advance, an
// advance swaps no wake channel, so it allocates nothing.
func TestWatermarkAdvanceAllocs(t *testing.T) {
	w := NewWatermark()
	var lsn uint64
	if n := testing.AllocsPerRun(1000, func() {
		lsn++
		w.AdvanceTo(lsn)
	}); n != 0 {
		t.Fatalf("AdvanceTo with no waiter: %v allocs, want 0", n)
	}
}

// TestWatermarkWakesRegisteredWaiter: a channel WaitChan handed out before
// an advance is closed by that advance — also after advances nobody waited
// on, and again for the next waiter.
func TestWatermarkWakesRegisteredWaiter(t *testing.T) {
	w := NewWatermark()
	w.AdvanceTo(1)
	w.AdvanceTo(2)
	for round := uint64(3); round < 6; round++ {
		v, wake := w.WaitChan()
		if v != round-1 {
			t.Fatalf("WaitChan = %d, want %d", v, round-1)
		}
		select {
		case <-wake:
			t.Fatal("wake closed before any advance")
		default:
		}
		w.AdvanceTo(round - 1) // not higher: no wake
		select {
		case <-wake:
			t.Fatal("wake closed by an advance that did not raise the mark")
		default:
		}
		w.AdvanceTo(round)
		select {
		case <-wake:
		default:
			t.Fatalf("advance to %d did not wake a waiter registered before it", round)
		}
	}
}

func TestResetAndSeed(t *testing.T) {
	s := &Store{}
	s.Install(1, 10, false, 3)
	s.Advance(3)
	s.Reset(40)
	if s.Watermark() != 40 {
		t.Fatalf("watermark after reset: %d", s.Watermark())
	}
	snap, _ := s.Acquire()
	if _, ok := s.Get(snap, 1); ok {
		t.Fatal("chain survived reset")
	}
	s.Release(snap)
	s.Seed(2, 20, 40)
	snap, _ = s.Acquire()
	if v, ok := s.Get(snap, 2); !ok || v != 20 {
		t.Fatalf("seeded value: %d %v", v, ok)
	}
	s.Release(snap)
}
