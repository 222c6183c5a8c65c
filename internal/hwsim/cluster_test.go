package hwsim

import (
	"sync"
	"testing"

	"specpmt/internal/pmem"
	"specpmt/internal/sim"
	"specpmt/internal/txn"
	"specpmt/internal/txn/txntest"
)

func clusterEnvs(w *txntest.World, n int) []txn.Env {
	envs := make([]txn.Env, n)
	for i := range envs {
		envs[i] = w.Env(true)
	}
	return envs
}

func TestClusterDisjointThreads(t *testing.T) {
	const threads, perThread = 4, 40
	w := txntest.NewWorld(128 << 20)
	envs := clusterEnvs(w, threads)
	cl, err := NewCluster(envs, confOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([][]pmem.Addr, threads)
	for i := range addrs {
		addrs[i] = make([]pmem.Addr, 4)
		for j := range addrs[i] {
			addrs[i][j], _ = w.DataHeap.Alloc(4096) // page-grained, private
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := cl.Engine(i)
			for r := uint64(1); r <= perThread; r++ {
				tx := e.Begin()
				for j, a := range addrs[i] {
					// Several stores per page so pages go hot.
					for k := 0; k < 4; k++ {
						tx.StoreUint64(a+pmem.Addr(k*64), uint64(i*1_000_000)+r*100+uint64(j*10+k))
					}
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	cl.Close()
	w.Dev.Crash(sim.NewRand(3))
	var envs2 []txn.Env
	for _, env := range envs {
		envs2 = append(envs2, w.SameEnv(env))
	}
	cl2, err := NewCluster(envs2, confOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	c := w.Dev.NewCore()
	for i := range addrs {
		for j, a := range addrs[i] {
			for k := 0; k < 4; k++ {
				want := uint64(i*1_000_000) + perThread*100 + uint64(j*10+k)
				if got := c.LoadUint64(a + pmem.Addr(k*64)); got != want {
					t.Fatalf("thread %d page %d word %d: got %d want %d", i, j, k, got, want)
				}
			}
		}
	}
}

func TestClusterSharedAddressTimestampOrder(t *testing.T) {
	const threads, rounds = 2, 60
	w := txntest.NewWorld(128 << 20)
	envs := clusterEnvs(w, threads)
	cl, err := NewCluster(envs, confOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := w.DataHeap.Alloc(4096)
	var mu sync.Mutex
	last := uint64(0)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := cl.Engine(i)
			for r := 0; r < rounds; r++ {
				mu.Lock()
				v := uint64(i+1)*1_000_000 + uint64(r)
				tx := e.Begin()
				// Enough stores that the shared page goes hot in BOTH
				// threads' TLBs — the cross-thread replay-ordering case.
				for k := 0; k < 8; k++ {
					tx.StoreUint64(shared+pmem.Addr(k*64), v)
				}
				if err := tx.Commit(); err != nil {
					t.Error(err)
					mu.Unlock()
					return
				}
				last = v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cl.Close()
	w.Dev.CrashClean()
	var envs2 []txn.Env
	for _, env := range envs {
		envs2 = append(envs2, w.SameEnv(env))
	}
	cl2, err := NewCluster(envs2, confOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	c := w.Dev.NewCore()
	for k := 0; k < 8; k++ {
		if got := c.LoadUint64(shared + pmem.Addr(k*64)); got != last {
			t.Fatalf("word %d = %d, want last committed %d", k, got, last)
		}
	}
}

// figure11Scenario builds the exact hazard of Figure 11: thread 1 holds an
// old speculative page image of a shared page; thread 2 commits w2 to it and
// then tries to reclaim the epoch holding w2's records; thread 1 then
// updates the page speculatively and crashes before committing. If the
// reclamation went through, replay regresses the page to thread 1's stale
// image and w2 is lost.
func figure11Scenario(t *testing.T, unsafeReclaim bool) (got, want uint64) {
	t.Helper()
	w := txntest.NewWorld(256 << 20)
	envs := clusterEnvs(w, 2)
	opt := HWOptions{
		EpochBytes:  1 << 30, // close epochs only via the page bound
		EpochPages:  1,
		MaxEpochs:   2,
		SpecRingCap: 8 << 20,
		UndoRingCap: 1 << 20,
	}
	cl, err := NewCluster(envs, opt)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetUnsafeReclaim(unsafeReclaim)
	page, _ := w.DataHeap.Alloc(4096)
	x := page // the contended word

	t1, t2 := cl.Engine(0), cl.Engine(1)
	// Thread 1: make the page hot in ITS TLB with an old value of x.
	tx := t1.Begin()
	for k := 0; k < 8; k++ {
		tx.StoreUint64(page+pmem.Addr(k*64), 111)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Thread 2: commit w2 to x (page goes hot in thread 2 as well).
	tx = t2.Begin()
	for k := 0; k < 8; k++ {
		tx.StoreUint64(page+pmem.Addr(k*64), 222) // w2
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Drive thread 2 over fresh pages so its epochs close and the one
	// holding w2's records becomes the reclamation candidate.
	for n := 0; n < 6; n++ {
		p, _ := w.DataHeap.Alloc(4096)
		tx = t2.Begin()
		for k := 0; k < 8; k++ {
			tx.StoreUint64(p+pmem.Addr(k*64), uint64(n))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Thread 1: speculative update of x (its page is still hot in thread
	// 1's TLB), interrupted by the crash.
	tx = t1.Begin()
	tx.StoreUint64(x, 999)
	cl.Close()
	w.Dev.CrashClean()
	var envs2 []txn.Env
	for _, env := range envs {
		envs2 = append(envs2, w.SameEnv(env))
	}
	cl2, err := NewCluster(envs2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Recover(); err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	return w.Dev.NewCore().LoadUint64(x), 222
}

func TestFigure11ProtocolPreventsRegression(t *testing.T) {
	got, want := figure11Scenario(t, false)
	if got != want {
		t.Fatalf("with the §5.2.2 protocol, x = %d, want committed w2 = %d", got, want)
	}
}

func TestFigure11HazardExistsWithoutProtocol(t *testing.T) {
	got, want := figure11Scenario(t, true)
	if got == want {
		t.Skip("unsafe reclamation did not fire in this arrangement; hazard not exercised")
	}
	t.Logf("without the protocol, x regressed to %d (committed w2 was %d) — the Figure 11 corruption", got, want)
}

func TestClusterDeferredReclamationEventuallyRuns(t *testing.T) {
	w := txntest.NewWorld(256 << 20)
	envs := clusterEnvs(w, 2)
	opt := HWOptions{EpochBytes: 1 << 30, EpochPages: 1, MaxEpochs: 2,
		SpecRingCap: 8 << 20, UndoRingCap: 1 << 20}
	cl, err := NewCluster(envs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	t1, t2 := cl.Engine(0), cl.Engine(1)
	hotTx := func(e *SpecHPMT, base pmem.Addr, v uint64) {
		tx := e.Begin()
		for k := 0; k < 8; k++ {
			tx.StoreUint64(base+pmem.Addr(k*64), v)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Thread 1 opens an old epoch and goes quiet.
	p1, _ := w.DataHeap.Alloc(4096)
	hotTx(t1, p1, 1)
	// Thread 2 churns: its reclamations are deferred while thread 1's old
	// epoch is live.
	for n := 0; n < 8; n++ {
		p, _ := w.DataHeap.Alloc(4096)
		hotTx(t2, p, uint64(n))
	}
	if t2.deferredCycles == 0 {
		t.Fatal("expected deferred reclamations while thread 1 holds an old epoch")
	}
	// Thread 1 advances: its epochs close and reclaim, unblocking thread 2.
	for n := 0; n < 6; n++ {
		p, _ := w.DataHeap.Alloc(4096)
		hotTx(t1, p, uint64(n))
	}
	hotTx(t2, p1, 99) // a commit retries deferred cycles
	if t2.deferredCycles > 2 {
		t.Fatalf("deferred reclamations did not drain: %d pending", t2.deferredCycles)
	}
	if t2.cpu.Core.Stats.EpochsReclaimed == 0 {
		t.Fatal("thread 2 never reclaimed")
	}
}

// TestClusterColdWriteToPageHotElsewhere pins the fix for a torn replica
// replay: one thread's log holds a page image, another thread then stores
// to a different line of that page, which its own TLB sees as cold. Merged
// recovery replays the image, so the store must be logged after it — were
// it persisted in place and logged nowhere, the replay would regress it.
func TestClusterColdWriteToPageHotElsewhere(t *testing.T) {
	w := txntest.NewWorld(128 << 20)
	envs := clusterEnvs(w, 2)
	cl, err := NewCluster(envs, confOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	page, _ := w.DataHeap.Alloc(pmem.PageSize)
	// Thread 0 drives the page hot: its log holds the page image.
	for r := uint64(1); r <= 3; r++ {
		tx := cl.Engine(0).Begin()
		for k := 0; k < hotThreshold+1; k++ {
			tx.StoreUint64(page+pmem.Addr(k*8), r)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// Thread 1 writes another line of the same page, cold on its TLB.
	line := page + 10*pmem.LineSize
	tx := cl.Engine(1).Begin()
	tx.StoreUint64(line, 42)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	w.Dev.Crash(sim.NewRand(1))
	var envs2 []txn.Env
	for _, env := range envs {
		envs2 = append(envs2, w.SameEnv(env))
	}
	cl2, _ := NewCluster(envs2, confOpts(false))
	if err := cl2.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := w.Dev.NewCore().LoadUint64(line); got != 42 {
		t.Fatalf("thread 1's committed write regressed to %d", got)
	}
}
