package hwsim

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"specpmt/internal/pmem"
	"specpmt/internal/txn"
)

// Coordinator implements the non-blocking multi-thread reclamation protocol
// of §5.2.2: "the software can safely reclaim all log records in an epoch e
// if: (1) e is an inactive epoch; (2) all active epochs must start after the
// end of e, including the epochs belonging to other threads."
//
// Each thread publishes the start timestamp of its earliest unreclaimed
// epoch; a reclamation proceeds only when every other thread's earliest
// active epoch started after the candidate epoch ended. This is what stops
// the Figure 11 corruption: a thread holding an old page image (its epoch
// predates e's end) blocks e's reclamation, so replay order can never
// regress committed values whose records lived in e.
type Coordinator struct {
	mu      sync.Mutex
	threads []*SpecHPMT
	// images counts, per page, the page-image records live in the threads'
	// speculative logs. Merged recovery replays such an image over the
	// page, so a store to an imaged page must reach a speculative log with
	// a later timestamp: a cold store, persisted in place and logged
	// nowhere, would be regressed by the replay (see SpecHPMT.Store).
	images map[uint64]int
	// unsafeMode disables the protocol; it exists so tests can demonstrate
	// the hazard the protocol prevents.
	unsafeMode bool
}

// register adds a thread engine to the protocol.
func (co *Coordinator) register(e *SpecHPMT) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.threads = append(co.threads, e)
}

// noteImage adjusts the live page-image count of page by delta.
func (co *Coordinator) noteImage(page uint64, delta int) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.images == nil {
		co.images = map[uint64]int{}
	}
	if co.images[page] += delta; co.images[page] <= 0 {
		delete(co.images, page)
	}
}

// imaged reports whether any thread's speculative log holds a live image
// of page.
func (co *Coordinator) imaged(page uint64) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.images[page] > 0
}

// canReclaim checks condition (2) for the caller's oldest epoch ending at
// endTS. The caller's own epochs are exempt: its candidate IS its earliest,
// and reclaiming it cannot invalidate the caller's own later records.
func (co *Coordinator) canReclaim(caller *SpecHPMT, endTS uint64) bool {
	if co.unsafeMode {
		return true
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	for _, t := range co.threads {
		if t == caller {
			continue
		}
		// The earliest ACTIVE epoch: inactive epochs (ID reassigned, pages
		// already cold) no longer block anyone.
		earliest := t.cur.startTS
		for _, ep := range t.epochs {
			if !ep.inactive {
				earliest = ep.startTS
				break
			}
		}
		if earliest <= endTS {
			return false
		}
	}
	return true
}

// Cluster runs one hardware SpecPMT engine per thread over a shared device,
// wiring them to a common reclamation Coordinator, and provides merged
// multi-thread recovery. Like the software Pool (spec.Pool), isolation is
// the caller's job (§4.3.3); the cluster guarantees that the merged,
// timestamp-ordered replay reproduces the committed history.
type Cluster struct {
	engines []*SpecHPMT
	coord   *Coordinator
}

// NewCluster constructs n thread engines. envs must have length n with
// distinct Roots but a shared Dev, heaps, and TS.
func NewCluster(envs []txn.Env, opt HWOptions) (*Cluster, error) {
	cl := &Cluster{coord: &Coordinator{}}
	for i, env := range envs {
		// Cluster engines run one-goroutine-each against a shared device:
		// pin device-level locking on (overrides exclusive mode).
		env.Dev.ForceShared()
		e, err := NewSpecHPMT(env, opt)
		if err != nil {
			return nil, fmt.Errorf("hwsim: cluster thread %d: %w", i, err)
		}
		e.coord = cl.coord
		cl.coord.register(e)
		cl.engines = append(cl.engines, e)
	}
	return cl, nil
}

// Threads returns the thread count.
func (cl *Cluster) Threads() int { return len(cl.engines) }

// Engine returns thread i's engine; each must be driven by one goroutine.
func (cl *Cluster) Engine(i int) *SpecHPMT { return cl.engines[i] }

// SetUnsafeReclaim disables the §5.2.2 protocol (test hook demonstrating
// the Figure 11 hazard).
func (cl *Cluster) SetUnsafeReclaim(unsafe bool) { cl.coord.unsafeMode = unsafe }

// Close closes every engine.
func (cl *Cluster) Close() error {
	for _, e := range cl.engines {
		if err := e.Close(); err != nil {
			return err
		}
	}
	return nil
}

// clusterRec is one record scheduled for merged replay.
type clusterRec struct {
	ts   uint64
	page bool
	addr pmem.Addr
	data []byte
}

// Recover performs the merged recovery: every thread's speculative records
// are collected and replayed in global timestamp order (redoing committed
// transactions, with trailing page images rolling interrupted hot updates
// back), then every thread's undo log is applied, then the restored data is
// persisted and all logs retire.
func (cl *Cluster) Recover() error {
	if len(cl.engines) == 0 {
		return nil
	}
	c := cl.engines[0].cpu.Core
	var recs []clusterRec
	for _, e := range cl.engines {
		e.spec.Scan(c, func(off uint64, payload []byte) bool {
			if len(payload) < 16 {
				return false
			}
			switch payload[0] {
			case recKindPage:
				if len(payload) != 24+pmem.PageSize {
					return false
				}
				recs = append(recs, clusterRec{
					ts:   binary.LittleEndian.Uint64(payload[8:]),
					page: true,
					addr: pmem.Addr(binary.LittleEndian.Uint64(payload[16:]) * pmem.PageSize),
					data: append([]byte(nil), payload[24:]...),
				})
			case recKindCommit:
				n := int(binary.LittleEndian.Uint32(payload[2:]))
				if len(payload) != 16+n*(8+pmem.LineSize) {
					return false
				}
				ts := binary.LittleEndian.Uint64(payload[8:])
				p := 16
				for i := 0; i < n; i++ {
					line := binary.LittleEndian.Uint64(payload[p:])
					recs = append(recs, clusterRec{
						ts:   ts,
						addr: LineAddr(line),
						data: append([]byte(nil), payload[p+8:p+8+pmem.LineSize]...),
					})
					p += 8 + pmem.LineSize
				}
			default:
				return false
			}
			return true
		})
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].ts < recs[j].ts })
	cl.coord.mu.Lock()
	cl.coord.images = nil // every log retires below
	cl.coord.mu.Unlock()
	touched := txn.NewWriteSet()
	for _, r := range recs {
		c.StoreRaw(r.addr, r.data)
		touched.Add(r.addr, len(r.data))
	}
	// Undo logs: each interrupted transaction's cold-line images, reversed.
	for _, e := range cl.engines {
		type urec struct {
			line uint64
			old  []byte
		}
		var undos []urec
		e.undo.Scan(c, func(off uint64, payload []byte) bool {
			if len(payload) != 8+pmem.LineSize {
				return false
			}
			undos = append(undos, urec{binary.LittleEndian.Uint64(payload), append([]byte(nil), payload[8:]...)})
			return true
		})
		for i := len(undos) - 1; i >= 0; i-- {
			c.StoreRaw(LineAddr(undos[i].line), undos[i].old)
			touched.Add(LineAddr(undos[i].line), pmem.LineSize)
		}
	}
	for _, l := range touched.Lines() {
		c.Flush(pmem.Addr(l*pmem.LineSize), pmem.LineSize, pmem.KindData)
	}
	c.Fence()
	// Retire every thread's logs; the data is durable.
	for _, e := range cl.engines {
		ec := e.cpu.Core
		st := e.spec.Scan(ec, nil)
		e.spec.ResumeAt(st)
		e.spec.AdvanceHead(st)
		ec.StoreUint64(e.env.Root+offHPMTSpecHead, st)
		ut := e.undo.Scan(ec, nil)
		e.undo.ResumeAt(ut)
		e.undo.AdvanceHead(ut)
		ec.StoreUint64(e.env.Root+offHPMTUndoHead, ut)
		ec.Flush(e.env.Root+offHPMTSpecHead, 8, pmem.KindLog)
		ec.Flush(e.env.Root+offHPMTUndoHead, 8, pmem.KindLog)
		ec.Fence()
		e.epochs = nil
		e.cur = epochInfo{eid: 1, start: st, startTS: e.env.TS.Next()}
		e.nextEID = 2
		e.needScan = false
	}
	return nil
}
