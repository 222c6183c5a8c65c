package spec

import (
	"sync"
)

// Background reclamation (§4.2): "Log reclamation occurs in the background
// on a dedicated thread. Reclamation is triggered explicitly through an API
// or implicitly when a transaction execution finds the memory space overhead
// reaching a tunable threshold."
//
// The default engine runs one bounded reclamation step (Engine.stepLocked)
// synchronously in each commit that finds the stale estimate over the
// threshold (cost still charged to the dedicated background core, so
// modeled timing is identical); BackgroundReclaim moves the steps onto a
// real goroutine, overlapping reclamation with the application exactly as
// the paper's software design does — at the price of the drawbacks the
// paper itself lists for it (a dedicated core and trigger tuning, §5).
//
// Synchronisation: the reclaimer reads and rewrites chain and index state
// under e.bgmu one step at a time — at most maxRun blocks scanned and one
// written — so a commit waits on it for at most one step.

// reclaimDaemon is the dedicated reclamation goroutine.
type reclaimDaemon struct {
	e      *Engine
	wake   chan struct{}
	quit   chan struct{}
	done   sync.WaitGroup
	failMu sync.Mutex
	failed error
}

func newReclaimDaemon(e *Engine) *reclaimDaemon {
	d := &reclaimDaemon{e: e, wake: make(chan struct{}, 1), quit: make(chan struct{})}
	d.done.Add(1)
	// The daemon goroutine drives its own core against the shared device;
	// device-level locking must stay on for its lifetime.
	e.env.Dev.ForceShared()
	go d.loop()
	return d
}

func (d *reclaimDaemon) loop() {
	defer d.done.Done()
	for {
		select {
		case <-d.quit:
			// Drain pending triggers, including those runStep raises
			// itself, before exiting so stop() never drops requested
			// work: on a single-CPU machine the daemon may only be
			// scheduled for the first time at shutdown.
			for {
				select {
				case <-d.wake:
					d.runStep()
				default:
					return
				}
			}
		case <-d.wake:
			d.runStep()
		}
	}
}

// runStep executes one reclamation step, recording the first failure. A
// step that leaves the stale estimate over the threshold wakes the daemon
// again, so it keeps stepping, one lock hold per step, until the estimate
// is under the threshold or no run frees a block.
func (d *reclaimDaemon) runStep() {
	d.e.bgmu.Lock()
	freed, err := d.e.stepLocked()
	again := freed && d.e.reclaimDue()
	d.e.bgmu.Unlock()
	if again {
		d.signal()
	}
	if err != nil {
		d.failMu.Lock()
		if d.failed == nil {
			d.failed = err
		}
		d.failMu.Unlock()
	}
}

// signal requests a step; coalesces if one is already pending.
func (d *reclaimDaemon) signal() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// stop drains the daemon and returns any failure it hit.
func (d *reclaimDaemon) stop() error {
	close(d.quit)
	d.done.Wait()
	d.failMu.Lock()
	defer d.failMu.Unlock()
	return d.failed
}
