package repl

import "sync"

// DefaultLogCap is the default bound on retained records in the primary's
// in-memory replication log.
const DefaultLogCap = 1 << 16

// Log is the primary's bounded in-memory replication log: a ring of redo
// records indexed by LSN. Appends assign the next LSN and evict the oldest
// record once the ring is full; a reader that has fallen behind the tail
// gets ok=false from ReadFrom and must re-bootstrap via snapshot — that is
// the backpressure valve, trading a laggard's resume cost for bounded
// primary memory.
//
// Safe for concurrent use: the server's shard committers append, per-replica
// sender goroutines read.
type Log struct {
	mu   sync.Mutex
	ring []Record
	head uint64 // LSN of the newest record, 0 when empty
	tail uint64 // LSN of the oldest retained record, head+1 when empty
	wake chan struct{}
}

// NewLog returns a log retaining at most cap records (DefaultLogCap if
// cap <= 0).
func NewLog(cap int) *Log {
	if cap <= 0 {
		cap = DefaultLogCap
	}
	return &Log{
		ring: make([]Record, cap),
		tail: 1,
		wake: make(chan struct{}),
	}
}

// Append assigns the next LSN to ops, retains a copy, and wakes waiting
// readers. LSNs start at 1.
func (l *Log) Append(ops []WOp) uint64 {
	l.mu.Lock()
	l.head++
	lsn := l.head
	slot := &l.ring[lsn%uint64(len(l.ring))]
	slot.LSN = lsn
	slot.Ops = append(slot.Ops[:0], ops...)
	if l.head-l.tail+1 > uint64(len(l.ring)) {
		l.tail = l.head - uint64(len(l.ring)) + 1
	}
	wake := l.wake
	l.wake = make(chan struct{})
	l.mu.Unlock()
	close(wake)
	return lsn
}

// Head returns the newest assigned LSN (0 when the log is empty).
func (l *Log) Head() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head
}

// Tail returns the oldest retained LSN (head+1 when empty).
func (l *Log) Tail() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}

// ReadFrom copies up to max records starting at LSN from into dst (reusing
// its capacity) and reports whether the position is still retained. When
// from has fallen behind the tail it returns ok=false — the caller must
// re-bootstrap. An empty result with ok=true means the reader is caught up;
// wait on Wake to learn about the next append.
func (l *Log) ReadFrom(from uint64, max int, dst []Record) (recs []Record, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from < l.tail {
		return nil, false
	}
	out := dst[:0]
	for lsn := from; lsn <= l.head && len(out) < max; lsn++ {
		src := &l.ring[lsn%uint64(len(l.ring))]
		var rec Record
		if len(out) < cap(out) {
			rec = out[:len(out)+1][len(out)] // recycle the retired element's Ops buffer
		}
		rec.LSN = src.LSN
		rec.Ops = append(rec.Ops[:0], src.Ops...)
		out = append(out, rec)
	}
	return out, true
}

// Wake returns a channel closed on the next Append — the parking primitive
// for caught-up readers. Re-fetch after every wake-up.
func (l *Log) Wake() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.wake
}
