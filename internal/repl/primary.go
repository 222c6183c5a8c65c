package repl

import (
	"bufio"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"specpmt"
	"specpmt/internal/obs"
	"specpmt/internal/server"
)

// SyncMode selects how a primary's commit interacts with replication.
type SyncMode int

const (
	// SyncAsync acknowledges commits to clients without waiting for any
	// replica — replication is fire-and-forget off the critical path, the
	// speculative-persistence stance applied to the network hop.
	SyncAsync SyncMode = iota
	// SyncAck stalls each commit until every currently streaming replica
	// has acknowledged its record (bounded by AckTimeout, and degrading to
	// async when no replica is connected).
	SyncAck
)

func (m SyncMode) String() string {
	if m == SyncAck {
		return "ack"
	}
	return "async"
}

// ParseSyncMode parses "async" or "ack".
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "async":
		return SyncAsync, nil
	case "ack":
		return SyncAck, nil
	}
	return 0, fmt.Errorf("repl: unknown sync mode %q (want async or ack)", s)
}

// PrimaryOptions tunes the shipping side.
type PrimaryOptions struct {
	// LogCap bounds retained records (DefaultLogCap if 0).
	LogCap int
	// BatchRecords caps records per shipped batch (default 256).
	BatchRecords int
	// BatchWindow delays shipping after new records arrive so more can
	// coalesce into one TCP write — the replication analogue of the group
	// commit window. 0 ships immediately.
	BatchWindow time.Duration
	// Heartbeat is the idle HB interval (default 200ms).
	Heartbeat time.Duration
	// Sync selects async vs wait-for-ack commits.
	Sync SyncMode
	// AckTimeout bounds a SyncAck commit stall (default 2s).
	AckTimeout time.Duration
	// Tracer, when non-nil, receives ship/ack events on a "repl-primary"
	// track. Replication runs on real network time, so these instants are
	// stamped with wall-clock nanoseconds since the primary started.
	Tracer *specpmt.Tracer
	// Log, when non-nil, receives structured diagnostics; falls back to a
	// Logf adapter, then to discard.
	Log *slog.Logger
	// Spans, when non-nil, receives snapshot-transfer spans on a
	// "repl-primary" track of the live span ring.
	Spans *obs.SpanRecorder
	// Logf, when non-nil, receives diagnostics printf-style (the pre-slog
	// hook); ignored when Log is set.
	Logf func(format string, args ...any)
}

// Primary publishes a server's commit log to replicas: it is the server's
// Replicator (Publish assigns LSNs) and a TCP listener replicas connect to
// for snapshot bootstrap and record tailing.
type Primary struct {
	srv    *server.Server
	log    *Log
	id     uint64
	opts   PrimaryOptions
	track  int
	slog   *slog.Logger
	rec    *obs.SpanRecorder
	strack int32
	start  time.Time
	quit   chan struct{}

	mu      sync.Mutex
	ln      net.Listener
	feeds   map[*feed]struct{}
	ackWake chan struct{}
	closed  bool
	wg      sync.WaitGroup

	snapshots    atomic.Uint64
	resnapshots  atomic.Uint64
	evictions    atomic.Uint64
	syncTimeouts atomic.Uint64

	// shardHeads[s] is the LSN of the last published record containing an
	// op for shard s — the catch-up target for a migration feed of s.
	shardHeads []atomic.Uint64
}

// feed is one connected replica's send state. filter is -1 for a full feed;
// >= 0 for a single-shard migration feed (which never gates SyncAck commits:
// its acked LSN legitimately trails the global head).
type feed struct {
	c         net.Conn
	acked     atomic.Uint64
	streaming atomic.Bool
	filter    int
}

// NewPrimary wraps srv as a replication primary and installs itself as the
// server's Replicator and stats hook. Call Start (or Serve) to accept
// replicas, Close to detach.
func NewPrimary(srv *server.Server, opts PrimaryOptions) *Primary {
	if opts.BatchRecords <= 0 {
		opts.BatchRecords = 256
	}
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 200 * time.Millisecond
	}
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 2 * time.Second
	}
	p := &Primary{
		srv:        srv,
		log:        NewLog(opts.LogCap),
		opts:       opts,
		start:      time.Now(),
		quit:       make(chan struct{}),
		feeds:      make(map[*feed]struct{}),
		ackWake:    make(chan struct{}),
		track:      -1,
		shardHeads: make([]atomic.Uint64, srv.Shards()),
	}
	for p.id == 0 {
		p.id = rand.Uint64() // nonzero: 0 means "no stream position" in HELLO
	}
	if opts.Tracer != nil {
		p.track = opts.Tracer.RegisterTrack("repl-primary")
	}
	switch {
	case opts.Log != nil:
		p.slog = opts.Log
	case opts.Logf != nil:
		p.slog = obs.LogfLogger(opts.Logf)
	default:
		p.slog = obs.Nop()
	}
	p.rec = opts.Spans
	if p.rec != nil {
		p.strack = p.rec.Track("repl-primary")
	}
	srv.SetReplicator(p)
	srv.SetStatsHook(p.emitStats)
	return p
}

// ID returns the primary's random stream identity. A replica that resumes
// with a different id is re-bootstrapped: the in-memory log did not survive
// whatever produced the new id.
func (p *Primary) ID() uint64 { return p.id }

// Log exposes the replication log (head/tail for tests and tools).
func (p *Primary) Log() *Log { return p.log }

// Publish implements server.Replicator: it assigns the next LSN to a
// committed transaction's effective writes and returns it (the server stamps
// the writes' MVCC versions and LSN tokens with it). In SyncAck mode the
// returned wait stalls the calling committer until every streaming replica
// acked the record (or AckTimeout).
func (p *Primary) Publish(writes []server.RepWrite) (uint64, func()) {
	lsn := p.log.Append(writes)
	for i := range writes {
		if s := writes[i].Shard; s >= 0 && s < len(p.shardHeads) {
			// Per-shard publishes are ordered (each runs under the shard's
			// combiner lock), so a plain Store never moves a head backwards.
			p.shardHeads[s].Store(lsn)
		}
	}
	if p.opts.Sync != SyncAck {
		return lsn, nil
	}
	return lsn, func() { p.waitAcked(lsn) }
}

// ShardHead returns the LSN of the last published record that touched shard
// s (0 if none). During a migration cutover the source freezes the shard,
// drains in-flight batches, and hands this LSN to the coordinator as the
// exact point the destination must reach before the epoch bump.
func (p *Primary) ShardHead(s int) uint64 {
	if s < 0 || s >= len(p.shardHeads) {
		return 0
	}
	return p.shardHeads[s].Load()
}

func (p *Primary) waitAcked(lsn uint64) {
	timer := time.NewTimer(p.opts.AckTimeout)
	defer timer.Stop()
	for {
		p.mu.Lock()
		wake := p.ackWake
		waiting := false
		for f := range p.feeds {
			// streaming.Load() first: the handshake writes f.filter before
			// its streaming.Store(true), so the load orders the read.
			if f.streaming.Load() && f.filter < 0 && f.acked.Load() < lsn {
				waiting = true
			}
		}
		p.mu.Unlock()
		if !waiting {
			return
		}
		select {
		case <-wake:
		case <-timer.C:
			p.syncTimeouts.Add(1)
			return
		case <-p.quit:
			return
		}
	}
}

func (p *Primary) broadcastAck() {
	p.mu.Lock()
	wake := p.ackWake
	p.ackWake = make(chan struct{})
	p.mu.Unlock()
	close(wake)
}

// Start begins serving replicas on addr in the background.
func (p *Primary) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Publish the listener before returning so Addr() is usable immediately;
	// Serve re-asserts the same value.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return server.ErrClosed
	}
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.Serve(ln)
	}()
	return nil
}

// Addr returns the replication listener's address (nil before Start/Serve).
func (p *Primary) Addr() net.Addr {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ln == nil {
		return nil
	}
	return p.ln.Addr()
}

// Serve accepts replica connections on ln until Close.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return server.ErrClosed
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			select {
			case <-p.quit:
				return nil
			default:
				return err
			}
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.handle(c)
		}()
	}
}

// Close stops serving, drops every replica, and detaches from the server.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	feeds := make([]*feed, 0, len(p.feeds))
	for f := range p.feeds {
		feeds = append(feeds, f)
	}
	p.mu.Unlock()
	close(p.quit)
	if ln != nil {
		ln.Close()
	}
	for _, f := range feeds {
		f.c.Close()
	}
	p.wg.Wait()
	p.srv.SetReplicator(nil)
	return nil
}

func (p *Primary) nowNs() int64 { return time.Since(p.start).Nanoseconds() }

const handshakeTimeout = 10 * time.Second

func (p *Primary) handle(c net.Conn) {
	f := &feed{c: c, filter: -1}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		c.Close()
		return
	}
	p.feeds[f] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.feeds, f)
		p.mu.Unlock()
		c.Close()
		p.broadcastAck() // a SyncAck waiter may now have zero replicas left
	}()

	br := bufio.NewReaderSize(c, 1<<16)
	bw := bufio.NewWriterSize(c, 1<<16)
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	line, err := readLine(br)
	if err != nil {
		return
	}
	shards, helloID, lastLSN, filter, err := parseHello(line)
	if err != nil {
		writeLine(c, bw, err.Error())
		return
	}
	f.filter = filter
	if shards != p.srv.Shards() {
		writeLine(c, bw, fmt.Sprintf("ERR shard count mismatch: primary %d, replica %d", p.srv.Shards(), shards))
		return
	}

	var next uint64
	if helloID == p.id && lastLSN <= p.log.Head() && lastLSN+1 >= p.log.Tail() {
		next = lastLSN + 1
		if !writeLine(c, bw, fmt.Sprintf("RESUME %d %d %d", p.id, next, p.log.Head())) {
			return
		}
	} else {
		p.snapshots.Add(1)
		if helloID != 0 {
			p.resnapshots.Add(1)
		}
		var ok bool
		if next, ok = p.sendSnapshot(c, bw, filter); !ok {
			return
		}
	}
	f.streaming.Store(true)
	c.SetReadDeadline(time.Time{})

	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.ackLoop(f, br)
	}()
	p.stream(f, bw, next, filter)
}

// sendSnapshot streams a full-state bootstrap: the cut is collected into
// memory under Freeze (commits stall only for the copy-out, not for the
// network transfer) and then written out. filter >= 0 restricts the snapshot
// to that shard's pairs (migration feeds). Returns the LSN to tail from.
func (p *Primary) sendSnapshot(c net.Conn, bw *bufio.Writer, filter int) (next uint64, ok bool) {
	type kv struct {
		shard    int
		key, val uint64
	}
	var span0 int64
	if p.rec != nil {
		span0 = p.rec.Now()
	}
	var pairs []kv
	var snapLSN uint64
	err := p.srv.Freeze(func() {
		snapLSN = p.log.Head() // stable: every shard publishes under its combiner lock
		p.srv.RangeAll(func(shard int, key, val uint64) bool {
			if filter < 0 || shard == filter {
				pairs = append(pairs, kv{shard, key, val})
			}
			return true
		})
	})
	if err != nil {
		writeLine(c, bw, "ERR primary closing")
		return 0, false
	}
	p.slog.Info("snapshot bootstrap",
		"peer", c.RemoteAddr().String(), "keys", len(pairs), "lsn", snapLSN)
	c.SetWriteDeadline(time.Now().Add(writeTimeout + time.Duration(len(pairs))*time.Microsecond))
	fmt.Fprintf(bw, "SNAP %d %d %d\n", p.id, snapLSN, len(pairs))
	var buf []byte
	for _, e := range pairs {
		buf = fmt.Appendf(buf[:0], "K %d %d %d\n", e.shard, e.key, e.val)
		if _, err := bw.Write(buf); err != nil {
			return 0, false
		}
	}
	bw.WriteString("SNAPEND\n")
	if bw.Flush() != nil {
		return 0, false
	}
	if p.rec != nil {
		p.rec.Record(obs.Span{Kind: obs.SpanSnapshot, Track: p.strack,
			Start: span0, End: p.rec.Now(), A: uint64(len(pairs)), B: snapLSN})
	}
	return snapLSN + 1, true
}

// ackLoop consumes ACK lines from one replica, advancing its acked LSN for
// lag accounting and SyncAck waiters. Exits (closing the conn, which stops
// the sender) on any read error.
func (p *Primary) ackLoop(f *feed, br *bufio.Reader) {
	defer f.c.Close()
	for {
		f.c.SetReadDeadline(time.Now().Add(10*p.opts.Heartbeat + handshakeTimeout))
		line, err := readLine(br)
		if err != nil {
			return
		}
		fs := fields(line)
		if len(fs) != 2 || string(fs[0]) != "ACK" {
			p.slog.Warn("unexpected replica line",
				"peer", f.c.RemoteAddr().String(), "line", string(clip(line)))
			return
		}
		lsn, err := parseUint(fs[1])
		if err != nil {
			return
		}
		if lsn > f.acked.Load() {
			f.acked.Store(lsn)
		}
		p.broadcastAck()
		if t := p.opts.Tracer; t != nil {
			head := p.log.Head()
			t.ReplAck(p.track, p.nowNs(), lsn, int64(head)-int64(lsn))
		}
	}
}

// stream ships records from next onward, heartbeating when idle. filter >= 0
// narrows the feed to one shard: records are shipped only when they contain
// at least one op for that shard, with other shards' ops stripped (LSNs are
// preserved, so a filtered consumer sees the shard's total order with gaps).
// Returns on connection error, eviction (the replica fell behind the bounded
// log and must re-bootstrap), or Close.
func (p *Primary) stream(f *feed, bw *bufio.Writer, next uint64, filter int) {
	defer f.c.Close()
	hb := time.NewTicker(p.opts.Heartbeat)
	defer hb.Stop()
	var recs []Record
	var fops []WOp
	buf := make([]byte, 0, 1<<16)
	for {
		var ok bool
		recs, ok = p.log.ReadFrom(next, p.opts.BatchRecords, recs)
		if !ok {
			p.evictions.Add(1)
			p.slog.Warn("replica position evicted from log, dropping for re-bootstrap",
				"peer", f.c.RemoteAddr().String(), "lsn", next, "tail", p.log.Tail())
			return
		}
		if len(recs) == 0 {
			wake := p.log.Wake()
			select {
			case <-wake:
				if p.opts.BatchWindow > 0 {
					// Group-commit window for the wire: let more records
					// land before shipping one batch.
					select {
					case <-time.After(p.opts.BatchWindow):
					case <-p.quit:
						return
					}
				}
			case <-hb.C:
				if !writeLine(f.c, bw, fmt.Sprintf("HB %d", p.log.Head())) {
					return
				}
			case <-p.quit:
				return
			}
			continue
		}
		buf = buf[:0]
		shipped := 0
		for _, rec := range recs {
			if filter >= 0 {
				fops = fops[:0]
				for _, op := range rec.Ops {
					if op.Shard == filter {
						fops = append(fops, op)
					}
				}
				if len(fops) == 0 {
					continue
				}
				rec = Record{LSN: rec.LSN, Ops: fops}
			}
			buf = AppendRecord(buf, rec)
			shipped++
		}
		next = recs[len(recs)-1].LSN + 1
		if shipped == 0 {
			// Every record in the batch was filtered out; nothing on the
			// wire, but the cursor still advances past them.
			continue
		}
		if !writeBytes(f.c, bw, buf) {
			return
		}
		if t := p.opts.Tracer; t != nil {
			t.ReplShip(p.track, p.nowNs(), shipped, len(buf), p.log.Head())
		}
	}
}

func (p *Primary) emitStats(emit func(name string, val uint64)) {
	head, tail := p.log.Head(), p.log.Tail()
	var replicas, streaming, migFeeds uint64
	minAcked := ^uint64(0)
	p.mu.Lock()
	for f := range p.feeds {
		replicas++
		if f.streaming.Load() {
			if f.filter >= 0 {
				migFeeds++ // single-shard migration feed: lag not comparable
				continue
			}
			streaming++
			if a := f.acked.Load(); a < minAcked {
				minAcked = a
			}
		}
	}
	p.mu.Unlock()
	if streaming == 0 {
		minAcked = 0
	}
	emit("repl_role_primary", 1)
	emit("repl_migration_feeds", migFeeds)
	emit("repl_head_lsn", head)
	emit("repl_tail_lsn", tail)
	emit("repl_replicas", replicas)
	emit("repl_streaming", streaming)
	emit("repl_min_acked_lsn", minAcked)
	emit("repl_snapshots", p.snapshots.Load())
	emit("repl_resnapshots", p.resnapshots.Load())
	emit("repl_evictions", p.evictions.Load())
	emit("repl_sync_timeouts", p.syncTimeouts.Load())
}

// parseHello parses "HELLO <shards> <primaryID> <lastLSN>" with an optional
// trailing shard filter: "HELLO <shards> <primaryID> <lastLSN> <shard>". A
// filtered feed (used by cluster shard migration) receives only records and
// snapshot pairs touching that one shard. filter is -1 when absent (full
// feed). The returned error's message is a protocol ERR line.
func parseHello(line []byte) (shards int, id, lastLSN uint64, filter int, err error) {
	fs := fields(line)
	if (len(fs) != 4 && len(fs) != 5) || string(fs[0]) != "HELLO" {
		return 0, 0, 0, -1, fmt.Errorf("ERR expected HELLO, got %q", clip(line))
	}
	n, err := parseUint(fs[1])
	if err != nil || n == 0 || n > 1<<16 {
		return 0, 0, 0, -1, fmt.Errorf("ERR bad shard count")
	}
	if id, err = parseUint(fs[2]); err != nil {
		return 0, 0, 0, -1, fmt.Errorf("ERR bad primary id")
	}
	if lastLSN, err = parseUint(fs[3]); err != nil {
		return 0, 0, 0, -1, fmt.Errorf("ERR bad lsn")
	}
	filter = -1
	if len(fs) == 5 {
		f, err := parseUint(fs[4])
		if err != nil || f >= n {
			return 0, 0, 0, -1, fmt.Errorf("ERR bad shard filter")
		}
		filter = int(f)
	}
	return int(n), id, lastLSN, filter, nil
}

const writeTimeout = 10 * time.Second

func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

func writeLine(c net.Conn, bw *bufio.Writer, line string) bool {
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := bw.WriteString(line); err != nil {
		return false
	}
	if err := bw.WriteByte('\n'); err != nil {
		return false
	}
	return bw.Flush() == nil
}

func writeBytes(c net.Conn, bw *bufio.Writer, b []byte) bool {
	c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := bw.Write(b); err != nil {
		return false
	}
	return bw.Flush() == nil
}
