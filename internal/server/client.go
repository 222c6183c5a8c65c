package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// Client is the reference codec for the server's wire protocols — used by
// the load generator, the examples, and tests. It speaks either the text
// protocol or, when dialed with DialProto(..., "binary"), the framed binary
// protocol (see protocol_bin.go). Not safe for concurrent use: one
// goroutine per client, like one connection per client.
//
// Beyond the one-call-one-reply methods, SendOp / Flush / RecvResult expose
// explicit pipelining: queue a window of requests, flush once, then collect
// the replies in send order. On either protocol the server queues a
// buffered window on its shards before committing or answering any of it.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	buf     []byte
	lineBuf []byte // overflow accumulator for readLine (reused)
	fbuf    []byte // binary frame read buffer (reused)
	rbuf    []Result
	ops1    [1]Op
	binary  bool
	// Banner is the server's greeting line (engine, profile, shards).
	Banner string
}

// OpResult is one data operation's parsed reply.
type OpResult struct {
	Status Status
	Val    uint64
	// ModelNs is the request's modeled PM time reported by the server
	// (t=<ns>); -1 when the reply carried none.
	ModelNs int64
	// Snap reports that the server answered from an MVCC snapshot (the
	// text protocol's s=1 marker, or a binary SNAPREPLY frame).
	Snap bool
	// LSN is the published LSN a GETAT reply carried (lsn=<n>); 0 when the
	// reply carried none.
	LSN uint64
}

// Dial connects to a server, retrying for up to timeout (covers the race
// against a server still binding its socket), and reads the banner.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return DialProto(addr, timeout, "text")
}

// DialProto dials with an explicit protocol: "text" (default) or "binary".
func DialProto(addr string, timeout time.Duration, proto string) (*Client, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			return NewClientProto(conn, proto)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server: dialing %s: %w", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// NewClient wraps an established connection (e.g. one end of a net.Pipe)
// and reads the banner.
func NewClient(conn net.Conn) (*Client, error) {
	return NewClientProto(conn, "text")
}

// NewClientProto wraps an established connection with an explicit protocol.
func NewClientProto(conn net.Conn, proto string) (*Client, error) {
	c := &Client{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	switch proto {
	case "", "text":
	case "binary":
		c.binary = true
	default:
		conn.Close()
		return nil, fmt.Errorf("server: unknown protocol %q (want text or binary)", proto)
	}
	line, err := c.readLine()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("server: reading banner: %w", err)
	}
	c.Banner = string(line)
	if !strings.HasPrefix(c.Banner, "SPECPMT ") {
		conn.Close()
		return nil, fmt.Errorf("server: unexpected banner %q", c.Banner)
	}
	if c.binary {
		// The version byte rides the first request's flush.
		c.bw.WriteByte(BinVersion)
	}
	return c, nil
}

// Proto returns the wire protocol this client negotiated with the server:
// "text" or "binary".
func (c *Client) Proto() string {
	if c.binary {
		return "binary"
	}
	return "text"
}

// Close sends QUIT (best effort) and closes the connection.
func (c *Client) Close() error {
	if c.binary {
		c.buf = appendSimpleFrame(c.buf[:0], binFQuit)
		c.bw.Write(c.buf)
		c.bw.Flush()
		c.conn.SetReadDeadline(time.Now().Add(time.Second))
		readFrame(c.br, &c.fbuf) // BYE
		return c.conn.Close()
	}
	c.bw.WriteString("QUIT\n")
	c.bw.Flush()
	c.conn.SetReadDeadline(time.Now().Add(time.Second))
	c.readLine() // BYE
	return c.conn.Close()
}

// readLine reads one newline-terminated line without allocating per call:
// the fast path returns a slice of the reader's buffer, and lines longer
// than the buffer accumulate into a reusable overflow buffer. The returned
// slice is valid until the next read.
func (c *Client) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		c.lineBuf = append(c.lineBuf[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = c.br.ReadSlice('\n')
			c.lineBuf = append(c.lineBuf, line...)
		}
		line = c.lineBuf
	}
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

func (c *Client) do(op Op) (OpResult, error) {
	if err := c.SendOp(op); err != nil {
		return OpResult{}, err
	}
	return c.RecvResult()
}

// SendOp queues one single-op request without reading its reply — the
// pipelining half of the codec. Replies must be collected with RecvResult
// in send order; do not interleave with Exec/Stats/Ping while replies are
// outstanding.
func (c *Client) SendOp(op Op) error {
	if c.binary {
		c.ops1[0] = op
		b, err := AppendOpsFrame(c.buf[:0], c.ops1[:])
		if err != nil {
			return err
		}
		c.buf = b
	} else {
		c.buf = AppendCommand(c.buf[:0], op)
	}
	_, err := c.bw.Write(c.buf)
	return err
}

// Flush pushes queued requests to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// RecvResult reads the next single-op reply (flushing queued requests
// first).
func (c *Client) RecvResult() (OpResult, error) {
	if err := c.bw.Flush(); err != nil {
		return OpResult{}, err
	}
	if c.binary {
		return c.recvBinResult()
	}
	line, err := c.readLine()
	if err != nil {
		return OpResult{}, err
	}
	return parseOpResult(line)
}

func (c *Client) recvBinResult() (OpResult, error) {
	payload, err := readFrame(c.br, &c.fbuf)
	if err != nil {
		return OpResult{}, err
	}
	if len(payload) > 0 && payload[0] == binFErr {
		return OpResult{}, fmt.Errorf("server error: %s", payload[1:])
	}
	if len(payload) > 0 && payload[0] == binFMoved {
		mv, merr := decodeMovedFrame(payload)
		if merr != nil {
			return OpResult{}, merr
		}
		return OpResult{}, mv
	}
	var modelNs int64
	var snap bool
	c.rbuf, modelNs, snap, err = DecodeReplyFrame(payload, c.rbuf[:0])
	if err != nil {
		return OpResult{}, err
	}
	if len(c.rbuf) != 1 {
		return OpResult{}, fmt.Errorf("server: %d results for one op", len(c.rbuf))
	}
	return OpResult{Status: c.rbuf[0].Status, Val: c.rbuf[0].Val, ModelNs: modelNs, Snap: snap}, nil
}

// Get fetches key. Status is StatusValue or StatusNotFound.
func (c *Client) Get(key uint64) (OpResult, error) {
	return c.do(Op{Kind: OpGet, Key: key})
}

// Set stores key=val.
func (c *Client) Set(key, val uint64) (OpResult, error) {
	return c.do(Op{Kind: OpSet, Key: key, Arg1: val})
}

// Del removes key. Status is StatusOK or StatusNotFound.
func (c *Client) Del(key uint64) (OpResult, error) {
	return c.do(Op{Kind: OpDel, Key: key})
}

// CAS atomically replaces key's value with new if it currently equals old.
// Status is StatusOK, StatusConflict (Val holds the current value), or
// StatusNotFound.
func (c *Client) CAS(key, old, new uint64) (OpResult, error) {
	return c.do(Op{Kind: OpCAS, Key: key, Arg1: old, Arg2: new})
}

// GetAt fetches key with a read-your-writes LSN token (text protocol only):
// the server parks the read until its published LSN reaches token, then
// serves it from a snapshot at least that fresh. The reply's LSN field
// carries the published LSN observed — the refreshed session token.
func (c *Client) GetAt(key, token uint64) (OpResult, error) {
	if c.binary {
		return OpResult{}, fmt.Errorf("server: GETAT requires the text protocol")
	}
	c.buf = append(c.buf[:0], "GETAT "...)
	c.buf = strconv.AppendUint(c.buf, key, 10)
	c.buf = append(c.buf, ' ')
	c.buf = strconv.AppendUint(c.buf, token, 10)
	c.buf = append(c.buf, '\n')
	if _, err := c.bw.Write(c.buf); err != nil {
		return OpResult{}, err
	}
	return c.RecvResult()
}

// LSN fetches the server's published-LSN watermark — the session token a
// client carries to GETAT on a replica for read-your-writes (text protocol
// only).
func (c *Client) LSN() (uint64, error) {
	if c.binary {
		return 0, fmt.Errorf("server: LSN requires the text protocol")
	}
	c.bw.WriteString("LSN\n")
	if err := c.bw.Flush(); err != nil {
		return 0, err
	}
	line, err := c.readLine()
	if err != nil {
		return 0, err
	}
	fields := bytes.Fields(line)
	if len(fields) != 2 || string(fields[0]) != "LSN" {
		return 0, fmt.Errorf("server: unexpected LSN reply %q", line)
	}
	return strconv.ParseUint(string(fields[1]), 10, 64)
}

// Exec runs ops as ONE transaction — a single multi-op frame on the binary
// protocol, MULTI...EXEC on text — returning one result per op and the
// transaction's modeled time.
func (c *Client) Exec(ops []Op) ([]OpResult, int64, error) {
	if c.binary {
		b, err := AppendOpsFrame(c.buf[:0], ops)
		if err != nil {
			return nil, 0, err
		}
		c.buf = b
		if _, err := c.bw.Write(c.buf); err != nil {
			return nil, 0, err
		}
		if err := c.bw.Flush(); err != nil {
			return nil, 0, err
		}
		payload, err := readFrame(c.br, &c.fbuf)
		if err != nil {
			return nil, 0, err
		}
		if len(payload) > 0 && payload[0] == binFErr {
			return nil, 0, fmt.Errorf("server error: %s", payload[1:])
		}
		if len(payload) > 0 && payload[0] == binFMoved {
			mv, merr := decodeMovedFrame(payload)
			if merr != nil {
				return nil, 0, merr
			}
			return nil, 0, mv
		}
		var modelNs int64
		var snap bool
		c.rbuf, modelNs, snap, err = DecodeReplyFrame(payload, c.rbuf[:0])
		if err != nil {
			return nil, 0, err
		}
		results := make([]OpResult, len(c.rbuf))
		for i, r := range c.rbuf {
			results[i] = OpResult{Status: r.Status, Val: r.Val, ModelNs: -1, Snap: snap}
		}
		return results, modelNs, nil
	}
	c.bw.WriteString("MULTI\n")
	for _, op := range ops {
		c.buf = AppendCommand(c.buf[:0], op)
		c.bw.Write(c.buf)
	}
	c.bw.WriteString("EXEC\n")
	if err := c.bw.Flush(); err != nil {
		return nil, 0, err
	}
	if err := c.expect("OK"); err != nil {
		return nil, 0, fmt.Errorf("MULTI: %w", err)
	}
	for range ops {
		if err := c.expect("QUEUED"); err != nil {
			return nil, 0, fmt.Errorf("queueing: %w", err)
		}
	}
	head, err := c.readLine()
	if err != nil {
		return nil, 0, err
	}
	if bytes.HasPrefix(head, []byte("MOVED ")) {
		mv, merr := parseMovedLine(bytes.Fields(head))
		if merr != nil {
			return nil, 0, merr
		}
		return nil, 0, mv
	}
	var n int
	if _, err := fmt.Sscanf(string(head), "RESULTS %d", &n); err != nil {
		return nil, 0, fmt.Errorf("server: unexpected EXEC reply %q", head)
	}
	results := make([]OpResult, 0, n)
	for i := 0; i < n; i++ {
		line, err := c.readLine()
		if err != nil {
			return nil, 0, err
		}
		r, err := parseOpResult(line)
		if err != nil {
			return nil, 0, err
		}
		results = append(results, r)
	}
	end, err := c.readLine()
	if err != nil {
		return nil, 0, err
	}
	var modelNs int64
	if _, err := fmt.Sscanf(string(end), "END t=%d", &modelNs); err != nil {
		return nil, 0, fmt.Errorf("server: unexpected EXEC trailer %q", end)
	}
	return results, modelNs, nil
}

// Stats fetches the server's STATS block as a name -> value map (numeric
// values; engine and profile come back in the "engine"/"profile" keys of
// the second map).
func (c *Client) Stats() (map[string]uint64, map[string]string, error) {
	nums := map[string]uint64{}
	strs := map[string]string{}
	if c.binary {
		c.buf = appendSimpleFrame(c.buf[:0], binFStats)
		if _, err := c.bw.Write(c.buf); err != nil {
			return nil, nil, err
		}
		if err := c.bw.Flush(); err != nil {
			return nil, nil, err
		}
		payload, err := readFrame(c.br, &c.fbuf)
		if err != nil {
			return nil, nil, err
		}
		if len(payload) == 0 || payload[0] != binFStatsReply {
			return nil, nil, fmt.Errorf("server: unexpected STATS frame")
		}
		for _, line := range bytes.Split(payload[1:], []byte("\n")) {
			if len(line) == 0 || string(line) == "END" {
				continue
			}
			if err := parseStatsLine(line, nums, strs); err != nil {
				return nil, nil, err
			}
		}
		return nums, strs, nil
	}
	c.bw.WriteString("STATS\n")
	if err := c.bw.Flush(); err != nil {
		return nil, nil, err
	}
	for {
		line, err := c.readLine()
		if err != nil {
			return nil, nil, err
		}
		if string(line) == "END" {
			return nums, strs, nil
		}
		if err := parseStatsLine(line, nums, strs); err != nil {
			return nil, nil, err
		}
	}
}

func parseStatsLine(line []byte, nums map[string]uint64, strs map[string]string) error {
	fields := strings.Fields(string(line))
	if len(fields) != 3 || fields[0] != "STAT" {
		return fmt.Errorf("server: unexpected STATS line %q", line)
	}
	if n, err := strconv.ParseUint(fields[2], 10, 64); err == nil {
		nums[fields[1]] = n
	} else {
		strs[fields[1]] = fields[2]
	}
	return nil
}

// Promote asks a read-only replica to become a writable primary. Admin
// command; text protocol only.
func (c *Client) Promote() error {
	if c.binary {
		return fmt.Errorf("server: PROMOTE requires the text protocol")
	}
	c.bw.WriteString("PROMOTE\n")
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return c.expect("OK")
}

// Ping round-trips a PING.
func (c *Client) Ping() error {
	if c.binary {
		c.buf = appendSimpleFrame(c.buf[:0], binFPing)
		if _, err := c.bw.Write(c.buf); err != nil {
			return err
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		payload, err := readFrame(c.br, &c.fbuf)
		if err != nil {
			return err
		}
		if len(payload) != 1 || payload[0] != binFPong {
			return fmt.Errorf("server: unexpected PING reply frame")
		}
		return nil
	}
	c.bw.WriteString("PING\n")
	if err := c.bw.Flush(); err != nil {
		return err
	}
	return c.expect("PONG")
}

func (c *Client) expect(want string) error {
	line, err := c.readLine()
	if err != nil {
		return err
	}
	if string(line) != want {
		return fmt.Errorf("server: got %q, want %q", line, want)
	}
	return nil
}

// parseOpResult decodes a single-op reply line: OK / VALUE v / NOTFOUND /
// CONFLICT cur, each optionally followed by the trailers s=1 (snapshot
// read), lsn=<n> (GETAT published LSN), and t=<ns>, in that order.
func parseOpResult(line []byte) (OpResult, error) {
	r := OpResult{ModelNs: -1}
	rest := line
	if i := bytes.LastIndex(rest, []byte(" t=")); i >= 0 {
		ns, err := strconv.ParseInt(string(rest[i+3:]), 10, 64)
		if err == nil {
			r.ModelNs = ns
			rest = rest[:i]
		}
	}
	if i := bytes.LastIndex(rest, []byte(" lsn=")); i >= 0 {
		lsn, err := strconv.ParseUint(string(rest[i+5:]), 10, 64)
		if err == nil {
			r.LSN = lsn
			rest = rest[:i]
		}
	}
	if bytes.HasSuffix(rest, []byte(" s=1")) {
		r.Snap = true
		rest = rest[:len(rest)-4]
	}
	fields := bytes.Fields(rest)
	if len(fields) == 0 {
		return r, fmt.Errorf("server: empty reply")
	}
	switch string(fields[0]) {
	case "OK":
		r.Status = StatusOK
		return r, nil
	case "NOTFOUND":
		r.Status = StatusNotFound
		return r, nil
	case "VALUE":
		if len(fields) != 2 {
			return r, fmt.Errorf("server: malformed VALUE reply %q", line)
		}
		v, err := strconv.ParseUint(string(fields[1]), 10, 64)
		if err != nil {
			return r, fmt.Errorf("server: malformed VALUE reply %q", line)
		}
		r.Status, r.Val = StatusValue, v
		return r, nil
	case "CONFLICT":
		if len(fields) != 2 {
			return r, fmt.Errorf("server: malformed CONFLICT reply %q", line)
		}
		v, err := strconv.ParseUint(string(fields[1]), 10, 64)
		if err != nil {
			return r, fmt.Errorf("server: malformed CONFLICT reply %q", line)
		}
		r.Status, r.Val = StatusConflict, v
		return r, nil
	case "ERR":
		return r, fmt.Errorf("server error: %s", bytes.TrimSpace(rest))
	case "MOVED":
		mv, err := parseMovedLine(fields)
		if err != nil {
			return r, err
		}
		return r, mv
	}
	return r, fmt.Errorf("server: unexpected reply %q", line)
}

// parseMovedLine decodes the fields of "MOVED <shard> <epoch> <addr>" into
// the typed redirect error.
func parseMovedLine(fields [][]byte) (*MovedError, error) {
	if len(fields) != 4 {
		return nil, fmt.Errorf("server: malformed MOVED reply")
	}
	shard, err1 := strconv.ParseInt(string(fields[1]), 10, 32)
	epoch, err2 := strconv.ParseUint(string(fields[2]), 10, 64)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("server: malformed MOVED reply")
	}
	return &MovedError{Shard: int(shard), Epoch: epoch, Addr: string(fields[3])}, nil
}
