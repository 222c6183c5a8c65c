package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// This file is the benchmark's own client for the server's two wire
// protocols (GET, SET and STATS only). It shares no code with
// internal/server on purpose: a refactor there cannot change what the
// benchmark sends or how it times a reply. Sending and receiving are split
// so that one goroutine can write requests on a schedule while another
// blocks on replies; the only shared state is the socket.

const (
	opGet uint8 = 0 // the wire's op-kind bytes
	opSet uint8 = 1

	stOK       uint8 = 0 // the wire's status bytes
	stValue    uint8 = 1
	stNotFound uint8 = 2
	stErr      uint8 = 4

	binVersion  = 0xB1
	frameOps    = 0x01
	frameStats  = 0x03
	frameReply  = 0x81
	frameStatsR = 0x83
	frameSnapR  = 0x86
	frameErr    = 0xFF
	maxFrame    = 64 << 10

	replyTimeout = 2 * time.Second // a later reply counts as failed
)

// op is one generated request. val is the value a SET stores.
type op struct {
	kind     uint8
	key, val uint64
}

// reply is one decoded response. snap marks a read served from an MVCC
// snapshot.
type reply struct {
	status uint8
	val    uint64
	snap   bool
}

type wireConn struct {
	c      net.Conn
	br     *bufio.Reader
	binary bool
	frame  []byte // receiver-owned payload buffer
}

// dialWire connects, reads the banner and, for binary, selects the protocol.
func dialWire(addr string, bin bool) (*wireConn, string, error) {
	c, err := net.DialTimeout("tcp", addr, replyTimeout)
	if err != nil {
		return nil, "", err
	}
	w := &wireConn{c: c, br: bufio.NewReaderSize(c, 16<<10), binary: bin}
	c.SetReadDeadline(time.Now().Add(replyTimeout))
	banner, err := w.br.ReadString('\n')
	if err == nil && !strings.HasPrefix(banner, "SPECPMT ") {
		err = fmt.Errorf("unexpected banner %q", banner)
	}
	if err == nil && bin {
		_, err = c.Write([]byte{binVersion})
	}
	if err != nil {
		c.Close()
		return nil, "", fmt.Errorf("dial %s: %w", addr, err)
	}
	return w, strings.TrimSpace(banner), nil
}

func (w *wireConn) close() { w.c.Close() }

// appendOp encodes one request in the chosen protocol.
func appendOp(dst []byte, bin bool, o op) []byte {
	if bin {
		n := 1 + 1 + 9
		if o.kind == opSet {
			n += 8
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
		dst = append(dst, frameOps, 1, o.kind)
		dst = binary.LittleEndian.AppendUint64(dst, o.key)
		if o.kind == opSet {
			dst = binary.LittleEndian.AppendUint64(dst, o.val)
		}
		return dst
	}
	if o.kind == opSet {
		dst = append(dst, "SET "...)
		dst = strconv.AppendUint(dst, o.key, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, o.val, 10)
	} else {
		dst = append(dst, "GET "...)
		dst = strconv.AppendUint(dst, o.key, 10)
	}
	return append(dst, '\n')
}

// send writes already encoded requests with one system call. Sender side.
func (w *wireConn) send(b []byte) error {
	_, err := w.c.Write(b)
	return err
}

// recv blocks for the next raw reply (a text line or a frame payload) and
// returns it undecoded, so a caller can time waiting apart from decoding.
// The slice is valid until the next recv. Receiver side.
func (w *wireConn) recv() ([]byte, error) {
	if w.br.Buffered() == 0 {
		w.c.SetReadDeadline(time.Now().Add(replyTimeout))
	}
	if !w.binary {
		line, err := w.br.ReadSlice('\n')
		if err != nil {
			return nil, err
		}
		return line[:len(line)-1], nil
	}
	var hdr [4]byte
	if _, err := io.ReadFull(w.br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("bad frame length %d", n)
	}
	if cap(w.frame) < n {
		w.frame = make([]byte, n)
	}
	w.frame = w.frame[:n]
	if _, err := io.ReadFull(w.br, w.frame); err != nil {
		return nil, err
	}
	return w.frame, nil
}

var errBadReply = errors.New("malformed reply")

// decodeReply parses what recv returned for a one-op request.
func decodeReply(raw []byte, bin bool) (reply, error) {
	if bin {
		switch {
		case len(raw) > 0 && raw[0] == frameErr:
			return reply{status: stErr}, nil
		case len(raw) != 2+9+8 || raw[1] != 1 || (raw[0] != frameReply && raw[0] != frameSnapR):
			return reply{}, errBadReply
		}
		return reply{status: raw[2], val: binary.LittleEndian.Uint64(raw[3:]), snap: raw[0] == frameSnapR}, nil
	}
	// "OK t=1", "VALUE 7 s=1 t=0", "NOTFOUND t=3", "ERR why"
	word, rest := raw, []byte(nil)
	for i, c := range raw {
		if c == ' ' {
			word, rest = raw[:i], raw[i+1:]
			break
		}
	}
	var r reply
	switch string(word) {
	case "OK":
		r.status = stOK
	case "NOTFOUND":
		r.status = stNotFound
	case "VALUE":
		r.status = stValue
		i := 0
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			r.val = r.val*10 + uint64(rest[i]-'0')
			i++
		}
		if i == 0 {
			return reply{}, errBadReply
		}
		rest = rest[i:]
	case "ERR", "MOVED":
		return reply{status: stErr}, nil
	default:
		return reply{}, errBadReply
	}
	r.snap = bytes.HasPrefix(bytes.TrimLeft(rest, " "), []byte("s=1"))
	return r, nil
}

// stats fetches the STATS block as name → value. The connection must be
// otherwise idle. Non-numeric stats (engine, profile) are dropped.
func (w *wireConn) stats() (map[string]float64, error) {
	req := []byte("STATS\n")
	if w.binary {
		req = []byte{1, 0, 0, 0, frameStats}
	}
	if err := w.send(req); err != nil {
		return nil, err
	}
	var text string
	if w.binary {
		raw, err := w.recv()
		if err != nil {
			return nil, err
		}
		if len(raw) == 0 || raw[0] != frameStatsR {
			return nil, errBadReply
		}
		text = string(raw[1:])
	} else {
		var sb strings.Builder
		for {
			line, err := w.recv()
			if err != nil {
				return nil, err
			}
			if string(line) == "END" {
				break
			}
			sb.Write(line)
			sb.WriteByte('\n')
		}
		text = sb.String()
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "STAT" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				out[f[1]] = v
			}
		}
	}
	if len(out) == 0 {
		return nil, errBadReply
	}
	return out, nil
}
