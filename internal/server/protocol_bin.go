package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
)

// Binary wire protocol.
//
// The banner is always the text line. A client selects the binary protocol
// by sending the version byte 0xB1 as its very first byte; everything after
// it, in both directions, is length-prefixed frames:
//
//	u32le payload-length | payload
//
// The payload's first byte is the frame type; requests are 0x0x, replies
// 0x8x (plus 0xFF for an in-band error reply):
//
//	type              payload after the type byte
//	0x01 OPS          u8 n, then n packed ops (one transaction when n > 1):
//	                    GET/DEL: u8 kind, u64le key              (9 bytes)
//	                    SET:     u8 kind, u64le key, u64le val   (17 bytes)
//	                    CAS:     u8 kind, u64le key, u64le old,
//	                             u64le new                       (25 bytes)
//	0x02 PING         (empty)
//	0x03 STATS        (empty)
//	0x04 QUIT         (empty)
//	0x81 REPLY        u8 n, then n of [u8 status, u64le val],
//	                  then u64le modeled-ns (two's-complement int64)
//	0x82 PONG         (empty)
//	0x83 STATSREPLY   the STATS text block verbatim
//	0x84 BYE          (empty)
//	0x85 MOVED        u32le shard | u64le map epoch | owner address bytes —
//	                  the OPS it answers touched a shard owned by another
//	                  cluster node; refresh the map and retry there
//	0x86 SNAPREPLY    same payload as 0x81 REPLY; the frame type itself
//	                  marks every result as served from an MVCC snapshot
//	                  (modeled-ns is 0: no persistent structure was touched)
//	0xFF ERR          human-readable message (the request it answers
//	                  failed; the connection stays usable)
//
// Integers are little-endian and fixed-width, so a decode is a handful of
// direct loads out of the connection's pooled read buffer — no
// tokenization, no string allocation, no copies of keys or values. Framing
// violations (bad length prefix, unknown type, truncated or oversized
// body, trailing bytes) poison the stream and close the connection;
// application-level failures travel as 0xFF replies.
const (
	// BinVersion is the protocol version byte a client sends first to
	// select the binary protocol (and its frame-format version).
	BinVersion = 0xB1
	// MaxFrameLen bounds one frame's payload (a full 128-op CAS MULTI is
	// 3202 bytes; STATS replies are the big ones).
	MaxFrameLen = 64 << 10

	frameHdrLen = 4
	binReadBuf  = 8 << 10 // connection read-buffer; holds a window of frames
)

// Frame type bytes.
const (
	binFOps        = 0x01
	binFPing       = 0x02
	binFStats      = 0x03
	binFQuit       = 0x04
	binFReply      = 0x81
	binFPong       = 0x82
	binFStatsReply = 0x83
	binFBye        = 0x84
	binFMoved      = 0x85
	binFSnapReply  = 0x86
	binFErr        = 0xFF
)

var (
	errBadFrame      = errors.New("malformed frame")
	errFrameTooLarge = errors.New("frame exceeds MaxFrameLen")
	errTruncFrame    = errors.New("truncated frame body")
	errBadOpKind     = errors.New("unknown op kind in frame")
	errTooManyOps    = errors.New("too many ops in frame")
)

// readFrame reads one length-prefixed frame, growing *buf as needed and
// returning the payload as a slice of it — valid until the next call with
// the same buffer.
func readFrame(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n == 0 {
		return nil, errBadFrame
	}
	if n > MaxFrameLen {
		return nil, errFrameTooLarge
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	if _, err := io.ReadFull(br, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errTruncFrame
		}
		return nil, err
	}
	return b, nil
}

// peekFrame returns the next frame's payload and its length on the wire
// without consuming it, when the whole frame already sits in br's buffer —
// it never blocks. payload is nil when no complete frame is buffered; a
// buffered but invalid length prefix is an error. The payload aliases br's
// buffer and is valid until the next read; br.Discard(n) consumes the frame.
func peekFrame(br *bufio.Reader) (payload []byte, n int, err error) {
	if br.Buffered() < frameHdrLen {
		return nil, 0, nil
	}
	hdr, _ := br.Peek(frameHdrLen)
	size := int(binary.LittleEndian.Uint32(hdr))
	switch {
	case size == 0:
		return nil, 0, errBadFrame
	case size > MaxFrameLen:
		return nil, 0, errFrameTooLarge
	case br.Buffered() < frameHdrLen+size:
		return nil, 0, nil
	}
	b, _ := br.Peek(frameHdrLen + size)
	return b[frameHdrLen:], frameHdrLen + size, nil
}

// opWireLen returns the packed size of one op (0 for an unknown kind).
func opWireLen(k OpKind) int {
	switch k {
	case OpGet, OpDel:
		return 9
	case OpSet:
		return 17
	case OpCAS:
		return 25
	}
	return 0
}

// AppendOpsFrame appends one framed OPS request (header included) to dst.
// 1..MaxMultiOps ops; more than one op commits as a single transaction.
func AppendOpsFrame(dst []byte, ops []Op) ([]byte, error) {
	if len(ops) == 0 || len(ops) > MaxMultiOps {
		return dst, errTooManyOps
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, binFOps, byte(len(ops)))
	for _, op := range ops {
		n := opWireLen(op.Kind)
		if n == 0 {
			return dst[:start], errBadOpKind
		}
		dst = append(dst, byte(op.Kind))
		dst = binary.LittleEndian.AppendUint64(dst, op.Key)
		if n >= 17 {
			dst = binary.LittleEndian.AppendUint64(dst, op.Arg1)
		}
		if n == 25 {
			dst = binary.LittleEndian.AppendUint64(dst, op.Arg2)
		}
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHdrLen))
	return dst, nil
}

// DecodeOpsFrame decodes an OPS payload (type byte included), appending to
// ops. Every integer is read in place; nothing is allocated or copied.
func DecodeOpsFrame(payload []byte, ops []Op) ([]Op, error) {
	if len(payload) < 2 || payload[0] != binFOps {
		return ops, errBadFrame
	}
	n := int(payload[1])
	if n == 0 || n > MaxMultiOps {
		return ops, errTooManyOps
	}
	p := 2
	for i := 0; i < n; i++ {
		if p >= len(payload) {
			return ops, errTruncFrame
		}
		kind := OpKind(payload[p])
		need := opWireLen(kind)
		if need == 0 {
			return ops, errBadOpKind
		}
		if len(payload)-p < need {
			return ops, errTruncFrame
		}
		op := Op{Kind: kind, Key: binary.LittleEndian.Uint64(payload[p+1:])}
		if need >= 17 {
			op.Arg1 = binary.LittleEndian.Uint64(payload[p+9:])
		}
		if need == 25 {
			op.Arg2 = binary.LittleEndian.Uint64(payload[p+17:])
		}
		ops = append(ops, op)
		p += need
	}
	if p != len(payload) {
		return ops, errBadFrame // trailing bytes
	}
	return ops, nil
}

// AppendReplyFrame appends one framed REPLY (header included) to dst.
func AppendReplyFrame(dst []byte, results []Result, modelNs int64) []byte {
	return appendReplyFrameTyped(dst, binFReply, results, modelNs)
}

// AppendSnapReplyFrame appends one framed SNAPREPLY — a REPLY whose frame
// type marks the results as served from an MVCC snapshot.
func AppendSnapReplyFrame(dst []byte, results []Result) []byte {
	return appendReplyFrameTyped(dst, binFSnapReply, results, 0)
}

func appendReplyFrameTyped(dst []byte, typ byte, results []Result, modelNs int64) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, typ, byte(len(results)))
	for _, r := range results {
		dst = append(dst, byte(r.Status))
		dst = binary.LittleEndian.AppendUint64(dst, r.Val)
	}
	dst = binary.LittleEndian.AppendUint64(dst, uint64(modelNs))
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHdrLen))
	return dst
}

// DecodeReplyFrame decodes a REPLY or SNAPREPLY payload, appending to
// results. snap reports which of the two it was.
func DecodeReplyFrame(payload []byte, results []Result) (_ []Result, modelNs int64, snap bool, _ error) {
	if len(payload) < 2 || (payload[0] != binFReply && payload[0] != binFSnapReply) {
		return results, 0, false, errBadFrame
	}
	snap = payload[0] == binFSnapReply
	n := int(payload[1])
	p := 2
	for i := 0; i < n; i++ {
		if len(payload)-p < 9 {
			return results, 0, snap, errTruncFrame
		}
		results = append(results, Result{
			Status: Status(payload[p]),
			Val:    binary.LittleEndian.Uint64(payload[p+1:]),
		})
		p += 9
	}
	if len(payload)-p != 8 {
		return results, 0, snap, errBadFrame
	}
	modelNs = int64(binary.LittleEndian.Uint64(payload[p:]))
	return results, modelNs, snap, nil
}

// appendSimpleFrame appends a framed empty-body reply of the given type.
func appendSimpleFrame(dst []byte, typ byte) []byte {
	return append(dst, 1, 0, 0, 0, typ)
}

// appendMsgFrame appends a framed reply whose body is msg (ERR and
// STATSREPLY frames).
func appendMsgFrame(dst []byte, typ byte, msg []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+len(msg)))
	dst = append(dst, typ)
	return append(dst, msg...)
}

// appendMovedFrame appends a framed MOVED redirect.
func appendMovedFrame(dst []byte, mv *Moved) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+4+8+len(mv.Addr)))
	dst = append(dst, binFMoved)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(mv.Shard))
	dst = binary.LittleEndian.AppendUint64(dst, mv.Epoch)
	return append(dst, mv.Addr...)
}

// decodeMovedFrame decodes a MOVED payload (type byte included) into the
// client-side error form.
func decodeMovedFrame(payload []byte) (*MovedError, error) {
	if len(payload) < 1+4+8 || payload[0] != binFMoved {
		return nil, errBadFrame
	}
	return &MovedError{
		Shard: int(binary.LittleEndian.Uint32(payload[1:])),
		Epoch: binary.LittleEndian.Uint64(payload[5:]),
		Addr:  string(payload[13:]),
	}, nil
}
