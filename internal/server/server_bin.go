package server

// binCodec is the binary protocol (protocol_bin.go): length-prefixed frames
// in, reply frames out.
type binCodec struct {
	s   *Server
	ops []Op   // the last OPS frame's ops
	out []byte // inline replies
}

func (b *binCodec) decode(buf []byte, full bool) (request, int) {
	payload, n, err := splitFrame(buf)
	if err == nil && payload == nil {
		if !full {
			return request{}, 0
		}
		// No valid request outgrows the read buffer.
		err = errBadFrame
	}
	if err != nil {
		return b.poison(err), len(buf)
	}
	b.s.binFrames.Add(1)
	switch typ := payload[0]; {
	case typ == binFOps:
		ops, err := DecodeOpsFrame(payload, b.ops[:0])
		if err != nil {
			return b.poison(err), n
		}
		b.ops = ops
		return request{ops: ops, multi: len(ops) > 1}, n
	case len(payload) != 1:
	case typ == binFPing:
		return b.inline(binFPong), n
	case typ == binFQuit:
		return request{kind: reqReply, reply: appendSimpleFrame(nil, binFBye), quit: true}, n
	case typ == binFStats:
		return request{kind: reqBarrier, verb: VerbStats}, n
	}
	return b.poison(errBadFrame), n
}

// barrier runs the binary protocol's one barrier verb, STATS.
func (b *binCodec) barrier(request) (request, error) {
	b.out = appendMsgFrame(b.out[:0], binFStatsReply, b.s.appendStats(nil))
	return request{kind: reqReply, reply: b.out}, nil
}

func (b *binCodec) inline(typ byte) request {
	b.out = appendSimpleFrame(b.out[:0], typ)
	return request{kind: reqReply, reply: b.out}
}

// poison answers a framing violation with an ERR frame and hangs up.
func (b *binCodec) poison(err error) request {
	b.s.protoErrs.Add(1)
	b.out = b.appendErr(b.out[:0], err.Error())
	return request{kind: reqReply, reply: b.out, quit: true}
}

func (b *binCodec) appendResults(dst []byte, _ bool, res []Result, modelNs int64, snap bool, _ uint64) []byte {
	if snap {
		return AppendSnapReplyFrame(dst, res)
	}
	return AppendReplyFrame(dst, res, modelNs)
}

func (b *binCodec) appendMoved(dst []byte, mv *Moved) []byte { return appendMovedFrame(dst, mv) }

func (b *binCodec) appendErr(dst []byte, msg string) []byte {
	return appendMsgFrame(dst, binFErr, []byte(msg))
}
