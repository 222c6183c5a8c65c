// Package server is a network front end for the SpecPMT engines: a TCP
// server speaking a small line-oriented protocol over a sharded, threaded
// persistent pool. Each shard owns one engine thread and one shard of a
// persistent hash map; requests are routed to shards by key hash, and the
// connection handler that queued a request commits it, together with
// whatever else is queued on the shard, as one transaction under the
// shard's combiner lock — never waiting for more, so the commit fence
// amortizes across overlapping requests — the server-side analogue of the
// paper's single-fence commit argument.
//
// # Wire protocol
//
// One command per line, fields separated by spaces, keys and values are
// decimal uint64. On connect the server sends a banner:
//
//	SPECPMT 1 engine=SpecSPMT profile=optane-adr shards=4
//
// Commands and their replies (t=<ns> is the request's modeled PM time):
//
//	GET k            VALUE <v> t=<ns> | NOTFOUND t=<ns>
//	SET k v          OK t=<ns>
//	DEL k            OK t=<ns> | NOTFOUND t=<ns>
//	CAS k old new    OK t=<ns> | CONFLICT <cur> t=<ns> | NOTFOUND t=<ns>
//	MULTI            OK            (then queue GET/SET/DEL/CAS -> QUEUED)
//	EXEC             RESULTS <n>, n result lines, END t=<ns>
//	DISCARD          OK
//	LSN              LSN <published-lsn>   (read-your-writes session token)
//	GETAT k token    as GET, plus lsn=<published> — waits until the
//	                 published LSN reaches token (ERR on timeout)
//	STATS            STAT <name> <value> lines, then END
//	PING             PONG
//	PROMOTE          OK (replica becomes writable) | ERR not a replica
//	QUIT             BYE (server closes the connection)
//	anything else    ERR <message>
//
// Replies served from an MVCC snapshot (never from a shard queue) carry
// an s=1 marker before the t= trailer; their modeled PM time is 0 because
// the read touched no persistent structure.
//
// A read-only replica (see internal/repl) answers ERR read-only replica to
// SET/DEL/CAS and to EXEC blocks containing one.
//
// A clustered server (see internal/cluster) answers
//
//	MOVED <shard> <epoch> <addr>
//
// to any data command (or EXEC block) touching a shard it does not own —
// the client should refresh its cluster map and retry against <addr> — and
// registers extension admin verbs (CLUSTER, CLUSTERSET, MIGPULL, ...)
// through Server.OnExtCommand; unknown verbs are offered to that hook
// before becoming ERR.
//
// A MULTI...EXEC block executes as ONE transaction — all its operations
// commit atomically, even when the keys live on different shards.
//
// Requests may be pipelined: replies come back in request order. LSN,
// GETAT, STATS, PROMOTE and extension verbs wait for every reply ahead of
// them before they run.
package server

import (
	"fmt"
	"strconv"
)

// OpKind enumerates the data operations.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpSet
	OpDel
	OpCAS
)

func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "GET"
	case OpSet:
		return "SET"
	case OpDel:
		return "DEL"
	case OpCAS:
		return "CAS"
	}
	return "?"
}

// Op is one data operation. SET uses Arg1 as the value; CAS uses Arg1 as
// the expected old value and Arg2 as the new one.
type Op struct {
	Kind            OpKind
	Key, Arg1, Arg2 uint64
}

// Verb enumerates the protocol commands.
type Verb uint8

const (
	VerbOp Verb = iota // GET/SET/DEL/CAS — see Command.Op
	VerbMulti
	VerbExec
	VerbDiscard
	VerbStats
	VerbPing
	VerbQuit
	VerbPromote
	VerbGetAt // GET at-or-after an LSN token — see Command.Op (Arg1 = token)
	VerbLSN
)

// Command is one parsed protocol line.
type Command struct {
	Verb Verb
	Op   Op
}

// MaxLineLen bounds a protocol line; longer lines are a protocol error and
// close the connection. Sized for one-line cluster-map pushes (CLUSTERSET
// with 16 shard=addr/addr tokens), with headroom.
const MaxLineLen = 4096

// MaxMultiOps bounds the operations queueable in one MULTI block.
const MaxMultiOps = 128

// Status is a data operation's outcome.
type Status uint8

const (
	StatusOK Status = iota
	StatusValue
	StatusNotFound
	StatusConflict
	StatusErr
)

// Result is one data operation's reply.
type Result struct {
	Status Status
	Val    uint64 // VALUE payload, or the current value on CONFLICT
}

// ParseCommand parses one protocol line (without its trailing newline).
// Verbs are case-insensitive; numbers are decimal uint64. A valid command
// parses without allocating: its fields are sliced into a fixed array.
func ParseCommand(line []byte) (Command, error) {
	var fields [4][]byte
	n := splitInto(fields[:], line)
	if n == 0 {
		return Command{}, fmt.Errorf("empty command")
	}
	verb := fields[0]
	args := fields[1:min(n, len(fields))]
	nargs := n - 1
	switch {
	case verbIs(verb, "GET"):
		return opCommand(OpGet, args, nargs, 1)
	case verbIs(verb, "SET"):
		return opCommand(OpSet, args, nargs, 2)
	case verbIs(verb, "DEL"):
		return opCommand(OpDel, args, nargs, 1)
	case verbIs(verb, "CAS"):
		return opCommand(OpCAS, args, nargs, 3)
	case verbIs(verb, "MULTI"):
		return bareCommand(VerbMulti, nargs)
	case verbIs(verb, "EXEC"):
		return bareCommand(VerbExec, nargs)
	case verbIs(verb, "DISCARD"):
		return bareCommand(VerbDiscard, nargs)
	case verbIs(verb, "STATS"):
		return bareCommand(VerbStats, nargs)
	case verbIs(verb, "PING"):
		return bareCommand(VerbPing, nargs)
	case verbIs(verb, "QUIT"):
		return bareCommand(VerbQuit, nargs)
	case verbIs(verb, "PROMOTE"):
		return bareCommand(VerbPromote, nargs)
	case verbIs(verb, "GETAT"):
		c, err := opCommand(OpGet, args, nargs, 2)
		if err != nil {
			return c, err
		}
		c.Verb = VerbGetAt
		return c, nil
	case verbIs(verb, "LSN"):
		return bareCommand(VerbLSN, nargs)
	}
	return Command{}, fmt.Errorf("unknown command %q", clip(verb))
}

// splitInto stores the first len(dst) fields of line in dst and returns
// how many fields line has. Fields are separated by runs of spaces and tabs.
func splitInto(dst [][]byte, line []byte) int {
	n := 0
	for i := 0; i < len(line); {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		j := i
		for j < len(line) && line[j] != ' ' && line[j] != '\t' {
			j++
		}
		if j > i {
			if n < len(dst) {
				dst[n] = line[i:j]
			}
			n++
		}
		i = j
	}
	return n
}

// splitFields returns every field of line — the extension-verb hook's
// argument list.
func splitFields(line []byte) [][]byte {
	out := make([][]byte, splitInto(nil, line))
	splitInto(out, line)
	return out
}

func verbIs(got []byte, want string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := 0; i < len(want); i++ {
		c := got[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != want[i] {
			return false
		}
	}
	return true
}

func bareCommand(v Verb, nargs int) (Command, error) {
	if nargs != 0 {
		return Command{}, fmt.Errorf("command takes no arguments")
	}
	return Command{Verb: v}, nil
}

// opCommand parses a data operation's arguments; nargs counts them all,
// args holds the first few.
func opCommand(kind OpKind, args [][]byte, nargs, want int) (Command, error) {
	if nargs != want {
		return Command{}, fmt.Errorf("%s takes %d argument(s), got %d", kind, want, nargs)
	}
	var nums [3]uint64
	for i, a := range args {
		n, err := parseUint(a)
		if err != nil {
			return Command{}, fmt.Errorf("%s: bad number %q", kind, clip(a))
		}
		nums[i] = n
	}
	return Command{Verb: VerbOp, Op: Op{Kind: kind, Key: nums[0], Arg1: nums[1], Arg2: nums[2]}}, nil
}

// parseUint is strconv.ParseUint(s, 10, 64) over bytes without the string
// allocation.
func parseUint(b []byte) (uint64, error) {
	if len(b) == 0 || len(b) > 20 {
		return 0, strconv.ErrSyntax
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, strconv.ErrSyntax
		}
		d := uint64(c - '0')
		if n > (^uint64(0)-d)/10 {
			return 0, strconv.ErrRange
		}
		n = n*10 + d
	}
	return n, nil
}

func clip(b []byte) string {
	const max = 32
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// AppendCommand formats op as a protocol line (with trailing newline) onto
// dst — the client-side encoder.
func AppendCommand(dst []byte, op Op) []byte {
	dst = append(dst, op.Kind.String()...)
	dst = append(dst, ' ')
	dst = strconv.AppendUint(dst, op.Key, 10)
	switch op.Kind {
	case OpSet:
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, op.Arg1, 10)
	case OpCAS:
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, op.Arg1, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, op.Arg2, 10)
	}
	return append(dst, '\n')
}

// AppendResult formats a data operation's reply line onto dst. modelNs < 0
// omits the t= trailer (used inside RESULTS blocks, which carry one t= on
// END).
func AppendResult(dst []byte, r Result, modelNs int64) []byte {
	switch r.Status {
	case StatusOK:
		dst = append(dst, "OK"...)
	case StatusValue:
		dst = append(dst, "VALUE "...)
		dst = strconv.AppendUint(dst, r.Val, 10)
	case StatusNotFound:
		dst = append(dst, "NOTFOUND"...)
	case StatusConflict:
		dst = append(dst, "CONFLICT "...)
		dst = strconv.AppendUint(dst, r.Val, 10)
	case StatusErr:
		dst = append(dst, "ERR server full"...)
	}
	if modelNs >= 0 {
		dst = append(dst, " t="...)
		dst = strconv.AppendInt(dst, modelNs, 10)
	}
	return append(dst, '\n')
}

// AppendResultExt is AppendResult plus the snapshot-read trailers: snap adds
// an " s=1" marker (the reply was served from an MVCC snapshot), and a
// non-zero lsn adds " lsn=<n>" (the published LSN observed by a GETAT).
// Trailer order is s=1, lsn=, t=.
func AppendResultExt(dst []byte, r Result, modelNs int64, snap bool, lsn uint64) []byte {
	out := AppendResult(dst, r, -1)
	out = out[:len(out)-1] // strip the newline to splice trailers in
	if snap {
		out = append(out, " s=1"...)
	}
	if lsn != 0 {
		out = append(out, " lsn="...)
		out = strconv.AppendUint(out, lsn, 10)
	}
	if modelNs >= 0 {
		out = append(out, " t="...)
		out = strconv.AppendInt(out, modelNs, 10)
	}
	return append(out, '\n')
}
