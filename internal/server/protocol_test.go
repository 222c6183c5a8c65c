package server

import (
	"strings"
	"testing"
)

func TestParseCommand(t *testing.T) {
	cases := []struct {
		line string
		want Command
		bad  bool
	}{
		{line: "GET 7", want: Command{Verb: VerbOp, Op: Op{Kind: OpGet, Key: 7}}},
		{line: "get 7", want: Command{Verb: VerbOp, Op: Op{Kind: OpGet, Key: 7}}},
		{line: "  SET  1   2 ", want: Command{Verb: VerbOp, Op: Op{Kind: OpSet, Key: 1, Arg1: 2}}},
		{line: "DEL 0", want: Command{Verb: VerbOp, Op: Op{Kind: OpDel, Key: 0}}},
		{line: "CAS 5 6 7", want: Command{Verb: VerbOp, Op: Op{Kind: OpCAS, Key: 5, Arg1: 6, Arg2: 7}}},
		{line: "CAS 5 6 18446744073709551615", want: Command{Verb: VerbOp, Op: Op{Kind: OpCAS, Key: 5, Arg1: 6, Arg2: ^uint64(0)}}},
		{line: "MULTI", want: Command{Verb: VerbMulti}},
		{line: "exec", want: Command{Verb: VerbExec}},
		{line: "DISCARD", want: Command{Verb: VerbDiscard}},
		{line: "STATS", want: Command{Verb: VerbStats}},
		{line: "PING", want: Command{Verb: VerbPing}},
		{line: "QUIT", want: Command{Verb: VerbQuit}},
		{line: "", bad: true},
		{line: "   ", bad: true},
		{line: "GET", bad: true},
		{line: "GET 1 2", bad: true},
		{line: "SET 1", bad: true},
		{line: "SET x 2", bad: true},
		{line: "SET 1 -2", bad: true},
		{line: "SET 1 2.5", bad: true},
		{line: "SET 1 18446744073709551616", bad: true}, // 2^64 overflows
		{line: "CAS 1 2", bad: true},
		{line: "MULTI 3", bad: true},
		{line: "BLORP 1", bad: true},
		{line: "G\x00T 1", bad: true},
	}
	for _, c := range cases {
		got, err := ParseCommand([]byte(c.line))
		if c.bad {
			if err == nil {
				t.Errorf("ParseCommand(%q) = %+v, want error", c.line, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseCommand(%q): %v", c.line, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseCommand(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

func TestAppendCommandRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpGet, Key: 42},
		{Kind: OpSet, Key: 1, Arg1: ^uint64(0)},
		{Kind: OpDel, Key: 0},
		{Kind: OpCAS, Key: 3, Arg1: 4, Arg2: 5},
	}
	for _, op := range ops {
		line := AppendCommand(nil, op)
		if line[len(line)-1] != '\n' {
			t.Fatalf("AppendCommand(%+v) missing newline", op)
		}
		cmd, err := ParseCommand(line[:len(line)-1])
		if err != nil {
			t.Fatalf("round trip %+v: %v", op, err)
		}
		if cmd.Verb != VerbOp || cmd.Op != op {
			t.Fatalf("round trip %+v -> %+v", op, cmd.Op)
		}
	}
}

func TestAppendResult(t *testing.T) {
	cases := []struct {
		r       Result
		modelNs int64
		want    string
	}{
		{Result{Status: StatusOK}, 12, "OK t=12\n"},
		{Result{Status: StatusValue, Val: 9}, 3, "VALUE 9 t=3\n"},
		{Result{Status: StatusNotFound}, -1, "NOTFOUND\n"},
		{Result{Status: StatusConflict, Val: 8}, 0, "CONFLICT 8 t=0\n"},
		{Result{Status: StatusErr}, -1, "ERR server full\n"},
	}
	for _, c := range cases {
		got := string(AppendResult(nil, c.r, c.modelNs))
		if got != c.want {
			t.Errorf("AppendResult(%+v, %d) = %q, want %q", c.r, c.modelNs, got, c.want)
		}
	}
}

func TestParseOpResult(t *testing.T) {
	r, err := parseOpResult([]byte("VALUE 17 t=1234"))
	if err != nil || r.Status != StatusValue || r.Val != 17 || r.ModelNs != 1234 {
		t.Fatalf("parseOpResult VALUE: %+v %v", r, err)
	}
	r, err = parseOpResult([]byte("NOTFOUND"))
	if err != nil || r.Status != StatusNotFound || r.ModelNs != -1 {
		t.Fatalf("parseOpResult NOTFOUND: %+v %v", r, err)
	}
	if _, err := parseOpResult([]byte("ERR boom")); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("parseOpResult ERR: %v", err)
	}
}

// TestParseCommandAllocs: a valid data command, GETAT or PING parses
// without allocating — the text codec's per-request decode cost.
func TestParseCommandAllocs(t *testing.T) {
	for _, line := range []string{"GET 7", "SET 1 2", "DEL 3", "CAS 4 5 6", "GETAT 7 9", "PING"} {
		b := []byte(line)
		if n := testing.AllocsPerRun(100, func() { ParseCommand(b) }); n != 0 {
			t.Errorf("ParseCommand(%q): %v allocs, want 0", line, n)
		}
	}
}
