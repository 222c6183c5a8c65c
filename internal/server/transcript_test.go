package server

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the wire transcript goldens in testdata/")

// step is one item of a wire script: a request (show is how the transcript
// prints it, wire its bytes) or, when act is set, a server-side change made
// between requests.
type step struct {
	show string
	wire []byte
	act  func(s *Server)
}

// transcriptKeys are keys placed on known shards of a 2-shard server: a and
// a2 share a's shard, b lives on the other one.
type transcriptKeys struct{ a, a2, b uint64 }

func pickKeys() transcriptKeys {
	var k transcriptKeys
	var n0 []uint64
	for key := uint64(1); len(n0) < 2 || k.b == 0; key++ {
		if ShardOf(key, 2) == 0 {
			n0 = append(n0, key)
		} else if k.b == 0 {
			k.b = key
		}
	}
	k.a, k.a2 = n0[0], n0[1]
	return k
}

// routeAway installs a map in which key's shard is owned by another node.
func routeAway(key uint64) func(s *Server) {
	return func(s *Server) {
		owner := make([]string, s.Shards())
		owner[s.shardOf(key)] = "other:1"
		s.SetRoute(7, owner, "self:1")
	}
}

func routeOff(s *Server)       { s.SetRoute(0, nil, "") }
func readOnlyOn(s *Server)     { s.SetReadOnly(true) }
func readOnlyOff(s *Server)    { s.SetReadOnly(false) }
func act(f func(*Server)) step { return step{act: f} }

// textScript covers every text reply shape: VALUE/NOTFOUND/OK/CONFLICT,
// the s=1 and lsn= trailers, RESULTS blocks, QUEUED, MOVED, the read-only
// and MULTI errors, an extension verb handled and one refused, PONG and
// BYE. Every request with an effective write is followed by LSN, so the
// LSNs it prints do not depend on how requests group into commits.
func textScript() []step {
	k := pickKeys()
	var out []step
	add := func(lines ...string) {
		for _, l := range lines {
			out = append(out, step{show: l, wire: []byte(l + "\n")})
		}
	}
	a, a2, b := k.a, k.a2, k.b
	add("PING",
		fmt.Sprintf("GET %d", a),
		fmt.Sprintf("SET %d 10", a), "LSN",
		fmt.Sprintf("GET %d", a),
		fmt.Sprintf("CAS %d 10 11", a), "LSN",
		fmt.Sprintf("CAS %d 10 12", a),
		fmt.Sprintf("CAS %d 1 2", a2),
		fmt.Sprintf("DEL %d", a2),
		fmt.Sprintf("GETAT %d 2", a),
		"MULTI", fmt.Sprintf("SET %d 20", a), fmt.Sprintf("SET %d 30", b), fmt.Sprintf("GET %d", a), "EXEC", "LSN",
		"MULTI", fmt.Sprintf("GET %d", a), fmt.Sprintf("GET %d", a2), "EXEC",
		fmt.Sprintf("DEL %d", a), "LSN",
		"MULTI", "DISCARD",
		"MULTI", "EXEC",
		"EXEC",
		"MULTI", "MULTI", fmt.Sprintf("GETAT %d 1", a), "DISCARD",
		"MULTI")
	for i := 0; i <= MaxMultiOps; i++ {
		add(fmt.Sprintf("GET %d", a))
	}
	add("GET x", "HELLO", "BLORP 1", "STATS", "PROMOTE")
	out = append(out, act(routeAway(b)))
	add(fmt.Sprintf("GET %d", b),
		"MULTI", fmt.Sprintf("SET %d 1", a), fmt.Sprintf("SET %d 1", b), "EXEC")
	out = append(out, act(routeOff), act(readOnlyOn))
	add(fmt.Sprintf("SET %d 5", a),
		fmt.Sprintf("GET %d", b),
		"MULTI", fmt.Sprintf("SET %d 5", a))
	out = append(out, act(readOnlyOff))
	add("MULTI", fmt.Sprintf("SET %d 6", a))
	out = append(out, act(readOnlyOn))
	add("EXEC")
	out = append(out, act(readOnlyOff))
	add("QUIT")
	return out
}

// binaryScript covers every binary reply frame: REPLY, SNAPREPLY, MOVED,
// ERR, STATSREPLY, PONG and BYE.
func binaryScript() []step {
	k := pickKeys()
	var out []step
	ops := func(show string, o ...Op) {
		wire, err := AppendOpsFrame(nil, o)
		if err != nil {
			panic(err)
		}
		out = append(out, step{show: "OPS " + show, wire: wire})
	}
	simple := func(show string, typ byte) {
		out = append(out, step{show: show, wire: appendSimpleFrame(nil, typ)})
	}
	a, a2, b := k.a, k.a2, k.b
	simple("PING", binFPing)
	ops("GET a", Op{Kind: OpGet, Key: a})
	ops("SET a 10", Op{Kind: OpSet, Key: a, Arg1: 10})
	ops("GET a", Op{Kind: OpGet, Key: a})
	ops("SET a 1; SET b 2", Op{Kind: OpSet, Key: a, Arg1: 1}, Op{Kind: OpSet, Key: b, Arg1: 2})
	ops("GET a; GET a2", Op{Kind: OpGet, Key: a}, Op{Kind: OpGet, Key: a2})
	ops("CAS a 1 3; CAS a 1 4; DEL a2", Op{Kind: OpCAS, Key: a, Arg1: 1, Arg2: 3},
		Op{Kind: OpCAS, Key: a, Arg1: 1, Arg2: 4}, Op{Kind: OpDel, Key: a2})
	simple("STATS", binFStats)
	out = append(out, act(routeAway(b)))
	ops("GET b", Op{Kind: OpGet, Key: b})
	out = append(out, act(routeOff), act(readOnlyOn))
	ops("SET a 4", Op{Kind: OpSet, Key: a, Arg1: 4})
	ops("GET a", Op{Kind: OpGet, Key: a})
	out = append(out, act(readOnlyOff))
	simple("QUIT", binFQuit)
	return out
}

var maskT = regexp.MustCompile(`t=-?[0-9]+`)

// readTextReply reads the reply to one text request, one transcript line
// per reply line, with t= values and the STATS body masked.
func readTextReply(br *bufio.Reader, req string) ([]string, error) {
	line := func() (string, error) {
		l, err := br.ReadString('\n')
		if err != nil {
			return "", err
		}
		return maskT.ReplaceAllString(strings.TrimSuffix(l, "\n"), "t=*"), nil
	}
	first, err := line()
	if err != nil {
		return nil, err
	}
	out := []string{first}
	switch {
	case req == "STATS":
		for first != "END" {
			if first, err = line(); err != nil {
				return nil, err
			}
		}
		out = []string{"<stats>", "END"}
	case req == "EXEC" && strings.HasPrefix(first, "RESULTS "):
		var n int
		fmt.Sscanf(first, "RESULTS %d", &n)
		for i := 0; i <= n; i++ {
			l, err := line()
			if err != nil {
				return nil, err
			}
			out = append(out, l)
		}
	}
	return out, nil
}

// readBinaryReply reads one reply frame and renders it as one line.
func readBinaryReply(br *bufio.Reader) ([]string, error) {
	var buf []byte
	p, err := readFrame(br, &buf)
	if err != nil {
		return nil, err
	}
	switch p[0] {
	case binFReply, binFSnapReply:
		res, _, snap, err := DecodeReplyFrame(p, nil)
		if err != nil {
			return nil, err
		}
		var parts []string
		for _, r := range res {
			parts = append(parts, strings.TrimSuffix(string(AppendResult(nil, r, -1)), "\n"))
		}
		name := "REPLY"
		if snap {
			name = "SNAPREPLY"
		}
		return []string{name + " " + strings.Join(parts, ", ") + " t=*"}, nil
	case binFMoved:
		mv, err := decodeMovedFrame(p)
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("MOVED %d %d %s", mv.Shard, mv.Epoch, mv.Addr)}, nil
	case binFErr:
		return []string{"ERR " + string(p[1:])}, nil
	case binFPong:
		return []string{"PONG"}, nil
	case binFBye:
		return []string{"BYE"}, nil
	case binFStatsReply:
		return []string{"STATSREPLY <stats>"}, nil
	}
	return nil, fmt.Errorf("unknown reply frame %#x", p[0])
}

// runTranscript plays script against a fresh 2-shard server over a
// net.Pipe. With oneWrite false every request waits for its reply before the
// next is sent; with it true the requests between two actions go out in a
// single Write. The transcript interleaves "> request" and "< reply" lines.
func runTranscript(t *testing.T, proto string, script []step, oneWrite bool) string {
	t.Helper()
	s, err := New(Config{Shards: 2, PoolSize: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.OnExtCommand(func(verb string, args [][]byte) ([]byte, bool) {
		if verb == "HELLO" {
			return []byte("HI\n"), true
		}
		return nil, false
	})
	srv, cli := net.Pipe()
	done := make(chan struct{})
	go func() { s.ServeConn(srv); close(done) }()
	defer func() { cli.Close(); <-done }()
	cli.SetDeadline(time.Now().Add(30 * time.Second))
	br := bufio.NewReader(cli)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	var prefix []byte
	if proto == "binary" {
		prefix = []byte{BinVersion}
	}
	var tr strings.Builder
	for i := 0; i < len(script); {
		if script[i].act != nil {
			script[i].act(s)
			i++
			continue
		}
		j := i + 1
		if oneWrite {
			for j < len(script) && script[j].act == nil {
				j++
			}
		}
		wire := prefix
		prefix = nil
		for _, st := range script[i:j] {
			wire = append(wire, st.wire...)
		}
		werr := make(chan error, 1)
		go func() { _, err := cli.Write(wire); werr <- err }()
		for _, st := range script[i:j] {
			var lines []string
			var err error
			if proto == "binary" {
				lines, err = readBinaryReply(br)
			} else {
				lines, err = readTextReply(br, st.show)
			}
			if err != nil {
				t.Fatalf("reply to %q: %v\ntranscript so far:\n%s", st.show, err, tr.String())
			}
			tr.WriteString("> " + st.show + "\n")
			for _, l := range lines {
				tr.WriteString("< " + l + "\n")
			}
		}
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
		i = j
	}
	return tr.String()
}

// TestWireTranscript pins every reply shape of both protocols byte for byte
// against a golden transcript, sent one request at a time. The same script
// sent as one Write per segment must read the same up to the snapshot
// marker: a GET behind a queued write in the same window is diverted to the
// queue by design (read-your-writes), so it may lose its s=1.
func TestWireTranscript(t *testing.T) {
	for _, tc := range []struct {
		proto  string
		script []step
	}{{"text", textScript()}, {"binary", binaryScript()}} {
		t.Run(tc.proto, func(t *testing.T) {
			got := runTranscript(t, tc.proto, tc.script, false)
			golden := filepath.Join("testdata", "transcript_"+tc.proto+".golden")
			if *updateGolden {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("transcript differs from %s:\n%s", golden, diffLines(string(want), got))
			}
			unsnap := strings.NewReplacer(" s=1", "", "SNAPREPLY", "REPLY")
			pipelined := runTranscript(t, tc.proto, tc.script, true)
			if a, b := unsnap.Replace(got), unsnap.Replace(pipelined); a != b {
				t.Fatalf("one-Write transcript differs beyond s=1:\n%s", diffLines(a, b))
			}
		})
	}
}

// diffLines reports the first differing line of two transcripts.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, wl, gl)
		}
	}
	return "(equal)"
}
