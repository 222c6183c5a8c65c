package server

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzParseCommand asserts the protocol parser never panics, never accepts
// an over-long line's worth of garbage as a valid command with mangled
// numbers, and — for every line it does accept as a data operation —
// round-trips through the client-side encoder to the identical command.
func FuzzParseCommand(f *testing.F) {
	for _, seed := range []string{
		"GET 7", "SET 1 2", "DEL 3", "CAS 4 5 6",
		"MULTI", "EXEC", "DISCARD", "STATS", "PING", "QUIT",
		"get 18446744073709551615", "  SET\t9 10  ",
		"", " ", "SET 1", "CAS 1 2", "SET 1 99999999999999999999999",
		"BLORP", "GET -1", "GET 0x10", "SET 1 2 3 4", "\x00\xff\xfe",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		cmd, err := ParseCommand(line)
		if err != nil {
			return
		}
		if cmd.Verb != VerbOp {
			if (cmd.Op != Op{}) {
				t.Fatalf("bare verb %v carried op payload %+v", cmd.Verb, cmd.Op)
			}
			return
		}
		// Encoder -> parser must be the identity on accepted operations.
		wire := AppendCommand(nil, cmd.Op)
		if !bytes.HasSuffix(wire, []byte("\n")) {
			t.Fatalf("AppendCommand(%+v) not newline-terminated: %q", cmd.Op, wire)
		}
		again, err := ParseCommand(wire[:len(wire)-1])
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", wire, line, err)
		}
		if again != cmd {
			t.Fatalf("round trip changed command: %+v -> %+v (line %q)", cmd, again, line)
		}
	})
}

// scriptBytes concatenates a wire script's requests, skipping its actions.
func scriptBytes(script []step) []byte {
	var out []byte
	for _, st := range script {
		out = append(out, st.wire...)
	}
	return out
}

// FuzzServeConn throws arbitrary client streams at one connection — text,
// or binary when the stream opens with the version byte — and requires that
// the handler neither panics nor leaks: once the connection is gone, every
// in-flight slot is back and every shard queue is empty.
func FuzzServeConn(f *testing.F) {
	f.Add(scriptBytes(textScript()))
	f.Add(append([]byte{BinVersion}, scriptBytes(binaryScript())...))
	f.Add([]byte("SET 1 2\nGET 1\nLSN\nGETAT 1 1\nMULTI\nSET 2 3\nEXEC\nSTATS\n"))
	f.Add([]byte{BinVersion, 2, 0, 0, 0, binFOps, 0})
	s, err := New(Config{Shards: 2, PoolSize: 32 << 20, MaxInFlight: 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, stream []byte) {
		srv, cli := net.Pipe()
		done := make(chan struct{})
		go func() { s.ServeConn(srv); close(done) }()
		go io.Copy(io.Discard, cli)
		cli.Write(stream)
		cli.Close()
		select {
		case <-done:
		case <-time.After(4 * getAtTimeout):
			t.Fatalf("handler still running %v after its connection closed", 4*getAtTimeout)
		}
		if err := quiet(s); err != nil {
			t.Fatalf("after the connection: %v", err)
		}
	})
}
