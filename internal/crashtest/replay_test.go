package crashtest

import (
	"net"
	"strings"
	"testing"

	"specpmt/internal/server"
)

// TestReplicaReplay crash-tortures the replication replay path: the replica's
// pool is power-failed mid-replay each round, recovered, and re-tailed from
// its durable cursor; the caught-up state must match the committed oracle.
func TestReplicaReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replica-replay torture is slow")
	}
	replay := scenario(t, "replay")
	for _, engine := range []string{"SpecSPMT", "PMDK"} {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(engine, func(t *testing.T) {
				rep, err := Run(replay, Config{Engine: engine, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				t.Log(rep.String())
				if !rep.Ok() {
					for _, v := range rep.Violations {
						t.Error(v)
					}
				}
				if rep.Crashes != rep.Rounds {
					t.Fatalf("injected %d crashes over %d rounds", rep.Crashes, rep.Rounds)
				}
				if rep.Snapshots < 2 {
					t.Fatalf("snapshots = %d, want the initial bootstrap plus at least one eviction-forced re-snapshot", rep.Snapshots)
				}
				if rep.Resumes == 0 {
					t.Fatal("no incarnation resumed from its durable cursor")
				}
			})
		}
	}
}

// TestStatOfFailsWithoutReplicaStats pins that an unreadable replica
// counter is an error, never a zero that would count as a cursor resume.
func TestStatOfFailsWithoutReplicaStats(t *testing.T) {
	srv, err := server.New(server.Config{Shards: 1, PoolSize: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	// A server with no replica attached publishes no repl_snapshots.
	if n, err := statOf(ln.Addr().String(), "repl_snapshots"); err == nil || !strings.Contains(err.Error(), "no repl_snapshots") {
		t.Fatalf("statOf = %d, %v; want a missing-counter error", n, err)
	}
	srv.Close()
	if n, err := statOf(ln.Addr().String(), "repl_snapshots"); err == nil {
		t.Fatalf("statOf on a closed server = %d, nil", n)
	}
}
