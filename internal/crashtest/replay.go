package crashtest

import (
	"fmt"
	"net"
	"time"

	"specpmt/internal/recovery"
	"specpmt/internal/repl"
	"specpmt/internal/server"
	"specpmt/internal/sim"
)

// ReplayConfig parameterises a replica-replay torture run: a primary server
// under random client load, a replica tailing its commit log, and repeated
// replica power failures injected while replay is in flight.
type ReplayConfig struct {
	// Engine is the crash-consistency scheme both servers run on.
	Engine string
	// Seed makes the whole run reproducible.
	Seed uint64
	// Rounds is the number of crash/recover cycles (default 4).
	Rounds int
	// TxPerRound is the max client requests per round (default 120).
	TxPerRound int
	// Keys is the key-space size (default 64 — small, so DELs hit).
	Keys uint64
	// Shards is the worker count of both servers (default 4).
	Shards int
	// LogCap bounds the primary's replication log (default 64 — small, so
	// some crashes push the replica off the log tail and force the
	// re-snapshot path instead of a resume).
	LogCap int
	// PoolSize is each server's pool size in bytes (default 64 MiB).
	PoolSize int
	// Profile names the media profile (empty = default).
	Profile string
}

func (c *ReplayConfig) setDefaults() {
	if c.Engine == "" {
		c.Engine = "SpecSPMT"
	}
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.TxPerRound == 0 {
		c.TxPerRound = 120
	}
	if c.Keys == 0 {
		c.Keys = 64
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.LogCap == 0 {
		c.LogCap = 64
	}
	if c.PoolSize == 0 {
		c.PoolSize = 64 << 20
		if c.Engine == "SpecHPMT" {
			// The hardware engine reserves per-thread spec+undo rings
			// (~32 MiB each at the §5.2.1 defaults); four shards need a
			// log area no smaller pool provides.
			c.PoolSize = 256 << 20
		}
	}
}

// ReplayEngines returns the engines the replica-replay torture runs on: the
// threaded-pool-capable schemes whose multi-thread recovery is sound under
// the server's cross-shard MULTIs, which commit other shards' cells on the
// executing shard's thread. SpecSPMT/SpecSPMT-DP (merged timestamp-ordered
// recovery, §4.1) and SpecHPMT (the §5.2.2 cluster protocol) order such
// writes across threads; PMDK's undo recovery never replays committed data,
// so independent per-thread recovery of a quiesced pool is write-free. SPHT
// is excluded: its per-thread redo replay carries no cross-thread ordering,
// so one thread's unreplayed older record can regress another thread's
// newer committed write.
func ReplayEngines() []string {
	return []string{"SpecSPMT", "SpecSPMT-DP", "SpecHPMT", "PMDK"}
}

// ReplayReport summarises a replica-replay torture run.
type ReplayReport struct {
	Engine    string
	Seed      uint64
	Rounds    int
	Committed int    // client transactions committed on the primary
	Crashes   int    // replica power failures injected
	Snapshots uint64 // snapshot bootstraps across all incarnations
	Resumes   uint64 // incarnations that tailed via cursor resume alone
	// FailedAt is the zero-based power-fail point index at which a
	// recovery checker first failed, -1 when the run was clean.
	FailedAt   int
	Violations []string
	// Checks is the recovery-checker summary for the run.
	Checks recovery.Summary
}

// Ok reports whether the run observed no divergence.
func (r ReplayReport) Ok() bool { return len(r.Violations) == 0 }

// String renders a one-line summary.
func (r ReplayReport) String() string {
	status := "OK"
	if !r.Ok() {
		status = fmt.Sprintf("FAILED at power-fail point %d (%d violations)", r.FailedAt, len(r.Violations))
	}
	return fmt.Sprintf("replay %-12s seed=%-4d rounds=%d committed=%d crashes=%d snaps=%d resumes=%d: %s",
		r.Engine, r.Seed, r.Rounds, r.Committed, r.Crashes, r.Snapshots, r.Resumes, status)
}

// ReplicaReplay tortures the replication replay path: it drives a primary
// with random SET/DEL/MULTI traffic (tracking a committed-state oracle),
// crashes the replica's pool while it still lags the primary, recovers it,
// restarts tailing from the durable cursor, and verifies — after every
// crash — that the caught-up replica serves exactly the oracle state.
func ReplicaReplay(cfg ReplayConfig) (ReplayReport, error) {
	cfg.setDefaults()
	rep := ReplayReport{Engine: cfg.Engine, Seed: cfg.Seed, Rounds: cfg.Rounds, FailedAt: -1}
	rng := sim.NewRand(cfg.Seed)

	prim, err := server.New(server.Config{
		Engine: cfg.Engine, Profile: cfg.Profile, Shards: cfg.Shards, PoolSize: cfg.PoolSize,
	})
	if err != nil {
		return rep, err
	}
	defer prim.Close()
	pln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	go prim.Serve(pln)
	primary := repl.NewPrimary(prim, repl.PrimaryOptions{LogCap: cfg.LogCap})
	defer primary.Close()
	if err := primary.Start("127.0.0.1:0"); err != nil {
		return rep, err
	}

	rsrv, err := server.New(server.Config{
		Engine: cfg.Engine, Profile: cfg.Profile, Shards: cfg.Shards, PoolSize: cfg.PoolSize,
	})
	if err != nil {
		return rep, err
	}
	defer rsrv.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rep, err
	}
	go rsrv.Serve(rln)

	c, err := server.Dial(pln.Addr().String(), 5*time.Second)
	if err != nil {
		return rep, err
	}
	defer c.Close()

	// The committed-state oracle lives inside a recovery.KV checker: its
	// Check hands the snapshot to the replica server, which freezes all
	// shards and compares every hash map against it (exact values, no lost
	// or resurrected keys) on top of structural validation.
	kv := recovery.KV("hashmap", func(expect map[uint64]uint64) error {
		return rsrv.CheckRecovered(expect)
	})
	oracle := kv.Live()

	// Seed some state before the replica exists, so its first handshake
	// exercises the snapshot bootstrap rather than an empty resume.
	for i := 0; i < 20; i++ {
		k, v := rng.Uint64()%cfg.Keys, rng.Uint64()
		if _, err := c.Set(k, v); err != nil {
			return rep, err
		}
		oracle[k] = v
		rep.Committed++
	}

	newReplica := func() (*repl.Replica, error) {
		r, err := repl.NewReplica(rsrv, primary.Addr().String(), repl.ReplicaOptions{
			RetryEvery: 20 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		r.Start()
		return r, nil
	}
	replica, err := newReplica()
	if err != nil {
		return rep, err
	}
	defer func() { replica.Close() }()

	// Checker registry for the replica's pool. The cursor checker closes
	// over the replica variable because each crash round builds a fresh
	// incarnation; the heap and spec-log checkers go through the server's
	// pool, which persists across crashes.
	rpool := rsrv.Pool()
	reg := recovery.NewRegistry("replay/" + cfg.Engine)
	reg.Register(
		kv,
		recovery.Func("repl.cursor", nil, func() error {
			return replica.Applier().CheckRecovered(primary.Log().Head())
		}),
		recovery.Heap("pmalloc.data", rpool.DataHeap()),
		recovery.Heap("pmalloc.log", rpool.LogHeap()),
		recovery.Func("spec.log", nil, func() error {
			if sp := rpool.SpecPool(); sp != nil {
				return sp.VerifyRecovered(rpool.LogHeap().Allocated)
			}
			return nil
		}),
	)

	// harvest folds the current incarnation's handshake outcome into the
	// report: bootstrap counts reset per incarnation, so read them while the
	// incarnation is still the stats hook. An incarnation that bootstrapped
	// zero times tailed purely by resuming from its durable cursor.
	harvest := func() {
		if s := statOf(rln.Addr().String(), "repl_snapshots"); s > 0 {
			rep.Snapshots += s
		} else {
			rep.Resumes++
		}
	}

	// A burst written while the replica tails live is paced to it: a primary
	// that outruns its bounded log evicts its own live replica, and the even
	// rounds need the crash to land on a cursor the log still covers — on any
	// host, however fast the primary commits.
	burst := func(round int, live bool) error {
		nTx := rng.Intn(cfg.TxPerRound) + cfg.TxPerRound/2
		for i := 0; i < nTx; i++ {
			if err := randomTx(c, rng, cfg.Keys, oracle); err != nil {
				return fmt.Errorf("crashtest: round %d tx %d: %w", round, i, err)
			}
			rep.Committed++
			if live {
				if err := waitLagBelow(replica, primary, uint64(cfg.LogCap/2), 30*time.Second); err != nil {
					return err
				}
			}
		}
		return nil
	}

	for round := 0; round < cfg.Rounds; round++ {
		// Even rounds write while the replica tails live, then crash it —
		// replay may be in flight, and the next incarnation resumes from the
		// durable cursor. Odd rounds write while the replica is down: bursts
		// larger than LogCap push its cursor off the bounded log's tail, so
		// the next incarnation is refused a resume and must re-snapshot.
		writeWhileDown := round%2 == 1
		if !writeWhileDown {
			if err := burst(round, true); err != nil {
				return rep, err
			}
		}
		harvest()
		replica.Close()
		if err := rsrv.Crash(rng.Uint64()); err != nil {
			return rep, fmt.Errorf("crashtest: replica crash %d: %w", round, err)
		}
		rep.Crashes++
		if writeWhileDown {
			if err := burst(round, false); err != nil {
				return rep, err
			}
		}
		if replica, err = newReplica(); err != nil {
			return rep, err
		}
		if err := waitCaughtUp(replica, primary, 30*time.Second); err != nil {
			return rep, err
		}
		if replica.Applier().PrimaryID() == 0 {
			return rep, fmt.Errorf("crashtest: round %d: caught up without adopting a primary id", round)
		}

		// The caught-up replica must pass every registered checker: it
		// serves exactly the oracle state, the durable cursor decodes
		// sanely, and the allocator and spec-log metadata verify. The
		// snapshot is taken here, not before the crash, because the oracle
		// keeps moving while the replica is down — the contract is over the
		// caught-up state.
		reg.Snapshot()
		if err := reg.Check(); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("round %d: %v", round, err))
			rep.FailedAt = reg.Points() - 1
			rep.Checks = reg.Summary()
			return rep, nil
		}
	}
	harvest()
	rep.Checks = reg.Summary()
	return rep, nil
}

// randomTx issues one random client request against the primary and folds
// its committed effect into the oracle.
func randomTx(c *server.Client, rng *sim.Rand, keys uint64, oracle map[uint64]uint64) error {
	switch rng.Intn(10) {
	case 0, 1: // DEL
		k := rng.Uint64() % keys
		if _, err := c.Del(k); err != nil {
			return err
		}
		delete(oracle, k)
	case 2, 3: // cross-shard MULTI of SETs (and sometimes a DEL)
		n := rng.Intn(4) + 2
		ops := make([]server.Op, n)
		for i := range ops {
			k := rng.Uint64() % keys
			if rng.Intn(4) == 0 {
				ops[i] = server.Op{Kind: server.OpDel, Key: k}
			} else {
				ops[i] = server.Op{Kind: server.OpSet, Key: k, Arg1: rng.Uint64()}
			}
		}
		results, _, err := c.Exec(ops)
		if err != nil {
			return err
		}
		for i, op := range ops {
			switch {
			case op.Kind == server.OpSet && results[i].Status == server.StatusOK:
				oracle[op.Key] = op.Arg1
			case op.Kind == server.OpDel && results[i].Status == server.StatusOK:
				delete(oracle, op.Key)
			}
		}
	default: // SET
		k, v := rng.Uint64()%keys, rng.Uint64()
		if _, err := c.Set(k, v); err != nil {
			return err
		}
		oracle[k] = v
	}
	return nil
}

func waitCaughtUp(r *repl.Replica, p *repl.Primary, timeout time.Duration) error {
	return waitLagBelow(r, p, 1, timeout)
}

// waitLagBelow waits until the replica's applied LSN is fewer than lag
// records behind the primary's head.
func waitLagBelow(r *repl.Replica, p *repl.Primary, lag uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for r.AppliedLSN()+lag <= p.Log().Head() {
		if time.Now().After(deadline) {
			return fmt.Errorf("crashtest: replica stuck at lsn %d, primary head %d",
				r.AppliedLSN(), p.Log().Head())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func statOf(addr, name string) uint64 {
	c, err := server.Dial(addr, 2*time.Second)
	if err != nil {
		return 0
	}
	defer c.Close()
	nums, _, err := c.Stats()
	if err != nil {
		return 0
	}
	return nums[name]
}
