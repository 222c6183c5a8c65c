package crashtest

import (
	"fmt"
	"time"

	"specpmt/internal/recovery"
	"specpmt/internal/repl"
	"specpmt/internal/server"
)

// setupReplay builds the replay scenario, which tortures the replication
// replay path: it drives a primary with random SET/DEL/MULTI traffic
// (tracking a committed-state oracle), crashes the replica's pool while it
// still lags the primary, recovers it, restarts tailing from the durable
// cursor, and verifies — after every crash — that the caught-up replica
// serves exactly the oracle state. LogCap is small, so some crashes push
// the replica off the log tail and force the re-snapshot path instead of a
// resume.
func setupReplay(t *torture) (func(int) error, error) {
	cfg, rng := t.cfg, t.rng
	prim, err := t.startNode(&repl.PrimaryOptions{LogCap: cfg.LogCap})
	if err != nil {
		return nil, err
	}
	rsrv, err := t.startNode(nil)
	if err != nil {
		return nil, err
	}
	c, err := server.Dial(prim.ln.Addr().String(), 5*time.Second)
	if err != nil {
		return nil, err
	}
	t.onClose(func() { c.Close() })

	// The committed-state oracle lives inside a recovery.KV checker: its
	// Check hands the snapshot to the replica server, which freezes all
	// shards and compares every hash map against it (exact values, no lost
	// or resurrected keys) on top of structural validation.
	kv := recovery.KV("hashmap", rsrv.srv.CheckRecovered)
	traffic := &kvTraffic{
		rng: rng, keys: uint64(cfg.Keys), oracle: kv.Live(), exec: c.Exec,
		send: func(op server.Op) (err error) {
			if op.Kind == server.OpDel {
				_, err = c.Del(op.Key)
			} else {
				_, err = c.Set(op.Key, op.Arg1)
			}
			return err
		},
	}

	// Seed some state before the replica exists, so its first handshake
	// exercises the snapshot bootstrap rather than an empty resume.
	for i := 0; i < 20; i++ {
		k, v := rng.Uint64()%traffic.keys, rng.Uint64()
		if _, err := c.Set(k, v); err != nil {
			return nil, err
		}
		traffic.oracle[k] = v
		t.rep.Committed++
	}

	newReplica := func() (*repl.Replica, error) {
		r, err := repl.NewReplica(rsrv.srv, prim.prim.Addr().String(), repl.ReplicaOptions{
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
		return nil, err
	}
	t.onClose(func() { replica.Close() })
	// waitLag waits until the replica's applied LSN is fewer than lag
	// records behind the primary's head.
	waitLag := func(lag uint64) error {
		return poll(30*time.Second, 200*time.Microsecond, func() error {
			if applied, head := replica.AppliedLSN(), prim.prim.Log().Head(); applied+lag <= head {
				return fmt.Errorf("crashtest: replica stuck at lsn %d, primary head %d", applied, head)
			}
			return nil
		})
	}

	// The cursor checker closes over the replica variable because each
	// crash round builds a fresh incarnation; the heap and spec-log
	// checkers go through the server's pool, which persists across crashes.
	t.reg.Register(kv, recovery.Func("repl.cursor", nil, func() error {
		return replica.Applier().CheckRecovered(prim.prim.Log().Head())
	}))
	t.registerPool("", rsrv.srv.Pool())

	// harvest folds the current incarnation's handshake outcome into the
	// report: bootstrap counts reset per incarnation, so read them while the
	// incarnation is still the stats hook. An incarnation that bootstrapped
	// zero times tailed purely by resuming from its durable cursor.
	harvest := func() error {
		s, err := statOf(rsrv.ln.Addr().String(), "repl_snapshots")
		if err != nil {
			return err
		}
		if s > 0 {
			t.rep.Snapshots += s
		} else {
			t.rep.Resumes++
		}
		return nil
	}

	// A burst written while the replica tails live is paced to it: a primary
	// that outruns its bounded log evicts its own live replica, and the even
	// rounds need the crash to land on a cursor the log still covers — on any
	// host, however fast the primary commits.
	paced := func() error { return waitLag(uint64(cfg.LogCap / 2)) }

	return func(round int) error {
		// Even rounds write while the replica tails live, then crash it —
		// replay may be in flight, and the next incarnation resumes from the
		// durable cursor. Odd rounds write while the replica is down: bursts
		// larger than LogCap push its cursor off the bounded log's tail, so
		// the next incarnation is refused a resume and must re-snapshot.
		writeWhileDown := round%2 == 1
		if !writeWhileDown {
			if err := traffic.burst(t, round, paced); err != nil {
				return err
			}
		}
		if err := harvest(); err != nil {
			return err
		}
		replica.Close()
		if err := t.crash(round, rsrv.srv); err != nil {
			return err
		}
		if writeWhileDown {
			if err := traffic.burst(t, round, nil); err != nil {
				return err
			}
		}
		if replica, err = newReplica(); err != nil {
			return err
		}
		if err := waitLag(1); err != nil {
			return err
		}
		if replica.Applier().PrimaryID() == 0 {
			return fmt.Errorf("crashtest: round %d: caught up without adopting a primary id", round)
		}

		// The check runs after catch-up, not at the crash: the oracle keeps
		// moving while the replica is down, and the contract is over the
		// caught-up state.
		if err := t.check(round); err != nil {
			return err
		}
		if round == cfg.Rounds-1 {
			return harvest() // the last incarnation's handshake
		}
		return nil
	}, nil
}

// statOf reads one STATS counter from the server at addr; a failed read or
// a missing counter is an error, never a zero.
func statOf(addr, name string) (uint64, error) {
	c, err := server.Dial(addr, 2*time.Second)
	if err == nil {
		defer c.Close()
		var nums map[string]uint64
		if nums, _, err = c.Stats(); err == nil {
			if n, ok := nums[name]; ok {
				return n, nil
			}
			err = fmt.Errorf("no %s counter", name)
		}
	}
	return 0, fmt.Errorf("crashtest: reading STATS of %s: %w", addr, err)
}
