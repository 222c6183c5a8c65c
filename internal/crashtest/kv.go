package crashtest

import (
	"errors"
	"fmt"
	"net"
	"time"

	"specpmt/internal/cluster"
	"specpmt/internal/repl"
	"specpmt/internal/server"
	"specpmt/internal/sim"
)

// node is one in-process KV server on a loopback listener, with the
// replication primary that publishes its commit log when it has one.
type node struct {
	srv  *server.Server
	ln   net.Listener
	prim *repl.Primary
}

// startNode starts a server on the run's engine, profile, shard count and
// pool size, and — given primary options — its replication primary. Run
// closes it.
func (t *torture) startNode(primary *repl.PrimaryOptions) (*node, error) {
	srv, err := server.New(server.Config{
		Engine: t.cfg.Engine, Profile: t.cfg.Profile, Shards: t.cfg.Shards, PoolSize: t.cfg.PoolSize,
	})
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv}
	t.onClose(func() {
		if n.prim != nil {
			n.prim.Close()
		}
		srv.Close()
	})
	if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	go srv.Serve(n.ln)
	if primary != nil {
		n.prim = repl.NewPrimary(srv, *primary)
		if err := n.prim.Start("127.0.0.1:0"); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// kvTraffic issues random client requests and folds their committed effect
// into a KV oracle.
type kvTraffic struct {
	rng      *sim.Rand
	keys     uint64
	oracle   map[uint64]uint64
	send     func(server.Op) error                               // a lone SET or DEL
	exec     func([]server.Op) ([]server.OpResult, int64, error) // a MULTI, as one transaction
	sameNode func([]uint64) bool                                 // if set, a MULTI redraws keys until this holds
}

// tx issues one request: a DEL (20 %), a MULTI of 2–5 SETs and sometimes
// DELs (20 %), or a SET. A MULTI that a map refresh turned cross-node
// between the draw and the send never executed, so it is dropped, not an
// error.
func (g *kvTraffic) tx() error {
	rng := g.rng
	var op server.Op
	switch rng.Intn(10) {
	case 0, 1:
		op = server.Op{Kind: server.OpDel, Key: rng.Uint64() % g.keys}
	case 2, 3:
		ops := make([]server.Op, rng.Intn(4)+2)
		multiOp := func(k uint64) server.Op {
			if rng.Intn(4) == 0 {
				return server.Op{Kind: server.OpDel, Key: k}
			}
			return server.Op{Kind: server.OpSet, Key: k, Arg1: rng.Uint64()}
		}
		if g.sameNode == nil {
			for i := range ops {
				ops[i] = multiOp(rng.Uint64() % g.keys)
			}
		} else {
			ks := make([]uint64, len(ops))
			for {
				for i := range ks {
					ks[i] = rng.Uint64() % g.keys
				}
				if g.sameNode(ks) {
					break
				}
			}
			for i, k := range ks {
				ops[i] = multiOp(k)
			}
		}
		results, _, err := g.exec(ops)
		if err != nil {
			if errors.Is(err, cluster.ErrCrossNode) {
				return nil
			}
			return err
		}
		for i, op := range ops {
			if results[i].Status == server.StatusOK {
				g.fold(op)
			}
		}
		return nil
	default:
		k, v := rng.Uint64()%g.keys, rng.Uint64()
		op = server.Op{Kind: server.OpSet, Key: k, Arg1: v}
	}
	if err := g.send(op); err != nil {
		return err
	}
	g.fold(op)
	return nil
}

// fold applies a committed SET or DEL to the oracle.
func (g *kvTraffic) fold(op server.Op) {
	if op.Kind == server.OpDel {
		delete(g.oracle, op.Key)
	} else {
		g.oracle[op.Key] = op.Arg1
	}
}

// burst issues a round's random number of requests — between half and
// one and a half TxPerRound — calling paced, when set, after each.
func (g *kvTraffic) burst(t *torture, round int, paced func() error) error {
	nTx := g.rng.Intn(t.cfg.TxPerRound) + t.cfg.TxPerRound/2
	for i := 0; i < nTx; i++ {
		if err := g.tx(); err != nil {
			return fmt.Errorf("crashtest: round %d tx %d: %w", round, i, err)
		}
		t.rep.Committed++
		if paced != nil {
			if err := paced(); err != nil {
				return err
			}
		}
	}
	return nil
}

// poll re-evaluates pending every interval until it returns nil. pending
// describes what is still awaited; the last description is the error once
// timeout has passed.
func poll(timeout, every time.Duration, pending func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := pending()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(every)
	}
}
