package crashtest

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"specpmt/internal/cluster"
	"specpmt/internal/recovery"
	"specpmt/internal/repl"
	"specpmt/internal/server"
)

// migNode is one in-process cluster node: server + replication primary
// (every node can be a migration source) + the cluster wrapper.
type migNode struct {
	*node
	cn   *cluster.Node
	addr cluster.Addr
}

func (t *torture) startMigNode(log *slog.Logger) (*migNode, error) {
	n, err := t.startNode(&repl.PrimaryOptions{})
	if err != nil {
		return nil, err
	}
	m := &migNode{node: n, addr: cluster.Addr{Data: n.ln.Addr().String(), Repl: n.prim.Addr().String()}}
	m.cn = cluster.NewNode(n.srv, n.prim, m.addr, cluster.NodeOptions{Log: log})
	t.onClose(m.cn.Close)
	return m, nil
}

// The shard that migrates back and forth between the two nodes.
const migTortureShard = 1

// errInjected is the sentinel a MigrateHooks callback returns to abort the
// cutover at the round's injection point.
var errInjected = errors.New("crashtest: injected power failure")

// setupMigrate builds the migrate scenario, which tortures the live
// shard-migration protocol: two cluster nodes under routed client load
// (tracking a committed-state oracle), one shard migrating between them,
// and a power failure injected every round — either at a cutover phase
// (mid-pull, post-freeze, at-cutover), which aborts the migration and
// crashes the destination over its half-pulled shard copy, or right after a
// committed cutover, which crashes the new owner and then the purging old
// owner. Four rounds are one full cycle of the injection points. After
// every power-fail point the full recovery checker registry runs: each node
// must serve exactly the oracle projected onto the shards it owns, both
// nodes' allocator and spec-log metadata must verify, and the two nodes
// must agree on the map.
func setupMigrate(t *torture) (func(int) error, error) {
	quiet := slog.New(slog.DiscardHandler)

	a, err := t.startMigNode(quiet)
	if err != nil {
		return nil, err
	}
	b, err := t.startMigNode(quiet)
	if err != nil {
		return nil, err
	}
	a.cn.Bootstrap()
	if err := b.cn.Join(a.addr.Data); err != nil {
		return nil, err
	}
	cur := a.cn.Map()

	view, err := cluster.NewView([]string{a.addr.Data, b.addr.Data})
	if err != nil {
		return nil, err
	}
	router := cluster.NewRouter(view, "text")
	t.onClose(router.Close)

	// The committed-state oracle lives inside a recovery.KV checker whose
	// Check splits the snapshot by current shard ownership: each node must
	// serve exactly the oracle projected onto the shards it owns (a
	// half-pulled, not-yet-owned shard copy is invisible to routing and is
	// deliberately not held to the oracle — structural validity of such a
	// copy is what Crash's SelfCheck enforces).
	kv := recovery.KV("hashmap/ownership", func(expect map[uint64]uint64) error {
		for _, n := range []*migNode{a, b} {
			if err := n.srv.CheckRecoveredShards(expect, cur.NodeShards(n.addr.Data)); err != nil {
				return fmt.Errorf("node %s: %w", n.addr.Data, err)
			}
		}
		return nil
	})
	traffic := &kvTraffic{
		rng: t.rng, keys: uint64(t.cfg.Keys), oracle: kv.Live(),
		exec: router.Exec, sameNode: router.SameNode,
		send: func(op server.Op) error {
			_, err := router.Do(op)
			return err
		},
	}

	t.reg.Register(kv)
	t.registerPool("a.", a.srv.Pool())
	t.registerPool("b.", b.srv.Pool())
	t.reg.Register(recovery.Func("cluster.map", nil, func() error {
		for _, n := range []*migNode{a, b} {
			m := n.cn.Map()
			if m == nil || m.Epoch != cur.Epoch {
				return fmt.Errorf("node %s at epoch %v, coordinator at %d", n.addr.Data, m, cur.Epoch)
			}
			for s, o := range m.Owners {
				if o != cur.Owners[s] {
					return fmt.Errorf("node %s maps shard %d to %s, coordinator to %s",
						n.addr.Data, s, o.Data, cur.Owners[s].Data)
				}
			}
		}
		return nil
	}))

	points := []string{"mid-pull", "post-freeze", "at-cutover", "commit"}
	return func(round int) error {
		if err := traffic.burst(t, round, nil); err != nil {
			return err
		}

		// The migration direction follows ownership: the shard always
		// moves from its current owner to the other node.
		src, dst := a, b
		if cur.Owners[migTortureShard].Data == b.addr.Data {
			src, dst = b, a
		}
		point := points[round%len(points)]
		var hooks cluster.MigrateHooks
		switch point {
		case "mid-pull":
			hooks.PullStarted = func() error { return errInjected }
		case "post-freeze":
			hooks.Frozen = func(uint64) error { return errInjected }
		case "at-cutover":
			hooks.Verified = func() error { return errInjected }
		}

		next, err := cluster.MigrateWith(migTortureShard, dst.addr.Data, src.addr.Data, quiet, hooks)
		if point == "commit" {
			if err != nil {
				return fmt.Errorf("crashtest: round %d: cutover failed: %w", round, err)
			}
			cur = next
			t.rep.Cutovers++
		} else {
			if !errors.Is(err, errInjected) {
				return fmt.Errorf("crashtest: round %d: expected injected abort at %s, got %v",
					round, point, err)
			}
			t.rep.Aborted++
		}

		// Power failure on the migration destination. MigrateWith has
		// stopped the puller on both the abort and the cutover path, and
		// the burst is drained, so the node is quiescent; on abort rounds
		// the pool still holds the partial shard copy the pull left behind.
		if err := t.powerFail(round, dst.srv); err != nil || point != "commit" {
			return err
		}

		// The old owner purges the migrated-away shard asynchronously; once
		// the purge drains (no committed pair of it left, counted under a
		// full freeze), power-fail it too — recovery over a freshly
		// mass-deleted shard is its own state.
		err = poll(15*time.Second, 5*time.Millisecond, func() error {
			cnt := 0
			err := src.srv.Freeze(func() {
				src.srv.RangeAll(func(sh int, _, _ uint64) bool {
					if sh == migTortureShard {
						cnt++
					}
					return true
				})
			})
			if err == nil && cnt > 0 {
				err = fmt.Errorf("crashtest: %s still holds %d keys of migrated shard %d",
					src.addr.Data, cnt, migTortureShard)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("crashtest: round %d: %w", round, err)
		}
		return t.powerFail(round, src.srv)
	}, nil
}
