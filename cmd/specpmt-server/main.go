// Command specpmt-server serves the SpecPMT transactional key-value store
// over TCP (see internal/server for the wire protocol).
//
// Usage:
//
//	specpmt-server [-addr host:port] [-engine spec|undo|hashlog|...]
//	               [-profile optane-adr|...] [-shards n] [-pool-size bytes]
//	               [-max-batch n] [-max-conns n]
//	               [-max-inflight n] [-proto auto|text|binary]
//	               [-admin host:port] [-log-format text|json] [-log-level l]
//	               [-slow-op d] [-span-buf n]
//	               [-replicate-to host:port] [-repl-sync async|ack]
//	               [-repl-batch-window d] [-repl-log-cap n]
//	               [-replica-of host:port]
//	               [-compact-every d] [-compact-frag-pct n]
//	               [-cluster | -join host:port] [-advertise host:port]
//	specpmt-server -promote host:port
//	specpmt-server -migrate shard -to host:port -seed host:port
//	specpmt-server -failover host:port -to host:port -seed host:port
//
// Engine names accept both registry names ("SpecSPMT", "PMDK") and short
// aliases ("spec", "undo"). SIGINT/SIGTERM drain in-flight requests and
// exit 0.
//
// Observability (see internal/obs): -admin starts a separate HTTP listener
// exposing Prometheus metrics at /metrics, liveness at /healthz, drain-aware
// readiness at /readyz, a Chrome/Perfetto trace of recent request spans at
// /debug/spans, and the Go profiler under /debug/pprof/. Logs go to stderr
// as structured slog lines (-log-format json for machine ingestion), and
// requests slower than -slow-op are logged with a phase breakdown.
//
// Replication (see internal/repl): -replicate-to makes this server a
// primary publishing its commit log on the given address; -replica-of
// makes it a read-only replica tailing the primary's log at that address.
// -promote is an admin command: it connects to a running replica, sends
// PROMOTE, and exits — the replica detaches and starts serving writes.
//
// Clustering (see internal/cluster): -cluster bootstraps a fresh
// single-node cluster map owning every shard; -join fetches the map from an
// existing node instead. -advertise is the data address other nodes and
// clients should dial for this node (defaults to -addr; set it when -addr
// binds a wildcard). A node that should serve as a migration source or host
// promotable replicas also needs -replicate-to, which becomes its
// advertised replication address. -migrate and -failover are coordinator
// admin commands: -migrate moves one shard to the node at -to, -failover
// retires a dead node in favor of its promoted replica at -to; both read
// the current map via -seed, drive the cutover, push the bumped map to
// every node, and exit.
//
// -compact-every enables the background heap compactor: every tick, if the
// data heap's footprint exceeds -compact-frag-pct percent of its live
// bytes and no request is in flight, the server compacts under a freeze
// (see specpmt_compactions_total / specpmt_compact_freed_bytes_total).
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"specpmt/internal/cluster"
	"specpmt/internal/obs"
	"specpmt/internal/repl"
	"specpmt/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "TCP listen address")
	engine := flag.String("engine", "spec", "crash-consistency engine (name or alias: spec, spec-dp, hashlog, undo, kamino, spht, spec-hw, nolog)")
	profile := flag.String("profile", "", "simulated media profile (default optane-adr)")
	shards := flag.Int("shards", 4, "worker shards (1..16); each owns one engine thread")
	poolSize := flag.Int("pool-size", 256<<20, "persistent pool size in bytes")
	maxBatch := flag.Int("max-batch", 32, "cap on requests per group commit; a worker commits what is queued and never waits to fill it (<=1 disables batching)")
	maxConns := flag.Int("max-conns", 256, "max concurrent connections")
	maxInFlight := flag.Int("max-inflight", 1024, "max requests admitted to worker queues")
	mvccOn := flag.Bool("mvcc", true, "serve GETs and read-only MULTIs lock-free from MVCC snapshots instead of the worker queues")
	proto := flag.String("proto", "auto", "accepted wire protocols: auto (both), text, binary")
	adminAddr := flag.String("admin", "", "admin HTTP listen address (/metrics, /healthz, /readyz, /debug/spans, /debug/pprof); empty disables")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug | info | warn | error")
	slowOp := flag.Duration("slow-op", 0, "log requests slower than this wall-clock duration with a phase breakdown (0 disables)")
	spanBuf := flag.Int("span-buf", obs.DefaultSpanCap, "live request spans retained for /debug/spans")
	replicateTo := flag.String("replicate-to", "", "publish the commit log for replicas on this address (primary role)")
	replSync := flag.String("repl-sync", "async", "replication sync mode: async | ack (wait for replica acks on commit)")
	replBatchWindow := flag.Duration("repl-batch-window", 0, "how long the primary waits to coalesce records into one shipped batch")
	replLogCap := flag.Int("repl-log-cap", 0, "records retained in the primary's replication log (0 = default)")
	replicaOf := flag.String("replica-of", "", "tail the primary's commit log at this address (read-only replica role)")
	promote := flag.String("promote", "", "admin: send PROMOTE to the replica serving at this address, then exit")
	compactEvery := flag.Duration("compact-every", 0, "background heap-compactor tick; compacts when idle and fragmented past -compact-frag-pct (0 disables)")
	compactFragPct := flag.Int("compact-frag-pct", 0, "compaction fragmentation threshold: compact when footprint exceeds this percent of live bytes (0 = default 150)")
	clusterMode := flag.Bool("cluster", false, "bootstrap a single-node cluster map owning every shard (grow it with -migrate)")
	join := flag.String("join", "", "join the cluster by fetching the map from this node's data address")
	advertise := flag.String("advertise", "", "data address other nodes and clients dial for this node (default -addr)")
	migrateShard := flag.Int("migrate", -1, "admin: migrate this shard to the node at -to, via the map at -seed, then exit")
	failoverAddr := flag.String("failover", "", "admin: fail over the dead node at this data address to its replica at -to, via the map at -seed, then exit")
	to := flag.String("to", "", "destination data address for -migrate / -failover")
	seed := flag.String("seed", "", "data address of a live cluster node to read the map from (-migrate / -failover)")
	flag.Parse()

	if *promote != "" {
		c, err := server.Dial(*promote, 5*time.Second)
		if err != nil {
			fmt.Fprintf(os.Stderr, "specpmt-server: %v\n", err)
			os.Exit(1)
		}
		defer c.Close()
		if err := c.Promote(); err != nil {
			fmt.Fprintf(os.Stderr, "specpmt-server: promote: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("promoted")
		return
	}
	if *replicateTo != "" && *replicaOf != "" {
		fmt.Fprintln(os.Stderr, "specpmt-server: -replicate-to and -replica-of are mutually exclusive")
		os.Exit(1)
	}
	syncMode, err := repl.ParseSyncMode(*replSync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specpmt-server: %v\n", err)
		os.Exit(1)
	}

	level, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specpmt-server: %v\n", err)
		os.Exit(1)
	}
	logger, err := obs.NewLogger(*logFormat, os.Stderr, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "specpmt-server: %v\n", err)
		os.Exit(1)
	}

	// Coordinator admin commands: drive the cutover against running nodes,
	// print the resulting map epoch, and exit without serving anything.
	if *migrateShard >= 0 || *failoverAddr != "" {
		if *to == "" || *seed == "" {
			fmt.Fprintln(os.Stderr, "specpmt-server: -migrate / -failover need -to and -seed")
			os.Exit(1)
		}
		var m *cluster.Map
		if *migrateShard >= 0 {
			m, err = cluster.Migrate(*migrateShard, *to, *seed, logger.With("role", "coordinator"))
		} else {
			m, err = cluster.Failover(*failoverAddr, *to, *seed, logger.With("role", "coordinator"))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "specpmt-server: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("epoch %d\n", m.Epoch)
		return
	}
	if *clusterMode && *join != "" {
		fmt.Fprintln(os.Stderr, "specpmt-server: -cluster and -join are mutually exclusive")
		os.Exit(1)
	}

	// One observability plane for every subsystem: the server, the
	// replication role, and the admin endpoint all share its registry,
	// span ring, and logger.
	plane := obs.NewPlane(logger, *slowOp)
	if *spanBuf > 0 {
		plane.Spans = obs.NewSpanRecorder(*spanBuf)
	} else {
		plane.Spans = nil
	}

	s, err := server.New(server.Config{
		Addr:        *addr,
		Engine:      server.ResolveEngine(*engine),
		Profile:     *profile,
		Shards:      *shards,
		PoolSize:    *poolSize,
		MaxBatch:    *maxBatch,
		MaxConns:    *maxConns,
		MaxInFlight: *maxInFlight,
		Obs:         plane,

		NoMVCC:         !*mvccOn,
		Proto:          *proto,
		CompactEvery:   *compactEvery,
		CompactFragPct: *compactFragPct,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "specpmt-server: %v\n", err)
		os.Exit(1)
	}
	// Refuse to serve from a pool whose recovered state violates a
	// recovery invariant: better to fail loudly at startup than to serve
	// (and replicate) corrupt data. The run also feeds the
	// specpmt_recovery_checks metrics family.
	if err := s.SelfCheck(); err != nil {
		fmt.Fprintf(os.Stderr, "specpmt-server: startup recovery self-check: %v\n", err)
		os.Exit(1)
	}
	logger.Info("startup recovery self-check passed", "engine", server.ResolveEngine(*engine), "shards", *shards)

	var primary *repl.Primary
	var replica *repl.Replica
	switch {
	case *replicateTo != "":
		primary = repl.NewPrimary(s, repl.PrimaryOptions{
			LogCap:      *replLogCap,
			BatchWindow: *replBatchWindow,
			Sync:        syncMode,
			Log:         logger.With("role", "primary"),
			Spans:       plane.Spans,
		})
		if err := primary.Start(*replicateTo); err != nil {
			fmt.Fprintf(os.Stderr, "specpmt-server: replication listener: %v\n", err)
			os.Exit(1)
		}
		logger.Info("primary: publishing commit log",
			"addr", primary.Addr().String(), "sync", syncMode.String())
	case *replicaOf != "":
		replica, err = repl.NewReplica(s, *replicaOf, repl.ReplicaOptions{
			Log:   logger.With("role", "replica"),
			Spans: plane.Spans,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "specpmt-server: %v\n", err)
			os.Exit(1)
		}
		replica.Start()
		logger.Info("replica: tailing primary (read-only until PROMOTE)", "primary", *replicaOf)
	}

	// Cluster role: install the cluster extension verbs and either mint a
	// fresh single-node map (-cluster) or adopt an existing one (-join).
	// The node's advertised replication address is -replicate-to — a node
	// without one can still own shards but cannot serve as a migration
	// source or host promotable replicas.
	var node *cluster.Node
	if *clusterMode || *join != "" {
		adv := *advertise
		if adv == "" {
			adv = *addr
		}
		node = cluster.NewNode(s, primary, cluster.Addr{Data: adv, Repl: *replicateTo}, cluster.NodeOptions{
			Log: logger.With("role", "cluster"),
			Rec: plane.Spans,
		})
		if *join != "" {
			if err := node.Join(*join); err != nil {
				fmt.Fprintf(os.Stderr, "specpmt-server: %v\n", err)
				os.Exit(1)
			}
			logger.Info("cluster: joined", "seed", *join, "advertise", adv)
		} else {
			node.Bootstrap()
			logger.Info("cluster: bootstrapped single-node map", "shards", *shards, "advertise", adv)
		}
	}

	var admin *obs.Admin
	if *adminAddr != "" {
		admin = obs.NewAdmin(obs.AdminOptions{
			Registry: s.Registry(),
			Spans:    plane.Spans,
			Log:      logger,
		})
		if err := admin.Start(*adminAddr); err != nil {
			fmt.Fprintf(os.Stderr, "specpmt-server: admin listener: %v\n", err)
			os.Exit(1)
		}
		admin.SetReady(true)
		logger.Info("admin endpoint serving", "addr", admin.Addr().String())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe() }()

	shutdown := func() {
		// Drain ordering: readiness flips first so load balancers stop
		// routing here, then the replication role detaches, then the data
		// listener drains. The admin listener closes last — /metrics and
		// /debug/spans stay scrapeable through the whole drain.
		if admin != nil {
			admin.BeginDrain()
		}
		if node != nil {
			node.Close() // stop migration pullers before the roles detach
		}
		if replica != nil {
			replica.Close()
		}
		if primary != nil {
			primary.Close()
		}
	}
	closeAdmin := func() {
		if admin != nil {
			admin.Close()
		}
	}
	select {
	case got := <-sig:
		logger.Info("caught signal, draining", "signal", got.String())
		shutdown()
		if err := s.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "specpmt-server: shutdown: %v\n", err)
			closeAdmin()
			os.Exit(1)
		}
		<-done // Serve returns nil once Close finishes draining
		closeAdmin()
	case err := <-done:
		shutdown()
		closeAdmin()
		if err != nil {
			fmt.Fprintf(os.Stderr, "specpmt-server: %v\n", err)
			os.Exit(1)
		}
	}
}

func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug|info|warn|error)", s)
}
