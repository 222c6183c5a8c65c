// Command specpmt-load is a closed-loop load generator for specpmt-server.
// Each connection runs one goroutine issuing a mixed GET/SET/CAS/MULTI
// workload and records two latencies per request: wall time (host clock,
// includes network and queueing) and the server-reported modeled PM time
// (t=<ns> trailers). The run summary — per-op-type percentiles, throughput,
// and the server's own STATS counters — prints as JSON on stdout. The
// report embeds the seed, engine, profile, and workload knobs, so a run is
// reproducible from its report alone.
//
// Usage:
//
//	specpmt-load [-addr host:port] [-conns n] [-duration d] [-keys n]
//	             [-dist uniform|zipf] [-reads pct] [-cas pct] [-multi pct]
//	             [-multi-ops n] [-preload n] [-seed s]
//	             [-proto text|binary] [-pipeline-depth n]
//	             [-replica host:port] [-probe-every d] [-verify-replica n]
//	             [-scrape host:port] [-scrape-every d]
//	             [-cluster host:port,host:port,...]
//
// -proto selects the wire protocol (the framed binary protocol skips all
// text tokenization on both sides). -pipeline-depth N > 1 keeps a sliding
// window of N GET/SET requests in flight per connection instead of running
// closed-loop; sync points (MULTI, CAS's read-modify-write, stop) drain the
// window first. Wall latencies then include the client-side queueing of the
// window. Pipelining is incompatible with -replica's split read path.
//
// With -replica, GETs are served by the replica while writes go to the
// primary (-addr), and a prober measures replication staleness: it bumps a
// reserved key on the primary and immediately reads it back from the
// replica, reporting how stale the observed value is in wall time. After
// the run, -verify-replica N waits for the replica to drain its lag and
// compares N sampled keys against the primary; mismatches count as errors.
// Adding -replica-reads turns the replica GETs into LSN-token session reads
// (GETAT): each connection refreshes its token after every write, so the
// replica either serves read-your-writes or parks the read until it caught
// up, and the prober becomes a bounded-staleness read probe.
//
// Every GET also lands in one of the op_types entries get_snapshot /
// get_queued / get_replica, splitting read latency by serving path (MVCC
// snapshot fast path vs shard queue vs replica).
//
// With -scrape, the generator polls a server's admin /metrics endpoint (see
// specpmt-server -admin) every -scrape-every and embeds the time series in
// the JSON report: each point carries the unlabelled gauge/counter values
// plus per-shard-aggregated histogram means (batch size, commit latency,
// queue depth) — replication lag and batching behavior over the run's
// lifetime, not just its endpoint.
//
// With -cluster, ops route through the cluster map instead of one server:
// the listed seeds bootstrap a shared map view, each connection owns a
// cluster router that follows MOVED redirects and rides out mid-run
// migrations and failovers, and MULTI keys are redrawn until they land on
// one node (cross-node transactions are unsupported). The report then
// embeds a "cluster" section — the final map epoch, per-node op counts,
// redirect/refresh tallies — so a migration run is attributable from the
// JSON artifact alone. Incompatible with -replica and -pipeline-depth > 1.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"flag"

	"specpmt/internal/cluster"
	"specpmt/internal/server"
)

// probeKey is the reserved staleness-probe key — far outside any sane
// -keys range so the workload never collides with it.
const probeKey = ^uint64(0) - 12345

func main() {
	addr := flag.String("addr", "127.0.0.1:7077", "server address (the primary when -replica is set)")
	conns := flag.Int("conns", 64, "concurrent connections (one goroutine each)")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	keys := flag.Uint64("keys", 100_000, "key-space size")
	dist := flag.String("dist", "uniform", "key distribution: uniform or zipf")
	reads := flag.Int("reads", 50, "percent of single ops that are GET")
	cas := flag.Int("cas", 10, "percent of single ops that are CAS (rest are SET)")
	multi := flag.Int("multi", 5, "percent of requests that are MULTI...EXEC transactions")
	multiOps := flag.Int("multi-ops", 4, "operations per MULTI transaction")
	preload := flag.Uint64("preload", 10_000, "keys to SET before the timed run")
	seed := flag.Uint64("seed", 1, "workload seed")
	proto := flag.String("proto", "text", "wire protocol: text or binary")
	pipeDepth := flag.Int("pipeline-depth", 1, "GET/SET requests kept in flight per connection (1 = closed loop)")
	replica := flag.String("replica", "", "serve GETs from this replica and probe replication staleness")
	replicaReads := flag.Bool("replica-reads", false, "with -replica: GETs carry the session's last-seen LSN token (GETAT) so the replica serves read-your-writes or redirects; the staleness prober becomes a bounded-staleness read probe (text protocol only)")
	probeEvery := flag.Duration("probe-every", 2*time.Millisecond, "staleness probe interval (with -replica)")
	verifyReplica := flag.Int("verify-replica", 0, "after the run, wait for the replica to catch up and compare this many sampled keys against the primary")
	scrape := flag.String("scrape", "", "poll this admin /metrics endpoint during the run and embed the time series in the report")
	scrapeEvery := flag.Duration("scrape-every", 500*time.Millisecond, "scrape interval (with -scrape)")
	clusterSeeds := flag.String("cluster", "", "comma-separated data addresses of cluster nodes; route ops via the cluster map instead of -addr")
	flag.Parse()

	if *reads+*cas > 100 {
		fatalf("-reads + -cas must be <= 100")
	}
	if *dist != "uniform" && *dist != "zipf" {
		fatalf("-dist must be uniform or zipf")
	}
	if *conns <= 0 || *keys == 0 || *multiOps <= 0 {
		fatalf("-conns, -keys, and -multi-ops must be positive")
	}
	if *verifyReplica > 0 && *replica == "" {
		fatalf("-verify-replica needs -replica")
	}
	if *proto != "text" && *proto != "binary" {
		fatalf("-proto must be text or binary")
	}
	if *pipeDepth < 1 || *pipeDepth > 64 {
		fatalf("-pipeline-depth must be in 1..64")
	}
	if *pipeDepth > 1 && *replica != "" {
		fatalf("-pipeline-depth > 1 is incompatible with -replica (GETs and writes use different connections)")
	}
	if *replicaReads && *replica == "" {
		fatalf("-replica-reads needs -replica")
	}
	if *replicaReads && *proto != "text" {
		fatalf("-replica-reads needs -proto text (GETAT and LSN are text verbs)")
	}
	if *clusterSeeds != "" && *replica != "" {
		fatalf("-cluster is incompatible with -replica (the router already splits traffic by owner)")
	}
	if *clusterSeeds != "" && *pipeDepth > 1 {
		fatalf("-cluster is incompatible with -pipeline-depth > 1 (the router runs closed-loop)")
	}

	var view *cluster.View
	if *clusterSeeds != "" {
		v, err := cluster.NewView(strings.Split(*clusterSeeds, ","))
		if err != nil {
			fatalf("%v", err)
		}
		view = v
	}

	// Preload a prefix of the key space so GETs hit and CAS has a base. In
	// cluster mode each key routes to its owner; the banner (engine/profile
	// provenance) comes from shard 0's owner.
	n := *preload
	if n > *keys {
		n = *keys
	}
	var banner, negotiated string
	if view != nil {
		bc, err := server.DialProto(view.Map().Owners[0].Data, 10*time.Second, *proto)
		if err != nil {
			fatalf("%v", err)
		}
		banner = bc.Banner
		negotiated = bc.Proto()
		bc.Close()
		r := cluster.NewRouter(view, *proto)
		for k := uint64(0); k < n; k++ {
			if _, err := r.Do(server.Op{Kind: server.OpSet, Key: k, Arg1: k}); err != nil {
				fatalf("preload: %v", err)
			}
		}
		r.Close()
	} else {
		pre, err := server.DialProto(*addr, 10*time.Second, *proto)
		if err != nil {
			fatalf("%v", err)
		}
		for k := uint64(0); k < n; k++ {
			if _, err := pre.Set(k, k); err != nil {
				fatalf("preload: %v", err)
			}
		}
		banner = pre.Banner
		negotiated = pre.Proto()
		pre.Close()
	}

	var wg sync.WaitGroup
	workers := make([]*worker, *conns)
	stop := make(chan struct{})
	for i := range workers {
		w := &worker{
			cfg: cfg{
				keys: *keys, dist: *dist, reads: *reads, cas: *cas,
				multi: *multi, multiOps: *multiOps,
				proto: *proto, depth: *pipeDepth,
				replicaReads: *replicaReads,
			},
			rng:  rand.New(rand.NewSource(int64(*seed) + int64(i)*1_000_003)),
			stop: stop,
		}
		if view != nil {
			w.router = cluster.NewRouter(view, *proto)
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(*addr, *replica)
		}()
	}
	var pr *prober
	if *replica != "" {
		pr = &prober{every: *probeEvery, stop: stop, tokens: *replicaReads}
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr.run(*addr, *replica)
		}()
	}
	var sc *scraper
	if *scrape != "" {
		sc = &scraper{target: *scrape, every: *scrapeEvery, stop: stop}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.run()
		}()
	}
	start := time.Now()
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	rep := report{
		Addr:         *addr,
		Replica:      *replica,
		ReplicaReads: *replicaReads,
		Banner:       banner,
		Engine:       bannerField(banner, "engine"),
		Profile:      bannerField(banner, "profile"),
		Conns:        *conns,
		Duration:     elapsed.Seconds(),
		Keys:         *keys,
		Dist:         *dist,
		Seed:         *seed,
		Proto:        negotiated,
		Depth:        *pipeDepth,
		Workload: workload{
			Reads: *reads, CAS: *cas, Multi: *multi, MultiOps: *multiOps,
			Preload: n, ProbeEveryUs: float64(probeEvery.Microseconds()),
		},
		OpTypes: map[string]opReport{},
	}
	var all lats
	for _, kind := range []string{"get", "set", "cas", "multi", getSnapPath, getQueuedPath, getReplicaPath} {
		merged := lats{}
		for _, w := range workers {
			merged.wall = append(merged.wall, w.lat[kind].wall...)
			merged.model = append(merged.model, w.lat[kind].model...)
		}
		if len(merged.wall) == 0 {
			continue
		}
		rep.OpTypes[kind] = opReport{
			Ops:     len(merged.wall),
			WallUs:  percentiles(merged.wall, 1e-3),
			ModelNs: percentiles(merged.model, 1),
		}
		// The get_* entries split "get" by serving path; only the primary
		// kinds count toward the run totals.
		if !strings.HasPrefix(kind, "get_") {
			all.wall = append(all.wall, merged.wall...)
			all.model = append(all.model, merged.model...)
		}
	}
	for _, w := range workers {
		rep.Errors += w.errors
		rep.Conflicts += w.conflicts
	}
	rep.TotalOps = len(all.wall)
	rep.Throughput = float64(rep.TotalOps) / elapsed.Seconds()
	if view != nil {
		m := view.Map()
		cr := &clusterReport{
			Seeds:     strings.Split(*clusterSeeds, ","),
			Epoch:     m.Epoch,
			Shards:    m.Shards,
			Refreshes: view.Refreshes(),
		}
		byNode := map[string]uint64{}
		for _, w := range workers {
			if w.router == nil {
				continue
			}
			cr.Moved += w.router.Moved
			cr.Retries += w.router.Retries
			cr.CrossNode += w.crossNode
			for a, ops := range w.router.OpsByNode {
				byNode[a] += ops
			}
		}
		for _, nd := range m.Nodes() {
			cr.Nodes = append(cr.Nodes, nodeOps{
				Addr:   nd.Data,
				Shards: len(m.NodeShards(nd.Data)),
				Ops:    byNode[nd.Data],
			})
			delete(byNode, nd.Data)
		}
		// Nodes that served ops but left the final map (a failed-over
		// primary) still appear, attributed with zero owned shards.
		extra := make([]string, 0, len(byNode))
		for a := range byNode {
			extra = append(extra, a)
		}
		sort.Strings(extra)
		for _, a := range extra {
			cr.Nodes = append(cr.Nodes, nodeOps{Addr: a, Ops: byNode[a]})
		}
		rep.Cluster = cr
	}
	if pr != nil {
		rep.Staleness = &stalenessReport{
			Probes:      pr.probes,
			Misses:      pr.misses,
			Errors:      pr.errors,
			StaleUs:     percentiles(pr.staleNs, 1e-3),
			StaleProbes: len(pr.staleNs),
		}
		rep.Errors += pr.errors
	}

	if sc != nil {
		rep.Scrape = &scrapeReport{
			Target:   sc.target,
			EverySec: sc.every.Seconds(),
			Scrapes:  len(sc.points),
			Errors:   sc.errors,
			Points:   sc.points,
		}
		rep.Errors += sc.errors
	}

	// The server's own view of the run. In cluster mode -addr is unused;
	// each node's counters land under its address instead.
	if view != nil {
		rep.NodeStats = map[string]map[string]uint64{}
		for _, nd := range view.Map().Nodes() {
			rep.NodeStats[nd.Data] = fetchStats(nd.Data)
		}
	} else {
		rep.ServerStats = fetchStats(*addr)
	}
	if *replica != "" {
		rep.ReplicaStats = fetchStats(*replica)
	}

	if *verifyReplica > 0 {
		res, err := verify(*addr, *replica, *verifyReplica, *keys, *seed)
		if err != nil {
			fatalf("verify-replica: %v", err)
		}
		rep.Verify = res
		rep.Errors += res.Mismatches
		rep.ReplicaStats = fetchStats(*replica) // post-drain lag counters
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatalf("%v", err)
	}
	if rep.Errors > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "specpmt-load: "+format+"\n", args...)
	os.Exit(1)
}

// bannerField extracts key=value from the server banner.
func bannerField(banner, key string) string {
	for _, f := range strings.Fields(banner) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

func fetchStats(addr string) map[string]uint64 {
	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		return nil
	}
	defer c.Close()
	nums, _, err := c.Stats()
	if err != nil {
		return nil
	}
	return nums
}

// verify waits for the replica's applied LSN to reach the primary's head,
// then compares n sampled keys on both sides.
func verify(primary, replica string, n int, keys, seed uint64) (*verifyReport, error) {
	pc, err := server.Dial(primary, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer pc.Close()
	rc, err := server.Dial(replica, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer rc.Close()

	res := &verifyReport{SampledKeys: n}
	deadline := time.Now().Add(30 * time.Second)
	for {
		pstats, _, err := pc.Stats()
		if err != nil {
			return nil, err
		}
		rstats, _, err := rc.Stats()
		if err != nil {
			return nil, err
		}
		head := pstats["repl_head_lsn"]
		applied := rstats["repl_applied_lsn"]
		if applied >= head {
			res.DrainedAtLSN = applied
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replica stuck at lsn %d, primary head %d", applied, head)
		}
		time.Sleep(20 * time.Millisecond)
	}

	rng := rand.New(rand.NewSource(int64(seed) ^ 0x5eed))
	for i := 0; i < n; i++ {
		k := rng.Uint64() % keys
		pv, err := pc.Get(k)
		if err != nil {
			return nil, err
		}
		rv, err := rc.Get(k)
		if err != nil {
			return nil, err
		}
		if pv.Status != rv.Status || pv.Val != rv.Val {
			res.Mismatches++
			if len(res.Examples) < 5 {
				res.Examples = append(res.Examples,
					fmt.Sprintf("key %d: primary (%d,%d) replica (%d,%d)", k, pv.Status, pv.Val, rv.Status, rv.Val))
			}
		}
	}
	return res, nil
}

type cfg struct {
	keys                        uint64
	dist                        string
	reads, cas, multi, multiOps int
	proto                       string
	depth                       int  // in-flight GET/SET window per connection
	replicaReads                bool // GETs carry LSN tokens to the replica (GETAT)
}

// Read-path split keys for the op_types report: every GET lands in "get"
// AND one of these, by how the server served it.
const (
	getSnapPath    = "get_snapshot" // MVCC snapshot fast path (s=1 / SNAPREPLY)
	getQueuedPath  = "get_queued"   // shard worker queue
	getReplicaPath = "get_replica"  // served by the -replica follower
)

// getPath classifies one GET reply for the per-path latency split.
func getPath(onReplica, snap bool) string {
	if onReplica {
		return getReplicaPath
	}
	if snap {
		return getSnapPath
	}
	return getQueuedPath
}

// lats collects per-request latencies: wall nanoseconds (host clock) and
// modeled PM nanoseconds (server t= trailers).
type lats struct {
	wall  []int64
	model []int64
}

type worker struct {
	cfg       cfg
	rng       *rand.Rand
	stop      chan struct{}
	lat       map[string]*lats
	errors    int
	conflicts int

	// token is the connection's read-your-writes session token (-replica-
	// reads): the primary's published LSN observed after this worker's last
	// write, refreshed from every GETAT reply.
	token uint64

	// Cluster mode: the worker's private router over the shared map view.
	// crossNode counts MULTI draws discarded because the map moved between
	// the same-node check and the send.
	router    *cluster.Router
	crossNode int
}

func (w *worker) key() uint64 {
	if w.cfg.dist == "zipf" {
		// s=1.1, v=1 — a conventional skewed point; hottest keys are small.
		z := rand.NewZipf(w.rng, 1.1, 1, w.cfg.keys-1)
		return z.Uint64()
	}
	return w.rng.Uint64() % w.cfg.keys
}

func (w *worker) run(addr, replica string) {
	w.lat = map[string]*lats{
		"get": {}, "set": {}, "cas": {}, "multi": {},
		getSnapPath: {}, getQueuedPath: {}, getReplicaPath: {},
	}
	if w.router != nil {
		w.runCluster()
		return
	}
	c, err := server.DialProto(addr, 10*time.Second, w.cfg.proto)
	if err != nil {
		w.errors++
		return
	}
	defer c.Close()
	if w.cfg.depth > 1 {
		w.runPipelined(c) // -replica is rejected up front, so reader == c
		return
	}
	// In replica mode GETs go to the follower; writes (and CAS's
	// read-modify-write, which needs read-your-writes) stay on the primary.
	reader := c
	if replica != "" {
		rc, err := server.DialProto(replica, 10*time.Second, w.cfg.proto)
		if err != nil {
			w.errors++
			return
		}
		defer rc.Close()
		reader = rc
	}
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		kind, wallNs, modelNs, err := w.request(c, reader)
		if err != nil {
			w.errors++
			return
		}
		l := w.lat[kind]
		l.wall = append(l.wall, wallNs)
		l.model = append(l.model, modelNs)
	}
}

// request issues one operation and returns its type and latencies.
func (w *worker) request(c, reader *server.Client) (kind string, wallNs, modelNs int64, err error) {
	return w.requestRoll(c, reader, w.rng.Intn(100))
}

func (w *worker) requestRoll(c, reader *server.Client, roll int) (kind string, wallNs, modelNs int64, err error) {
	start := time.Now()
	switch {
	case roll < w.cfg.multi:
		ops := make([]server.Op, w.cfg.multiOps)
		for i := range ops {
			if i%2 == 0 {
				ops[i] = server.Op{Kind: server.OpSet, Key: w.key(), Arg1: w.rng.Uint64()}
			} else {
				ops[i] = server.Op{Kind: server.OpGet, Key: w.key()}
			}
		}
		_, ns, e := c.Exec(ops)
		return "multi", time.Since(start).Nanoseconds(), ns, e
	case roll < w.cfg.multi+w.cfg.reads:
		k := w.key()
		var r server.OpResult
		var e error
		if w.cfg.replicaReads && reader != c {
			// LSN-token session read: the replica holds the GET until its
			// applied LSN reaches the token, so this worker's own writes
			// are always visible. The reply refreshes the token.
			r, e = reader.GetAt(k, w.token)
			if e == nil && r.LSN > w.token {
				w.token = r.LSN
			}
		} else {
			r, e = reader.Get(k)
		}
		wallNs = time.Since(start).Nanoseconds()
		if e == nil {
			l := w.lat[getPath(reader != c, r.Snap)]
			l.wall = append(l.wall, wallNs)
			l.model = append(l.model, r.ModelNs)
		}
		return "get", wallNs, r.ModelNs, e
	case roll < w.cfg.multi+w.cfg.reads+w.cfg.cas:
		k := w.key()
		cur, e := c.Get(k)
		if e != nil {
			return "cas", 0, 0, e
		}
		old := cur.Val // NOTFOUND leaves 0; CAS then reports NOTFOUND or races
		start = time.Now()
		r, e := c.CAS(k, old, old+1)
		if e == nil && r.Status == server.StatusConflict {
			w.conflicts++
		}
		wallNs = time.Since(start).Nanoseconds()
		w.refreshToken(c, e)
		return "cas", wallNs, r.ModelNs, e
	default:
		r, e := c.Set(w.key(), w.rng.Uint64())
		wallNs = time.Since(start).Nanoseconds()
		w.refreshToken(c, e)
		return "set", wallNs, r.ModelNs, e
	}
}

// refreshToken advances the session's read-your-writes token past the write
// just acknowledged (-replica-reads only; one extra LSN round trip to the
// primary, outside the write's measured latency).
func (w *worker) refreshToken(c *server.Client, writeErr error) {
	if !w.cfg.replicaReads || writeErr != nil {
		return
	}
	if t, err := c.LSN(); err == nil && t > w.token {
		w.token = t
	}
}

// runCluster is the closed-loop body for cluster mode: every op goes
// through the worker's router, which owns redirect-following and failover
// retries. Connection errors don't kill the worker here — the router only
// surfaces an error once its whole retry budget is spent, and that counts.
func (w *worker) runCluster() {
	defer w.router.Close()
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		kind, wallNs, modelNs, err := w.requestCluster()
		if err != nil {
			w.errors++
			return
		}
		l := w.lat[kind]
		l.wall = append(l.wall, wallNs)
		l.model = append(l.model, modelNs)
	}
}

// requestCluster issues one routed operation. MULTI keys are redrawn until
// every key maps to one node — cross-node transactions are unsupported —
// and a draw invalidated by a concurrent map change (ErrCrossNode from the
// router's re-check) is discarded and redrawn, not counted as an error.
func (w *worker) requestCluster() (kind string, wallNs, modelNs int64, err error) {
	roll := w.rng.Intn(100)
	start := time.Now()
	switch {
	case roll < w.cfg.multi:
		keys := make([]uint64, w.cfg.multiOps)
		ops := make([]server.Op, w.cfg.multiOps)
		for {
			for i := range keys {
				keys[i] = w.key()
			}
			if !w.router.SameNode(keys) {
				continue
			}
			for i, k := range keys {
				if i%2 == 0 {
					ops[i] = server.Op{Kind: server.OpSet, Key: k, Arg1: w.rng.Uint64()}
				} else {
					ops[i] = server.Op{Kind: server.OpGet, Key: k}
				}
			}
			_, ns, e := w.router.Exec(ops)
			if errors.Is(e, cluster.ErrCrossNode) {
				w.crossNode++
				continue
			}
			return "multi", time.Since(start).Nanoseconds(), ns, e
		}
	case roll < w.cfg.multi+w.cfg.reads:
		r, e := w.router.Do(server.Op{Kind: server.OpGet, Key: w.key()})
		wallNs = time.Since(start).Nanoseconds()
		if e == nil {
			l := w.lat[getPath(false, r.Snap)]
			l.wall = append(l.wall, wallNs)
			l.model = append(l.model, r.ModelNs)
		}
		return "get", wallNs, r.ModelNs, e
	case roll < w.cfg.multi+w.cfg.reads+w.cfg.cas:
		k := w.key()
		cur, e := w.router.Do(server.Op{Kind: server.OpGet, Key: k})
		if e != nil {
			return "cas", 0, 0, e
		}
		old := cur.Val // NOTFOUND leaves 0, matching the single-node path
		start = time.Now()
		r, e := w.router.Do(server.Op{Kind: server.OpCAS, Key: k, Arg1: old, Arg2: old + 1})
		if e == nil && r.Status == server.StatusConflict {
			w.conflicts++
		}
		return "cas", time.Since(start).Nanoseconds(), r.ModelNs, e
	default:
		r, e := w.router.Do(server.Op{Kind: server.OpSet, Key: w.key(), Arg1: w.rng.Uint64()})
		return "set", time.Since(start).Nanoseconds(), r.ModelNs, e
	}
}

// runPipelined drives one connection with a sliding window of cfg.depth
// GET/SET requests in flight: each new request is queued with SendOp, and
// once the window is full every send is paired with one RecvResult for the
// oldest outstanding request. Wall latency spans send-to-reply, so it
// includes the window's queueing. MULTI and CAS are synchronization points
// (CAS needs read-your-writes; Exec uses its own reply framing), so the
// window drains before them.
func (w *worker) runPipelined(c *server.Client) {
	type inflight struct {
		kind  string
		start time.Time
	}
	window := make([]inflight, 0, w.cfg.depth)
	recvOne := func() error {
		r, err := c.RecvResult()
		if err != nil {
			return err
		}
		f := window[0]
		copy(window, window[1:])
		window = window[:len(window)-1]
		wallNs := time.Since(f.start).Nanoseconds()
		l := w.lat[f.kind]
		l.wall = append(l.wall, wallNs)
		l.model = append(l.model, r.ModelNs)
		if f.kind == "get" {
			p := w.lat[getPath(false, r.Snap)]
			p.wall = append(p.wall, wallNs)
			p.model = append(p.model, r.ModelNs)
		}
		return nil
	}
	drain := func() error {
		for len(window) > 0 {
			if err := recvOne(); err != nil {
				return err
			}
		}
		return nil
	}
	fail := func() { w.errors++ }
	for {
		select {
		case <-w.stop:
			if drain() != nil {
				fail()
			}
			return
		default:
		}
		roll := w.rng.Intn(100)
		switch {
		case roll < w.cfg.multi || roll < w.cfg.multi+w.cfg.reads+w.cfg.cas && roll >= w.cfg.multi+w.cfg.reads:
			// Sync op: drain, then reuse the closed-loop path.
			if drain() != nil {
				fail()
				return
			}
			kind, wallNs, modelNs, err := w.requestRoll(c, c, roll)
			if err != nil {
				fail()
				return
			}
			l := w.lat[kind]
			l.wall = append(l.wall, wallNs)
			l.model = append(l.model, modelNs)
		case roll < w.cfg.multi+w.cfg.reads:
			window = append(window, inflight{kind: "get", start: time.Now()})
			if err := c.SendOp(server.Op{Kind: server.OpGet, Key: w.key()}); err != nil {
				fail()
				return
			}
		default:
			window = append(window, inflight{kind: "set", start: time.Now()})
			if err := c.SendOp(server.Op{Kind: server.OpSet, Key: w.key(), Arg1: w.rng.Uint64()}); err != nil {
				fail()
				return
			}
		}
		if len(window) >= w.cfg.depth {
			if err := recvOne(); err != nil {
				fail()
				return
			}
		}
	}
}

// prober measures replication staleness: it bumps probeKey on the primary
// with a sequence number, immediately reads it back from the replica, and
// reports the age of the write whose value it observed.
type prober struct {
	every   time.Duration
	stop    chan struct{}
	tokens  bool // bounded-staleness mode: read back via GETAT with a fresh LSN token
	probes  int
	misses  int // probe value not yet visible on the replica at all
	errors  int
	staleNs []int64
	times   []time.Time // times[i] = when sequence i+1 was written
}

func (p *prober) run(primary, replica string) {
	pc, err := server.Dial(primary, 10*time.Second)
	if err != nil {
		p.errors++
		return
	}
	defer pc.Close()
	rc, err := server.Dial(replica, 10*time.Second)
	if err != nil {
		p.errors++
		return
	}
	defer rc.Close()
	tick := time.NewTicker(p.every)
	defer tick.Stop()
	var seq uint64
	for {
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
		seq++
		if _, err := pc.Set(probeKey, seq); err != nil {
			p.errors++
			return
		}
		p.times = append(p.times, time.Now())
		var r server.OpResult
		var err error
		if p.tokens {
			// Bounded-staleness probe: fetch the primary's published LSN
			// (which covers the Set just acked) and read back with it as
			// the token — the replica parks the read until it caught up,
			// so the probe measures the wait, not a miss rate.
			token, terr := pc.LSN()
			if terr != nil {
				p.errors++
				return
			}
			if r, err = rc.GetAt(probeKey, token); err != nil {
				// A replica still behind after the GETAT timeout answers
				// ERR; count it against the probe and move on.
				p.probes++
				p.misses++
				continue
			}
		} else if r, err = rc.Get(probeKey); err != nil {
			p.errors++
			return
		}
		p.probes++
		if r.Status != server.StatusValue || r.Val == 0 || r.Val > seq {
			p.misses++
			continue
		}
		p.staleNs = append(p.staleNs, time.Since(p.times[r.Val-1]).Nanoseconds())
	}
}

// pctl summarizes a latency population.
type pctl struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// percentiles sorts samples (nanoseconds) and reports them scaled by
// `scale` (1e-3 turns ns into µs).
func percentiles(samples []int64, scale float64) pctl {
	if len(samples) == 0 {
		return pctl{}
	}
	s := make([]int64, len(samples))
	copy(s, samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	at := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return float64(s[i]) * scale
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return pctl{
		P50:  at(0.50),
		P90:  at(0.90),
		P99:  at(0.99),
		P999: at(0.999),
		Max:  float64(s[len(s)-1]) * scale,
		Mean: sum / float64(len(s)) * scale,
	}
}

type opReport struct {
	Ops int `json:"ops"`
	// WallUs is host wall-clock latency in microseconds.
	WallUs pctl `json:"wall_us"`
	// ModelNs is the server-reported modeled PM time in nanoseconds.
	ModelNs pctl `json:"model_ns"`
}

type workload struct {
	Reads        int     `json:"reads_pct"`
	CAS          int     `json:"cas_pct"`
	Multi        int     `json:"multi_pct"`
	MultiOps     int     `json:"multi_ops"`
	Preload      uint64  `json:"preload"`
	ProbeEveryUs float64 `json:"probe_every_us,omitempty"`
}

type stalenessReport struct {
	Probes      int  `json:"probes"`
	Misses      int  `json:"misses"`
	Errors      int  `json:"errors"`
	StaleProbes int  `json:"stale_probes"`
	StaleUs     pctl `json:"stale_us"`
}

type verifyReport struct {
	SampledKeys  int      `json:"sampled_keys"`
	Mismatches   int      `json:"mismatches"`
	DrainedAtLSN uint64   `json:"drained_at_lsn"`
	Examples     []string `json:"examples,omitempty"`
}

type report struct {
	Addr         string              `json:"addr"`
	Replica      string              `json:"replica,omitempty"`
	ReplicaReads bool                `json:"replica_reads,omitempty"`
	Banner       string              `json:"banner"`
	Engine       string              `json:"engine"`
	Profile      string              `json:"profile"`
	Conns        int                 `json:"conns"`
	Duration     float64             `json:"duration_sec"`
	Keys         uint64              `json:"keys"`
	Dist         string              `json:"dist"`
	Seed         uint64              `json:"seed"`
	Proto        string              `json:"proto"`
	Depth        int                 `json:"pipeline_depth"`
	Workload     workload            `json:"workload"`
	TotalOps     int                 `json:"total_ops"`
	Throughput   float64             `json:"throughput_ops_sec"`
	Errors       int                 `json:"errors"`
	Conflicts    int                 `json:"cas_conflicts"`
	OpTypes      map[string]opReport `json:"op_types"`
	Staleness    *stalenessReport    `json:"staleness,omitempty"`
	Verify       *verifyReport       `json:"verify_replica,omitempty"`
	ServerStats  map[string]uint64   `json:"server_stats,omitempty"`
	ReplicaStats map[string]uint64   `json:"replica_stats,omitempty"`
	Scrape       *scrapeReport       `json:"scrape,omitempty"`
	Cluster      *clusterReport      `json:"cluster,omitempty"`
	// NodeStats holds each cluster node's STATS counters keyed by data
	// address (cluster mode's replacement for server_stats).
	NodeStats map[string]map[string]uint64 `json:"node_stats,omitempty"`
}

// clusterReport attributes a cluster-mode run: the final map epoch (a
// mid-run migration or failover shows as an epoch the run didn't start
// with), per-node op counts, and the router fleet's redirect tallies.
type clusterReport struct {
	Seeds     []string  `json:"seeds"`
	Epoch     uint64    `json:"epoch"`
	Shards    int       `json:"shards"`
	Moved     uint64    `json:"moved_redirects"`
	Retries   uint64    `json:"retries"`
	Refreshes uint64    `json:"map_refreshes"`
	CrossNode int       `json:"cross_node_redraws"`
	Nodes     []nodeOps `json:"nodes"`
}

// nodeOps is one node's share of the run: ops the client fleet completed
// against it and the shards it owns in the final map (0 = it left the map,
// e.g. a failed-over primary that served ops before dying).
type nodeOps struct {
	Addr   string `json:"addr"`
	Shards int    `json:"owned_shards"`
	Ops    uint64 `json:"ops"`
}

// scrapeReport embeds the admin-endpoint time series gathered during the run
// (-scrape): one point per poll of /metrics, so a report carries how lag,
// batching, and queue depth evolved rather than just their final values.
type scrapeReport struct {
	Target   string        `json:"target"`
	EverySec float64       `json:"every_sec"`
	Scrapes  int           `json:"scrapes"`
	Errors   int           `json:"errors"`
	Points   []scrapePoint `json:"points"`
}

// scrapePoint is one /metrics poll: TSec is seconds since the scraper
// started; Metrics holds every unlabelled counter/gauge series plus derived
// per-shard-aggregate histogram means (specpmt_batch_jobs_mean,
// specpmt_commit_ns_mean, specpmt_queue_depth_mean).
type scrapePoint struct {
	TSec    float64            `json:"t_sec"`
	Metrics map[string]float64 `json:"metrics"`
}

// scraper polls an admin /metrics endpoint on a fixed cadence until stopped.
type scraper struct {
	target string
	every  time.Duration
	stop   chan struct{}
	points []scrapePoint
	errors int
}

func (s *scraper) run() {
	client := &http.Client{Timeout: 2 * time.Second}
	url := "http://" + s.target + "/metrics"
	start := time.Now()
	tick := time.NewTicker(s.every)
	defer tick.Stop()
	for {
		if m, err := scrapeOnce(client, url); err != nil {
			s.errors++
		} else {
			s.points = append(s.points, scrapePoint{
				TSec:    time.Since(start).Seconds(),
				Metrics: m,
			})
		}
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}

// scrapeOnce fetches one Prometheus text exposition and reduces it to a flat
// point: unlabelled series pass through; labelled histogram _sum/_count
// series are aggregated across shards into a single mean per family.
func scrapeOnce(client *http.Client, url string) (map[string]float64, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", url, resp.StatusCode)
	}
	out := make(map[string]float64)
	sums := make(map[string]float64)   // histogram family -> sum of _sum series
	counts := make(map[string]float64) // histogram family -> sum of _count series
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		name := series
		if br := strings.IndexByte(series, '{'); br >= 0 {
			name = series[:br]
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			// Bucket series are too bulky for a per-point snapshot.
		case strings.HasSuffix(name, "_sum"):
			sums[strings.TrimSuffix(name, "_sum")] += val
		case strings.HasSuffix(name, "_count"):
			counts[strings.TrimSuffix(name, "_count")] += val
		default:
			// Scalar series. Labelled ones (per-op counters, per-shard
			// gauges) sum into their family total; unlabelled ones appear
			// once, so += is a plain assignment.
			out[name] += val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for fam, n := range counts {
		if n > 0 {
			out[fam+"_mean"] = sums[fam] / n
		}
	}
	return out, nil
}
