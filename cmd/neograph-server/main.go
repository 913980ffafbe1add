// Command neograph-server serves a neograph database over TCP.
//
// Usage:
//
//	neograph-server -addr 127.0.0.1:7475 -dir /var/lib/neograph
//
// An empty -dir runs fully in memory. The server checkpoints and runs
// the version garbage collector in the background, and shuts down
// cleanly on SIGINT/SIGTERM.
//
// Replication: a primary additionally listens for replicas with
// -repl-addr; a replica points -replica-of at that address, streams the
// primary's WAL, and serves snapshot-isolated reads at its applied
// position (writes are redirected to the primary):
//
//	neograph-server -dir /var/lib/ng  -addr :7475 -repl-addr :7476
//	neograph-server -dir /var/lib/ng2 -addr :7575 -replica-of primary:7476
//
// Partitioning: a fleet can hash-partition the ID space across several
// replication groups. Every node gets the same -partition-peers map and
// its own -partition-id; partition p owns all IDs with id % count == p,
// and batches that span partitions commit atomically via two-phase
// commit driven by the partition that receives them:
//
//	neograph-server -dir /d/p0 -addr :7475 -repl-addr :7476 \
//	    -partition-id 0 -partition-peers '0=127.0.0.1:7475;1=127.0.0.1:7575'
//	neograph-server -dir /d/p1 -addr :7575 -repl-addr :7576 \
//	    -partition-id 1 -partition-peers '0=127.0.0.1:7475;1=127.0.0.1:7575'
//
// Observability: -log-level selects the structured-log floor (key=value
// records on stderr); -trace-sample enables distributed tracing (traced
// requests are readable as JSONL from /debug/traces on the -pprof-addr
// or -metrics-addr listener); -slow-op logs the full span tree of any
// traced request slower than the threshold.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"neograph"
	"neograph/internal/cluster"
	"neograph/internal/fleet"
	"neograph/internal/metrics"
	"neograph/internal/partition"
	"neograph/internal/server"
	"neograph/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7475", "listen address")
		dir         = flag.String("dir", "", "database directory (empty = in-memory)")
		rc          = flag.Bool("read-committed", false, "default to read committed instead of snapshot isolation")
		fcw         = flag.Bool("first-committer-wins", false, "use first-committer-wins conflict policy")
		noSync      = flag.Bool("no-sync", false, "disable commit WAL fsync entirely")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof (and /metrics, /debug/traces) on this address (empty = disabled), e.g. 127.0.0.1:6060")
		metricsOn   = flag.String("metrics-addr", "", "serve Prometheus /metrics (and /debug/traces) on this address (empty = ride -pprof-addr if set)")
		maxInfl     = flag.Int("max-inflight", 0, "admission control: max concurrently executing requests, excess rejected with code \"overloaded\" (0 = unlimited)")
		maxQueued   = flag.Int64("max-queued-bytes", 0, "admission control: max admitted request-frame bytes in flight (0 = unlimited)")
		gcEvery     = flag.Duration("gc-interval", 5*time.Second, "garbage collection interval")
		ckpEvery    = flag.Duration("checkpoint-interval", 30*time.Second, "checkpoint interval (persistent mode)")
		replAddr    = flag.String("repl-addr", "", "primary: stream the WAL to replicas on this address; replica: the address to ship from if promoted (bound at promotion, not before)")
		replicaOf   = flag.String("replica-of", "", "replica: stream the WAL from this primary replication address (read-only; promote with the 'promote' wire op)")
		syncReps    = flag.Int("sync-replicas", 0, "primary: acknowledge a commit only after this many replicas durably acked it (0 = async)")
		syncTmo     = flag.Duration("sync-timeout", 0, "primary: degrade a waiting commit to async after this long (0 = 1s default, negative = never)")
		drainGrace  = flag.Duration("drain-grace", 0, "how long shutdown waits for in-flight requests to finish before hard-closing (0 = 5s default)")
		nodeID      = flag.Uint64("node-id", 0, "cluster: this node's unique non-zero ID (election tie-break; lower wins); enables the self-driving cluster controller with -cluster-peers")
		clusterSelf = flag.String("cluster-self", "", "cluster: this node's client address as peers dial it (announced in cluster_status; default -addr)")
		clusterPeer = flag.String("cluster-peers", "", "cluster: comma-separated client addresses of every OTHER fleet member, including the current primary")
		suspectTmo  = flag.Duration("suspect-after", 0, "cluster: continuous stream outage before the primary is suspected (0 = 2s default)")
		electTmo    = flag.Duration("election-timeout", 0, "cluster: how long an election loser waits for the winner before re-electing (0 = 5s default)")
		probeEvery  = flag.Duration("cluster-probe-every", 0, "cluster: control-loop tick interval, jittered (0 = 500ms default)")
		partID      = flag.Uint("partition-id", 0, "partition: the hash partition this node's group owns (IDs with id % count == partition-id)")
		partPeers   = flag.String("partition-peers", "", "partition: the full fleet map 'id=addr,addr;id=addr,...' — client addresses of every partition's group, identical on every node; enables partitioned mode")
		partCount   = flag.Int("partition-count", 0, "partition: expected partition count; must match -partition-peers when both are given (sanity check only)")
		logLevel    = flag.String("log-level", "info", "log floor: debug, info, warn or error")
		traceSample = flag.Float64("trace-sample", 0, "head-sampling rate in [0,1] for traces rooted at this server; requests arriving with a client-minted trace context always record regardless")
		traceBuf    = flag.Int("trace-buffer", 0, "finished traces retained for /debug/traces (0 = 256)")
		slowOp      = flag.Duration("slow-op", 0, "log the full span tree of traced requests slower than this (0 = disabled)")
	)
	flag.Parse()

	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
		os.Exit(2)
	}
	var lvl slog.LevelVar
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		usage("-log-level: %v", err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: &lvl}))

	// One tracer and one registry back every layer and every /metrics
	// and /debug/traces mount: requests arriving with a client-minted
	// trace context always record, and -trace-sample additionally
	// head-samples untraced work server-side.
	tracer := trace.New(*traceSample, *traceBuf)
	reg := metrics.NewRegistry()
	cfg := fleet.Config{
		DB: neograph.Options{
			Dir:                *dir,
			DisableSyncCommits: *noSync,
			GCInterval:         *gcEvery,
			CheckpointInterval: *ckpEvery,
			ReplicationAddr:    *replAddr,
			ReplicaOf:          *replicaOf,
			SyncReplicas:       *syncReps,
			SyncReplicaTimeout: *syncTmo,
			Tracer:             tracer,
			Logger:             logger,
		},
		Addr: *addr,
		Server: server.Config{
			DrainGrace:     *drainGrace,
			MaxInflight:    *maxInfl,
			MaxQueuedBytes: *maxQueued,
			Metrics:        reg,
			Tracer:         tracer,
			Logger:         logger.With("component", "server"),
			SlowOp:         *slowOp,
		},
		Cluster: cluster.Options{
			NodeID:          *nodeID,
			SelfAddr:        *clusterSelf,
			SuspectAfter:    *suspectTmo,
			ElectionTimeout: *electTmo,
			ProbeEvery:      *probeEvery,
		},
	}
	if *rc {
		cfg.DB.Isolation = neograph.ReadCommitted
	}
	if *fcw {
		cfg.DB.Conflict = neograph.FirstCommitterWins
	}
	for _, p := range strings.Split(*clusterPeer, ",") {
		if p = strings.TrimSpace(p); p != "" {
			cfg.Cluster.Peers = append(cfg.Cluster.Peers, p)
		}
	}
	// The partition map is fixed before the database opens: its ID
	// allocators stride by (partition-id, count) from the first
	// allocation, so the map cannot change under a live store.
	if *partPeers != "" {
		pm, err := partition.ParsePeers(*partPeers)
		if err != nil {
			usage("%v", err)
		}
		if *partCount != 0 && *partCount != pm.Count {
			usage("-partition-count %d does not match -partition-peers (%d partitions)", *partCount, pm.Count)
		}
		if int(*partID) >= pm.Count {
			usage("-partition-id %d out of range: -partition-peers defines partitions 0..%d", *partID, pm.Count-1)
		}
		cfg.Partitions, cfg.DB.PartitionID = &pm, int(*partID)
	} else if *partCount > 1 {
		usage("-partition-count > 1 requires -partition-peers (the coordinator must reach the other partitions)")
	}

	// DefaultServeMux carries the net/http/pprof handlers via its blank
	// import; keep that listener off the public address.
	debug := func(listen string, mux *http.ServeMux) {
		mux.Handle("/metrics", metrics.Handler(reg))
		mux.Handle("/debug/traces", trace.Handler(tracer))
		go func() {
			if err := http.ListenAndServe(listen, mux); err != nil {
				logger.Error("debug listener failed", "addr", listen, "err", err)
			}
		}()
		logger.Info("debug listener up", "metrics", "http://"+listen+"/metrics",
			"traces", "http://"+listen+"/debug/traces")
	}
	if *pprofAddr != "" {
		debug(*pprofAddr, http.DefaultServeMux)
	}
	if *metricsOn != "" && *metricsOn != *pprofAddr {
		debug(*metricsOn, http.NewServeMux())
	}

	node, err := fleet.StartNode(cfg)
	if err != nil {
		logger.Error("start failed", "err", err)
		os.Exit(1)
	}
	st := node.DB.ReplStatus()
	logger.Info("neograph-server listening", "addr", node.Addr(), "dir", *dir,
		"isolation", fmt.Sprint(cfg.DB.Isolation), "conflict", fmt.Sprint(cfg.DB.Conflict),
		"role", st.Role, "primary", st.PrimaryAddr, "repl", st.ReplicationAddr,
		"sync_replicas", *syncReps, "partition", *partID, "node", *nodeID)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down")
	if err := node.Close(); err != nil {
		logger.Warn("close", "err", err)
	}
}
