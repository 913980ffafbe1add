// Package fleet is the one place that knows how a neograph node is
// assembled and torn down: open the database, register its metrics,
// serve it, wire the partition coordinator (seeded from the applied LSN)
// into the server, start it, then the cluster controller and its
// cluster_status hook — and the reverse on the way out. The server
// binary, the examples, the experiments and the integration tests all
// stand nodes up through StartNode, and whole in-process fleets (N
// partitions x primary + R replicas over loopback TCP) through Start.
package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"neograph"
	"neograph/internal/cluster"
	"neograph/internal/partition"
	"neograph/internal/server"
	"neograph/internal/wire"
)

// Config describes one node. It is made of the option structs the layers
// already define; fleet adds no tuning of its own.
type Config struct {
	// DB opens the node's database. On a replica (ReplicaOf set)
	// ReplicationAddr is deferred, as cascading replication is
	// unsupported: it names the address the node will ship from IF
	// promoted, is announced to the cluster controller, and is bound by
	// Promote rather than at open. PartitionCount is taken from
	// Partitions when that is set.
	DB neograph.Options
	// Addr is the client-protocol listen address; empty picks a free
	// loopback port (Node.Addr reports it).
	Addr   string
	Server server.Config
	// Partitions is the fleet's partition map. With more than one
	// partition the node runs a two-phase-commit coordinator for
	// partition DB.PartitionID — on replicas too, so a promoted replica
	// inherits the in-doubt resolver and decision re-push duties without
	// a restart.
	Partitions *wire.PartitionMap
	// Cluster runs a self-driving cluster controller when NodeID is
	// non-zero. SelfAddr defaults to the bound Addr, SelfReplAddr to
	// DB.ReplicationAddr, the partition fields to Partitions, and the
	// observability sinks to Server's and DB's.
	Cluster cluster.Options
}

// Node is one running node. The fields are its live components; Coord,
// Topo and Ctrl are nil when the Config did not ask for them.
type Node struct {
	// Config is what the node was started from, with Addr resolved to the
	// bound address — pass it back to StartNode to restart the node on
	// the same directory and ports after Close or Crash.
	Config Config
	DB     *neograph.DB
	Srv    *server.Server
	Topo   *partition.Topology
	Coord  *partition.Coordinator
	Ctrl   *cluster.Controller

	mu   sync.Mutex
	down bool
}

// StartNode assembles and starts one node. On error nothing is left
// running.
func StartNode(cfg Config) (*Node, error) {
	n, err := serve(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.join(); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// serve is the first half of assembly: open the database, register its
// metrics, serve it. It resolves Config's ":0" addresses to the bound
// ones, so a fleet can be laid out from nodes that picked their own ports.
func serve(cfg Config) (*Node, error) {
	opts := cfg.DB
	if opts.ReplicaOf != "" {
		opts.ReplicationAddr = ""
	}
	if cfg.Partitions != nil {
		opts.PartitionCount = cfg.Partitions.Count
	}
	db, err := neograph.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: open %q: %w", opts.Dir, err)
	}
	n := &Node{Config: cfg, DB: db}
	if opts.ReplicationAddr != "" {
		n.Config.DB.ReplicationAddr = db.ReplicationAddress()
	}
	if cfg.Server.Metrics != nil {
		server.RegisterDBMetrics(cfg.Server.Metrics, db)
	}
	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if n.Srv, err = server.NewWithConfig(db, addr, cfg.Server); err != nil {
		n.Close()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	n.Config.Addr = n.Srv.Addr()
	return n, nil
}

// join is the second half: wire the node into the fleet its Config now
// names — the partition coordinator (seeded from the applied LSN) into the
// server, then the cluster controller and its cluster_status hook.
func (n *Node) join() error {
	cfg, logger := n.Config, cmp.Or(n.Config.DB.Logger, slog.New(slog.DiscardHandler))
	if pm := cfg.Partitions; pm != nil && pm.Count > 1 {
		part := uint32(cfg.DB.PartitionID)
		n.Topo = partition.NewTopology(*pm)
		n.Coord = partition.NewCoordinator(part, n.Topo, n.Srv.Local(), n.DB.AppliedLSN(),
			logger.With("component", "partition"))
		n.Srv.SetPartition(n.Coord, part, pm.Count)
		n.Coord.Start()
	}
	if cfg.Cluster.NodeID == 0 {
		return nil
	}
	copts := cfg.Cluster
	if copts.SelfAddr == "" {
		copts.SelfAddr = cfg.Addr
	}
	if copts.SelfReplAddr == "" {
		copts.SelfReplAddr = cfg.DB.ReplicationAddr
	}
	if copts.SelfReplAddr == "" {
		// Without an address to ship from, an election winner could
		// follow and re-seed but never serve as primary.
		logger.Warn("cluster controller without a replication address: this node cannot be promoted")
	}
	if cfg.Partitions != nil {
		copts.PartitionID = uint32(cfg.DB.PartitionID)
		copts.Partitions = cfg.Partitions
	}
	if copts.Metrics == nil {
		copts.Metrics = cfg.Server.Metrics
	}
	if copts.Tracer == nil {
		copts.Tracer = cfg.Server.Tracer
	}
	if copts.Logger == nil {
		copts.Logger = logger
	}
	var err error
	if n.Ctrl, err = cluster.New(n.DB, copts); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	n.Srv.SetClusterInfo(func() any { return n.Ctrl.NodeStatus() })
	n.Ctrl.Start()
	return nil
}

// Addr returns the node's bound client-protocol address.
func (n *Node) Addr() string { return n.Config.Addr }

// Close shuts the node down cleanly: controller, coordinator, server
// (draining in-flight requests), then the database (checkpoint + close).
// Closing a node that is already closed or crashed is a no-op.
func (n *Node) Close() error { return n.stop((*neograph.DB).Close) }

// Crash is a hard node death for failover and recovery tests: the same
// teardown order, but the database drops its caches without flushing, so
// a restart from Config recovers from the WAL alone.
func (n *Node) Crash() error { return n.stop((*neograph.DB).Crash) }

// stop tears the node down in reverse assembly order. The controller
// goes first so it cannot promote or re-seed a database that is closing;
// the coordinator before the server it prepares through.
func (n *Node) stop(end func(*neograph.DB) error) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	n.down = true
	if n.Ctrl != nil {
		n.Ctrl.Stop()
	}
	if n.Coord != nil {
		n.Coord.Close()
	}
	var err error
	if n.Srv != nil {
		err = n.Srv.Close()
	}
	return errors.Join(err, end(n.DB))
}

// Spec describes an in-process fleet: Partitions groups, each one primary
// plus Replicas replicas, every node on its own directory and loopback
// ports.
type Spec struct {
	// Partitions is the number of hash partitions (0 means 1).
	Partitions int
	// Replicas is the number of replicas streaming from each primary.
	Replicas int
	// DB is the template every node opens with. Dir is the parent of the
	// node directories (empty: a temporary directory, removed by Close);
	// the replication role and partition placement are filled in per
	// node.
	DB     neograph.Options
	Server server.Config
	// Cluster, when non-nil, runs a controller on every node of each
	// group with these timings; identity, addresses and peers are filled
	// in per node (NodeID is the member's index in its group plus one).
	Cluster *cluster.Options
	// Each, when non-nil, may adjust a node's Config before it opens
	// (member 0 is the group's primary; addresses and peers are not
	// assigned yet) — a fault-injecting filesystem under one node, say.
	Each func(part, member int, cfg *Config)
}

// Fleet is a running Spec.
type Fleet struct {
	// Groups[p] holds partition p's nodes, the initial primary first. A
	// test that restarts a node stores the new Node back here so Close
	// covers it.
	Groups [][]*Node

	pm     wire.PartitionMap
	tmpDir string
}

// attachTimeout bounds how long Start waits for a replica to attach to
// its primary and catch up.
const attachTimeout = 60 * time.Second

// Start brings a whole fleet up and returns once every replica is
// attached to its primary and caught up, so a synchronous-quorum commit
// issued right after Start finds its quorum. On error nothing is left
// running.
func Start(spec Spec) (*Fleet, error) {
	parts := spec.Partitions
	if parts <= 0 {
		parts = 1
	}
	f := &Fleet{pm: wire.PartitionMap{Version: 1, Count: parts}, Groups: make([][]*Node, parts)}
	fail := func(err error) (*Fleet, error) {
		f.Close()
		return nil, err
	}
	root := spec.DB.Dir
	if root == "" {
		var err error
		if root, err = os.MkdirTemp("", "neograph-fleet-*"); err != nil {
			return nil, err
		}
		f.tmpDir = root
	}

	// First every node opens and serves on ports of its own choosing (a
	// port reserved now and bound later can be lost to any connection
	// dialled in between); the partition map and the controllers' peer
	// lists follow from the bound addresses, and then every node joins.
	for p := range f.Groups {
		group := wire.PartitionGroup{ID: uint32(p)}
		for m := 0; m <= spec.Replicas; m++ {
			cfg := Config{DB: spec.DB, Server: spec.Server}
			cfg.DB.Dir = filepath.Join(root, fmt.Sprintf("p%d-n%d", p, m))
			cfg.DB.PartitionID = p
			if parts > 1 {
				cfg.Partitions = &f.pm
			}
			switch {
			case m == 0:
				cfg.DB.ReplicationAddr = "127.0.0.1:0"
			case spec.Cluster != nil:
				// The address this replica ships from if it wins an
				// election: announced now, bound only then.
				repl, err := reservePort()
				if err != nil {
					return fail(err)
				}
				cfg.DB.ReplicationAddr = repl
				fallthrough
			default:
				cfg.DB.ReplicaOf = f.Groups[p][0].Config.DB.ReplicationAddr
			}
			if spec.Each != nil {
				spec.Each(p, m, &cfg)
			}
			if err := os.MkdirAll(cfg.DB.Dir, 0o755); err != nil {
				return fail(err)
			}
			n, err := serve(cfg)
			if err != nil {
				return fail(err)
			}
			f.Groups[p] = append(f.Groups[p], n)
			group.Addrs = append(group.Addrs, n.Addr())
		}
		f.pm.Groups = append(f.pm.Groups, group)
	}
	for p, g := range f.Groups {
		for m, n := range g {
			if spec.Cluster != nil {
				n.Config.Cluster = *spec.Cluster
				n.Config.Cluster.NodeID = uint64(m + 1)
				n.Config.Cluster.Peers = nil
				for o, addr := range f.pm.Groups[p].Addrs {
					if o != m {
						n.Config.Cluster.Peers = append(n.Config.Cluster.Peers, addr)
					}
				}
			}
			if err := n.join(); err != nil {
				return fail(err)
			}
		}
		if err := awaitReplicas(g[0].DB, g[1:]); err != nil {
			return fail(fmt.Errorf("fleet: partition %d: %w", p, err))
		}
	}
	return f, nil
}

// awaitReplicas blocks until the primary's shipper has every replica
// attached and each has applied the primary's log.
func awaitReplicas(primary *neograph.DB, replicas []*Node) error {
	deadline := time.Now().Add(attachTimeout)
	for len(primary.ReplStatus().Replicas) < len(replicas) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d replicas attached after %v",
				len(primary.ReplStatus().Replicas), len(replicas), attachTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for m, r := range replicas {
		if err := r.DB.WaitApplied(primary.DurableLSN(), attachTimeout); err != nil {
			return fmt.Errorf("replica %d catch-up: %w", m+1, err)
		}
	}
	return nil
}

// reservePort grabs a free loopback port and releases it, for an address
// that must be announced long before it is bound.
func reservePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// PartitionMap returns the fleet's topology — the RouterConfig.Partitions
// a client.OpenRouter needs to reach it.
func (f *Fleet) PartitionMap() wire.PartitionMap { return f.pm }

// Close shuts every node down (replicas before their primary, so no
// replica spends its last moments reconnecting) and removes the
// temporary directory if Start created one. Idempotent.
func (f *Fleet) Close() error {
	var errs []error
	for _, g := range f.Groups {
		for m := len(g) - 1; m >= 0; m-- {
			errs = append(errs, g[m].Close())
		}
	}
	if f.tmpDir != "" {
		errs = append(errs, os.RemoveAll(f.tmpDir))
	}
	return errors.Join(errs...)
}
