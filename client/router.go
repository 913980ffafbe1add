package client

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"neograph"
	"neograph/internal/metrics"
	"neograph/internal/trace"
	"neograph/internal/wire"
)

// ErrNoPartitionOwner reports that a specific partition has no reachable
// primary. It surfaces only once the context deadline is exhausted (or
// the capped retries without a deadline): a partition mid-failover
// usually elects a new primary within a probe interval, so the Router
// keeps retrying until then. Match with errors.Is and extract the
// partition with errors.As on *NoPartitionOwnerError.
var ErrNoPartitionOwner = errors.New("client: no reachable primary for partition")

// NoPartitionOwnerError is the structured form of ErrNoPartitionOwner:
// which partition had no owner, and the last routing error underneath.
type NoPartitionOwnerError struct {
	Partition uint32
	Err       error
}

func (e *NoPartitionOwnerError) Error() string {
	return fmt.Sprintf("client: no reachable primary for partition %d: %v", e.Partition, e.Err)
}

func (e *NoPartitionOwnerError) Unwrap() error { return e.Err }

// Is makes errors.Is(err, ErrNoPartitionOwner) match.
func (e *NoPartitionOwnerError) Is(target error) bool { return target == ErrNoPartitionOwner }

// RouterConfig configures a Router — everything there is to say about
// opening a fleet.
type RouterConfig struct {
	// Partitions is the fleet map: every partition's replication group
	// and its client addresses. The first address of each group seeds
	// that group's primary discovery (any member works — the group pool
	// discovers the real primary). An unpartitioned primary + replicas is
	// the one-group map; see Group.
	Partitions wire.PartitionMap
	// Policy selects replica read routing; default LeastLag.
	Policy Policy
	// ConnsPerHost caps concurrent sessions per server; default 2.
	ConnsPerHost int
	// ProbeEvery is the period of the background topology probe that
	// refreshes per-replica applied positions (least-lag routing) and
	// roles; default 250ms.
	ProbeEvery time.Duration
	// Tracer, when non-nil, head-samples a root span per Write/Read. The
	// root spans the whole routed operation — overload backoffs, primary
	// re-discovery and the retry all record under ONE trace ID — and the
	// sessions fn borrows join it automatically.
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives every group's routing counters
	// (reads by route, availability skips, failovers, overload backoffs),
	// each series labelled partition="<id>".
	Metrics *metrics.Registry
}

// Group is the partition map of an unpartitioned fleet: one replication
// group, partition 0, a primary and any number of replicas (reads fall
// through to the primary when there are none).
func Group(primary string, replicas ...string) wire.PartitionMap {
	return wire.PartitionMap{Count: 1, Groups: []wire.PartitionGroup{
		{ID: 0, Addrs: append([]string{primary}, replicas...)},
	}}
}

// Router is a partition-aware client over a hash-partitioned fleet: one
// Pool per partition's replication group. Single-entity operations hash
// to the owning partition (writes to its primary, reads to its
// least-lag replica); batches go to the partition owning most of their
// anchored ops, whose server coordinates any cross-partition ops with
// two-phase commit; scans fan out across every partition. Over a
// one-group map everything hashes to partition 0 and Pool(0) is the whole
// fleet.
//
// Causality tokens span partitions: a token's read-your-writes gate is
// per-pool (LSNs are per-partition WALs), so reads through the Router
// observe the session's own writes on every partition it wrote to.
//
// A Router is safe for concurrent use.
type Router struct {
	pools []*Pool // index == partition ID
	rr    atomic.Uint32
}

// OpenRouter dials every partition's group and discovers each primary —
// the one way to open a fleet. The whole map is checked before the first
// dial; groups are then opened concurrently, and one unreachable group
// fails the open (a partitioned fleet with a dead partition cannot serve
// hash-routed writes anyway).
func OpenRouter(ctx context.Context, cfg RouterConfig) (*Router, error) {
	n := cfg.Partitions.Count
	if n < 1 || len(cfg.Partitions.Groups) != n {
		return nil, fmt.Errorf("client: router needs a complete partition map (count=%d, groups=%d)",
			n, len(cfg.Partitions.Groups))
	}
	seen := make([]bool, n)
	for _, g := range cfg.Partitions.Groups {
		if int(g.ID) >= n || seen[g.ID] || len(g.Addrs) == 0 || g.Addrs[0] == "" {
			return nil, fmt.Errorf("client: bad partition group %d (ids must be 0..%d, each once, each with addresses)", g.ID, n-1)
		}
		seen[g.ID] = true
	}
	if cfg.ConnsPerHost <= 0 {
		cfg.ConnsPerHost = 2
	}
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 250 * time.Millisecond
	}
	r := &Router{pools: make([]*Pool, n)}
	errs := make(chan error, n)
	for _, g := range cfg.Partitions.Groups {
		go func() {
			p, err := openPool(ctx, cfg, g)
			if err != nil {
				errs <- fmt.Errorf("client: partition %d: %w", g.ID, err)
				return
			}
			r.pools[g.ID] = p
			errs <- nil
		}()
	}
	var firstErr error
	for range cfg.Partitions.Groups {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		r.Close()
		return nil, firstErr
	}
	return r, nil
}

// Close releases every partition pool.
func (r *Router) Close() error {
	for _, p := range r.pools {
		if p != nil {
			p.Close()
		}
	}
	return nil
}

// Count returns the partition count.
func (r *Router) Count() int { return len(r.pools) }

// PartitionOf maps an entity ID to its owning partition.
func (r *Router) PartitionOf(id uint64) uint32 { return wire.OwnerOf(id, len(r.pools)) }

// Pool returns the pool serving one partition, for direct access
// (FleetStatus, PrimaryAddr, per-partition diagnostics).
func (r *Router) Pool(part uint32) *Pool {
	if int(part) >= len(r.pools) {
		return nil
	}
	return r.pools[part]
}

// Token returns the newest commit LSN recorded for a causality token on
// one partition (LSNs are per-partition WAL positions).
func (r *Router) Token(part uint32, token string) uint64 {
	if p := r.Pool(part); p != nil {
		return p.Token(token)
	}
	return 0
}

// Write runs fn on a session to the primary owning id. Use this for
// operations anchored to an existing entity; for creations (no ID yet)
// use WriteAny. Cross-partition relationship creation goes through the
// start node's partition — its server coordinates the commit.
func (r *Router) Write(ctx context.Context, token string, id uint64, fn func(c *Client) error) error {
	return r.write(ctx, r.PartitionOf(id), token, fn)
}

// WriteAny runs fn on some partition's primary, rotating round-robin —
// the right routing for creations, which any partition can own. The
// partition chosen is passed to fn's session; the IDs it creates belong
// to that partition.
func (r *Router) WriteAny(ctx context.Context, token string, fn func(c *Client) error) error {
	part := uint32(r.rr.Add(1)) % uint32(len(r.pools))
	return r.write(ctx, part, token, fn)
}

// write routes one write to a partition. A group mid-election has no
// primary for a moment; its pool absorbs that (Pool.Write retries
// discovery until the deadline, or its capped retries without one), so
// what finally surfaces here is the structured *NoPartitionOwnerError.
func (r *Router) write(ctx context.Context, part uint32, token string, fn func(c *Client) error) error {
	err := r.pools[part].Write(ctx, token, fn)
	if errors.Is(err, ErrNoPrimary) {
		return &NoPartitionOwnerError{Partition: part, Err: err}
	}
	return err
}

// Read runs fn on a read session routed to the fleet of the partition
// owning id (least-lag replica first, primary fallback), gated on the
// token's newest commit LSN for that partition.
func (r *Router) Read(ctx context.Context, token string, id uint64, fn func(c *Client) error) error {
	return r.pools[r.PartitionOf(id)].Read(ctx, token, fn)
}

// ReadEach runs fn once per partition on a read session to that
// partition's fleet — the fan-out primitive for scans (NodesByLabel,
// AllNodes): each partition sees only its own slice of the ID space,
// so a global answer is the union of per-partition answers. Partitions
// run sequentially in ID order; the first error stops the fan-out.
func (r *Router) ReadEach(ctx context.Context, token string, fn func(part uint32, c *Client) error) error {
	for part := range r.pools {
		p := uint32(part)
		if err := r.pools[part].Read(ctx, token, func(c *Client) error { return fn(p, c) }); err != nil {
			return fmt.Errorf("client: partition %d: %w", part, err)
		}
	}
	return nil
}

// NodesByLabel scans every partition and merges the results — the
// partitioned form of Client.NodesByLabel.
func (r *Router) NodesByLabel(ctx context.Context, token, label string) ([]neograph.NodeID, error) {
	var out []neograph.NodeID
	err := r.ReadEach(ctx, token, func(_ uint32, c *Client) error {
		ids, err := c.NodesByLabel(ctx, label)
		out = append(out, ids...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunBatch routes a batch to its home partition — the partition owning
// the most ID-anchored ops (creations and back references follow the
// batch; ties and all-creation batches rotate round-robin) — and runs
// it there. The home server executes single-partition batches on the
// ordinary fast path and coordinates cross-partition ones with
// two-phase commit, so the caller gets one atomic result either way.
func (r *Router) RunBatch(ctx context.Context, token string, b *Batch) (*BatchResults, error) {
	part := r.homePartition(b)
	var res *BatchResults
	err := r.write(ctx, part, token, func(c *Client) error {
		var err error
		res, err = c.RunBatch(ctx, b)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// homePartition picks the partition owning the most ID-anchored ops of
// a batch. Sending the batch where most of it lives makes the common
// case (everything one partition) the ordinary local commit and
// minimizes 2PC participants otherwise.
func (r *Router) homePartition(b *Batch) uint32 {
	n := len(r.pools)
	if n <= 1 {
		return 0
	}
	// Creations, pings and back references follow the home partition.
	votes := make([]int, n)
	for i := range b.reqs {
		if pl := wire.Place(&b.reqs[i]); pl.Anchor != wire.AnchorNone && pl.Home.Back == nil {
			votes[wire.OwnerOf(pl.Home.ID, n)]++
		}
	}
	best, bestVotes := -1, 0
	for part, v := range votes {
		if v > bestVotes {
			best, bestVotes = part, v
		}
	}
	if best < 0 {
		return uint32(r.rr.Add(1)) % uint32(n)
	}
	return uint32(best)
}
