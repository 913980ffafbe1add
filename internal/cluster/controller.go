// Package cluster turns a fleet of neograph nodes into a self-driving
// cluster: each node runs a Controller beside its DB that detects a
// failed primary, elects a replacement deterministically, re-points the
// survivors, and re-seeds nodes whose logs can no longer resume the
// stream.
//
// The control loop is deliberately simple — a single goroutine ticking
// at a jittered ProbeEvery — and leans on the replication layer for all
// safety: epochs fence stale timelines, the fork-point history rejects
// diverged logs, and sync replication bounds acknowledged-commit loss.
// The controller only decides WHEN to call Promote / Retarget /
// ReseedFrom; it never relaxes what those calls enforce.
//
// Failure detection is two-stage. A replica first notices its own WAL
// stream is down (suspicion starts when the applier reports
// disconnected, confirmed after SuspectAfter of continuous outage);
// it then polls the rest of the fleet and proceeds to an election only
// when a quorum of the primary's replicas agree the primary is gone —
// one replica's broken link must not trigger a failover while everyone
// else is streaming fine.
//
// Elections are deterministic, not randomized: among the confirming
// replicas the one with the highest epoch wins, ties broken by the
// highest durable LSN, then the lowest node ID. Every voter computes
// the same winner from the same statuses, so no coordination round is
// needed; losers simply wait for the winner's promotion to show up
// (with a fresh epoch) and re-target, re-running the election only if
// nothing appears within ElectionTimeout.
//
// A node that cannot rejoin the stream — it missed promotions past the
// primary's WAL horizon, or its log diverged across a fork point — sees
// ReseedRequired from its applier and rebuilds itself automatically
// from the current primary's snapshot stream (DB.ReseedFrom). An old
// primary that wakes up to find a rival with a higher epoch (or an
// equal epoch and a lower node ID, the same total order elections use)
// demotes itself the same way.
package cluster

import (
	"cmp"
	"context"
	"errors"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/metrics"
	"neograph/internal/trace"
	"neograph/internal/wire"
)

// Options configures a node's cluster controller.
type Options struct {
	// NodeID uniquely identifies this node in the fleet and breaks
	// election ties (lower wins). Required, non-zero.
	NodeID uint64
	// SelfAddr is this node's client-protocol address as peers should
	// dial it (announced in cluster_status membership).
	SelfAddr string
	// SelfReplAddr is the replication address this node will serve WAL
	// shipping on if promoted, and announces to peers so they can
	// re-target or re-seed from it.
	SelfReplAddr string
	// Peers lists the OTHER cluster members' client-protocol addresses
	// (the full fleet minus this node). The primary must be included:
	// probing it is how a replica distinguishes "primary died" from "my
	// link died".
	Peers []string
	// SuspectAfter is how long the local WAL stream must be continuously
	// down before this replica suspects the primary (default 2s).
	SuspectAfter time.Duration
	// ElectionTimeout is how long an election loser waits for the
	// winner's promotion to become visible before re-running the
	// election (default 5s).
	ElectionTimeout time.Duration
	// ProbeEvery is the control-loop tick interval; each tick is
	// jittered over [ProbeEvery/2, ProbeEvery] so a fleet started
	// together doesn't probe in lockstep (default 500ms).
	ProbeEvery time.Duration
	// ProbeTimeout bounds each peer status probe (default 1s).
	ProbeTimeout time.Duration

	// Metrics, Tracer, and Logger are optional observability sinks.
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
	Logger  *slog.Logger

	// PartitionID is the hash partition this node's replication group
	// serves (partitioned deployments only; the controller's election
	// and failover logic is per-group and unaffected).
	PartitionID uint32
	// Partitions is the partition topology announced in cluster_status
	// so clients learn the whole fleet from any one node. Nil on
	// unpartitioned deployments.
	Partitions *wire.PartitionMap
}

// Controller drives one node's share of the cluster control loop.
type Controller struct {
	db     *neograph.DB
	opts   Options
	log    *slog.Logger
	tracer *trace.Tracer

	elections *metrics.Counter
	failovers *metrics.Counter
	retargets *metrics.Counter
	reseeds   *metrics.Counter
	demotions *metrics.Counter
	detection *metrics.Histogram

	mu               sync.Mutex
	suspectSince     time.Time
	electionDeadline time.Time
	reseeding        bool
	peerInfo         map[string]wire.ClusterInfo // last successful probe per peer

	// sessions holds one session per peer; a tick probes each peer once.
	sessions *client.Sessions

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New creates (but does not start) a controller for db.
func New(db *neograph.DB, opts Options) (*Controller, error) {
	if db == nil {
		return nil, errors.New("cluster: nil DB")
	}
	if opts.NodeID == 0 {
		return nil, errors.New("cluster: NodeID is required and must be non-zero")
	}
	if opts.SuspectAfter <= 0 {
		opts.SuspectAfter = 2 * time.Second
	}
	if opts.ElectionTimeout <= 0 {
		opts.ElectionTimeout = 5 * time.Second
	}
	if opts.ProbeEvery <= 0 {
		opts.ProbeEvery = 500 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = time.Second
	}
	c := &Controller{
		db:       db,
		opts:     opts,
		log:      cmp.Or(opts.Logger, slog.New(slog.DiscardHandler)).With("component", "cluster", "node", opts.NodeID),
		tracer:   opts.Tracer,
		peerInfo: make(map[string]wire.ClusterInfo),
		sessions: client.NewSessions(1),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	c.elections = &metrics.Counter{}
	c.failovers = &metrics.Counter{}
	c.retargets = &metrics.Counter{}
	c.reseeds = &metrics.Counter{}
	c.demotions = &metrics.Counter{}
	c.detection = metrics.NewHistogram(metrics.ExpBuckets(1e-3, 2, 18))
	if reg := opts.Metrics; reg != nil {
		c.elections = reg.Counter("neograph_cluster_elections_total",
			"elections this node ran (as a voter or candidate)")
		c.failovers = reg.Counter("neograph_cluster_failovers_total",
			"successful self-promotions after winning an election")
		c.retargets = reg.Counter("neograph_cluster_retargets_total",
			"times this replica re-pointed its WAL stream at a new primary")
		c.reseeds = reg.Counter("neograph_cluster_reseeds_total",
			"snapshot re-seeds this node performed on itself")
		c.demotions = reg.Counter("neograph_cluster_demotions_total",
			"times this node self-demoted after finding a fencing rival primary")
		reg.AttachHistogram("neograph_cluster_detection_seconds",
			"suspicion start to successful promotion", c.detection)
	}
	return c, nil
}

// Start launches the control loop.
func (c *Controller) Start() {
	go c.loop()
}

// Stop terminates the control loop and closes cached peer connections.
// A Promote/ReseedFrom already in flight finishes first.
func (c *Controller) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
	c.sessions.Close()
}

func (c *Controller) loop() {
	defer close(c.done)
	for {
		d := c.opts.ProbeEvery/2 + time.Duration(rand.Int63n(int64(c.opts.ProbeEvery/2)+1))
		select {
		case <-c.stop:
			return
		case <-time.After(d):
		}
		c.tick()
	}
}

func (c *Controller) tick() {
	st := c.db.ReplStatus()
	switch st.Role {
	case "replica":
		c.replicaTick(st)
	case "primary":
		c.mu.Lock()
		c.suspectSince = time.Time{}
		c.electionDeadline = time.Time{}
		c.mu.Unlock()
		c.primaryTick(st)
	}
}

// --- replica side: detection, election, retarget, re-seed -------------

func (c *Controller) replicaTick(st neograph.ReplStatus) {
	if st.ReseedRequired {
		c.reseed(st)
		return
	}
	if st.Connected {
		c.mu.Lock()
		c.suspectSince = time.Time{}
		c.electionDeadline = time.Time{}
		c.mu.Unlock()
		return
	}
	now := time.Now()
	c.mu.Lock()
	if c.suspectSince.IsZero() {
		c.suspectSince = now
	}
	since := c.suspectSince
	deadline := c.electionDeadline
	c.mu.Unlock()
	if now.Sub(since) < c.opts.SuspectAfter {
		return
	}

	infos := c.probePeers()
	// A live primary with an epoch at least ours ends the emergency: our
	// primary answered (the outage is our link, not its death), or a
	// newly promoted winner appeared — follow it.
	if p, ok := livePrimary(infos, st.Epoch); ok {
		if p.ReplAddr != "" && p.ReplAddr != st.PrimaryAddr {
			c.log.Info("new primary announced; re-targeting",
				"primary", p.ReplAddr, "epoch", p.Epoch)
			if err := c.db.Retarget(p.ReplAddr); err != nil {
				c.log.Warn("retarget failed", "err", err)
				return
			}
			c.retargets.Inc()
		}
		c.mu.Lock()
		c.suspectSince = time.Time{}
		c.electionDeadline = time.Time{}
		c.mu.Unlock()
		return
	}
	// Lost a recent election: give the winner ElectionTimeout to show up
	// as a primary before trying again.
	if !deadline.IsZero() && now.Before(deadline) {
		return
	}
	c.runElection(st, infos, since)
}

// livePrimary returns a probed peer acting as primary (or standalone)
// whose epoch is not stale relative to ours.
func livePrimary(infos map[string]wire.ClusterInfo, epoch uint64) (wire.ClusterInfo, bool) {
	best, ok := wire.ClusterInfo{}, false
	for _, ci := range infos {
		if (ci.Role == "primary" || ci.Role == "standalone") && ci.Epoch >= epoch {
			if !ok || ci.Epoch > best.Epoch {
				best, ok = ci, true
			}
		}
	}
	return best, ok
}

// candidate orders election contenders: most-advanced epoch first, then
// the longest durable log, then the lowest node ID. Every voter ranks
// the same statuses, so every voter computes the same winner.
type candidate struct {
	epoch    uint64
	durable  uint64
	nodeID   uint64
	replAddr string
}

func (a candidate) beats(b candidate) bool {
	if a.epoch != b.epoch {
		return a.epoch > b.epoch
	}
	if a.durable != b.durable {
		return a.durable > b.durable
	}
	return a.nodeID < b.nodeID
}

func (c *Controller) runElection(st neograph.ReplStatus, infos map[string]wire.ClusterInfo, since time.Time) {
	c.elections.Inc()
	sp := c.tracer.StartRoot("cluster.election")
	defer sp.Finish()
	sp.Set("node", itoa(c.opts.NodeID))
	sp.Set("epoch", itoa(st.Epoch))

	// Quorum is a majority of the primary's replicas — the fleet minus
	// the node we believe dead. (For a two-node cluster that is 1, i.e.
	// the lone replica may promote alone; larger fleets need agreement.)
	members := len(c.opts.Peers) + 1
	quorum := (members-1)/2 + 1
	confirms := 1 // our own applier's view
	// Only a node that announces a replication address can stand: a
	// winner with nothing to ship on would strand the losers waiting to
	// re-target at "". Such nodes still vote — they confirm the outage.
	var cands []candidate
	if c.opts.SelfReplAddr != "" {
		cands = append(cands, candidate{st.Epoch, st.DurableLSN, c.opts.NodeID, c.opts.SelfReplAddr})
	}
	for _, ci := range infos {
		if ci.Role != "replica" || ci.PrimaryReplAddr != st.PrimaryAddr || ci.Connected {
			continue // following someone else, or its stream is fine
		}
		confirms++
		if ci.NodeID != 0 && ci.ReplAddr != "" {
			cands = append(cands, candidate{ci.Epoch, ci.DurableLSN, ci.NodeID, ci.ReplAddr})
		}
	}
	if confirms < quorum {
		c.log.Info("primary suspected but no quorum; waiting",
			"confirms", confirms, "quorum", quorum)
		sp.Set("outcome", "no-quorum")
		return
	}
	if len(cands) == 0 {
		c.log.Warn("quorum confirms the outage but no confirming node has a replication address; cannot elect")
		sp.Set("outcome", "no-candidate")
		return
	}
	best := cands[0]
	for _, x := range cands[1:] {
		if x.beats(best) {
			best = x
		}
	}
	if best.nodeID != c.opts.NodeID {
		c.log.Info("election lost; waiting for winner to promote",
			"winner", best.nodeID, "winner_repl", best.replAddr)
		sp.Set("outcome", "lost")
		sp.Set("winner", itoa(best.nodeID))
		c.mu.Lock()
		c.electionDeadline = time.Now().Add(c.opts.ElectionTimeout)
		c.mu.Unlock()
		return
	}
	// Won. Re-verify the outage right before the irreversible step — the
	// stream may have come back while we were polling peers.
	if c.db.ReplStatus().Connected {
		c.log.Info("stream recovered during election; aborting promotion")
		sp.Set("outcome", "recovered")
		c.mu.Lock()
		c.suspectSince = time.Time{}
		c.mu.Unlock()
		return
	}
	c.log.Warn("election won; promoting",
		"confirms", confirms, "quorum", quorum, "durable", st.DurableLSN)
	if err := c.db.Promote(c.opts.SelfReplAddr); err != nil {
		c.log.Warn("promotion failed", "err", err)
		sp.Set("outcome", "promote-failed")
		return
	}
	c.failovers.Inc()
	c.detection.Observe(time.Since(since).Seconds())
	sp.Set("outcome", "promoted")
	c.mu.Lock()
	c.suspectSince = time.Time{}
	c.electionDeadline = time.Time{}
	c.mu.Unlock()
}

// reseed rebuilds this node from the current primary's snapshot stream.
// The applier has already proven the local log can never resume (fenced
// past a fork point, behind the WAL horizon, or a conflicting epoch
// history), so the only way back into the fleet is a fresh copy.
func (c *Controller) reseed(st neograph.ReplStatus) {
	src := ""
	for _, ci := range c.probePeers() {
		if (ci.Role == "primary" || ci.Role == "standalone") && ci.ReplAddr != "" && ci.Epoch >= st.Epoch {
			src = ci.ReplAddr
			break
		}
	}
	if src == "" {
		// No announced primary: fall back to the address we were
		// streaming from — the refusal proves something answers there.
		src = st.PrimaryAddr
	}
	if src == "" {
		c.log.Warn("re-seed required but no primary known; waiting")
		return
	}
	c.mu.Lock()
	c.reseeding = true
	c.mu.Unlock()
	sp := c.tracer.StartRoot("cluster.reseed")
	sp.Set("source", src)
	c.log.Warn("log cannot resume the stream; re-seeding from snapshot",
		"source", src, "last_error", st.LastError)
	err := c.db.ReseedFrom(src)
	sp.Finish()
	c.mu.Lock()
	c.reseeding = false
	c.suspectSince = time.Time{}
	c.electionDeadline = time.Time{}
	c.mu.Unlock()
	if err != nil {
		c.log.Warn("re-seed failed", "err", err)
		return
	}
	c.reseeds.Inc()
	c.log.Info("re-seed complete; streaming resumed", "source", src)
}

// --- primary side: rival fencing --------------------------------------

// primaryTick checks for a rival primary that outranks us — a higher
// epoch, or the same epoch held by a lower node ID (the election's own
// tie-break, so both sides of a symmetric split pick the same survivor).
// Losing the comparison means our timeline is (or is about to be)
// fenced: demote by re-seeding from the winner.
func (c *Controller) primaryTick(st neograph.ReplStatus) {
	for _, ci := range c.probePeers() {
		if ci.Role != "primary" && ci.Role != "standalone" {
			continue
		}
		outranked := ci.Epoch > st.Epoch ||
			(ci.Epoch == st.Epoch && ci.NodeID != 0 && ci.NodeID < c.opts.NodeID)
		if !outranked || ci.ReplAddr == "" {
			continue
		}
		c.demotions.Inc()
		c.log.Warn("rival primary outranks this node; demoting via re-seed",
			"rival", ci.NodeID, "rival_epoch", ci.Epoch, "epoch", st.Epoch)
		sp := c.tracer.StartRoot("cluster.demote")
		sp.Set("rival", itoa(ci.NodeID))
		err := c.db.ReseedFrom(ci.ReplAddr)
		sp.Finish()
		if err != nil {
			c.log.Warn("demotion re-seed failed", "err", err)
		}
		return
	}
}

// --- fleet probing -----------------------------------------------------

// probePeers polls every peer's cluster_status (falling back to
// repl_status for nodes without a controller) concurrently and returns
// the successful answers keyed by peer address.
func (c *Controller) probePeers() map[string]wire.ClusterInfo {
	type res struct {
		addr string
		ci   wire.ClusterInfo
		err  error
	}
	ch := make(chan res, len(c.opts.Peers))
	for _, addr := range c.opts.Peers {
		go func(addr string) {
			ci, err := c.probePeer(addr)
			ch <- res{addr, ci, err}
		}(addr)
	}
	out := make(map[string]wire.ClusterInfo, len(c.opts.Peers))
	for range c.opts.Peers {
		r := <-ch
		if r.err != nil {
			continue
		}
		out[r.addr] = r.ci
		c.mu.Lock()
		c.peerInfo[r.addr] = r.ci
		c.mu.Unlock()
	}
	return out
}

func (c *Controller) probePeer(addr string) (wire.ClusterInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	cl, err := c.sessions.Borrow(ctx, addr)
	if err != nil {
		return wire.ClusterInfo{}, err
	}
	defer c.sessions.Return(cl) // closes a session the probe broke
	ci, err := cl.ClusterStatus(ctx)
	if err == nil {
		return ci, nil
	}
	if cl.Broken() {
		return wire.ClusterInfo{}, err
	}
	// The node answered but has no controller: synthesize the fields an
	// election needs from its replication status.
	st, rerr := cl.ReplStatus(ctx)
	if rerr != nil {
		return wire.ClusterInfo{}, rerr
	}
	ci = wire.ClusterInfo{
		Addr:       addr,
		Role:       st.Role,
		Epoch:      st.Epoch,
		DurableLSN: st.DurableLSN,
		AppliedLSN: st.AppliedLSN,
		Connected:  st.Connected,
	}
	if st.Role == "replica" {
		ci.PrimaryReplAddr = st.PrimaryAddr
	} else {
		ci.ReplAddr = st.ReplicationAddr
	}
	return ci, nil
}

// --- status ------------------------------------------------------------

// NodeStatus is this node's cluster self-view, served to clients via
// the cluster_status op (Server.SetClusterInfo). Members always lists
// the full configured fleet; peer replication addresses and node IDs
// fill in as probes learn them.
func (c *Controller) NodeStatus() wire.ClusterInfo {
	st := c.db.ReplStatus()
	c.mu.Lock()
	reseeding := c.reseeding
	members := make([]wire.ClusterMember, 0, len(c.opts.Peers)+1)
	members = append(members, wire.ClusterMember{
		Addr: c.opts.SelfAddr, ReplAddr: c.opts.SelfReplAddr, NodeID: c.opts.NodeID,
		PartitionID: c.opts.PartitionID,
	})
	for _, addr := range c.opts.Peers {
		// Peers are this node's own replication group, so they serve the
		// same partition (probes confirm).
		m := wire.ClusterMember{Addr: addr, PartitionID: c.opts.PartitionID}
		if ci, ok := c.peerInfo[addr]; ok {
			if ci.ReplAddr != "" {
				m.ReplAddr = ci.ReplAddr
			}
			m.NodeID = ci.NodeID
			m.PartitionID = ci.PartitionID
		}
		members = append(members, m)
	}
	c.mu.Unlock()

	info := wire.ClusterInfo{
		NodeID:     c.opts.NodeID,
		Addr:       c.opts.SelfAddr,
		ReplAddr:   c.opts.SelfReplAddr,
		Role:       st.Role,
		Epoch:      st.Epoch,
		DurableLSN: st.DurableLSN,
		AppliedLSN: st.AppliedLSN,
		Connected:  st.Connected,
		Reseeding:  reseeding,
		Members:    members,
	}
	info.PartitionID = c.opts.PartitionID
	if c.opts.Partitions != nil {
		pm := *c.opts.Partitions
		info.Partitions = &pm
	}
	switch st.Role {
	case "replica":
		info.PrimaryReplAddr = st.PrimaryAddr
	case "primary":
		if st.ReplicationAddr != "" {
			info.ReplAddr = st.ReplicationAddr
		}
		info.PrimaryReplAddr = info.ReplAddr
	}
	return info
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
