package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"neograph"
	"neograph/internal/metrics"
	"neograph/internal/trace"
	"neograph/internal/wire"
)

// ErrNoPrimary reports that no reachable fleet member holds the primary
// (or standalone) role — the cluster is mid-election or down. Write
// surfaces it once its discovery backoff is exhausted; callers should
// retry later rather than immediately.
var ErrNoPrimary = errors.New("client: no reachable primary in the fleet")

// Policy selects how a Pool routes read sessions over the replica fleet.
type Policy int

const (
	// LeastLag routes reads to the replica whose last probed applied LSN
	// is highest (freshest data, shortest read-your-writes wait).
	LeastLag Policy = iota
	// RoundRobin rotates reads evenly across replicas.
	RoundRobin
)

// poolMetrics counts one group's routing decisions; nil when no registry
// is given.
type poolMetrics struct {
	readsReplica, readsPrimary *metrics.Counter
	readSkips                  *metrics.Counter
	writeFailovers             *metrics.Counter
	overloadBackoffs           *metrics.Counter
}

func newPoolMetrics(reg *metrics.Registry, part uint32) *poolMetrics {
	p := metrics.L("partition", strconv.FormatUint(uint64(part), 10))
	return &poolMetrics{
		readsReplica: reg.Counter("neograph_pool_reads_total",
			"pool reads by serving route", p, metrics.L("route", "replica")),
		readsPrimary: reg.Counter("neograph_pool_reads_total",
			"pool reads by serving route", p, metrics.L("route", "primary")),
		readSkips: reg.Counter("neograph_pool_read_skips_total",
			"read candidates skipped for availability errors", p),
		writeFailovers: reg.Counter("neograph_pool_write_failovers_total",
			"writes that triggered primary re-discovery", p),
		overloadBackoffs: reg.Counter("neograph_pool_overload_backoffs_total",
			"write retries backed off on server overload", p),
	}
}

// host is one server address of the group.
type host struct {
	addr string
	// applied is the last probed applied LSN (least-lag routing).
	applied atomic.Uint64
}

// Pool is a topology-aware client over one replication group — a primary
// and its replica fleet; a Router holds one per partition. Reads route to
// replicas (by Policy), writes to the primary. The pool remembers the
// newest commit LSN per causality token and injects it as the
// read-your-writes gate on reads carrying that token, so a session always
// observes its own writes even from a lagging replica. When a write fails
// because the primary died or was demoted, the pool probes cluster_status
// across every known address, re-discovers the (promoted) primary and
// retries once.
//
// A Pool is safe for concurrent use.
type Pool struct {
	// part is the partition this group serves (0 on an unpartitioned
	// fleet); mergeMembers adopts announced members of that partition only.
	part     uint32
	cfg      RouterConfig
	pm       *poolMetrics // nil without RouterConfig.Metrics
	sessions *Sessions

	mu       sync.Mutex
	primary  *host
	replicas []*host
	hosts    map[string]*host
	members  map[memberKey]string // (NodeID, PartitionID) -> first announced addr
	tokens   map[string]uint64    // causality token -> newest commit LSN
	closed   bool

	rr        atomic.Uint32
	probeStop chan struct{}
	probeDone chan struct{}
}

// openPool dials one group and verifies its first address actually holds
// the primary (or standalone) role — if it does not, the pool discovers
// the real primary among the group's addresses.
func openPool(ctx context.Context, cfg RouterConfig, g wire.PartitionGroup) (*Pool, error) {
	p := &Pool{
		part:      g.ID,
		cfg:       cfg,
		sessions:  NewSessions(cfg.ConnsPerHost),
		hosts:     make(map[string]*host),
		members:   make(map[memberKey]string),
		tokens:    make(map[string]uint64),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	if cfg.Metrics != nil {
		p.pm = newPoolMetrics(cfg.Metrics, g.ID)
	}
	p.primary = p.hostFor(g.Addrs[0])
	for _, addr := range g.Addrs[1:] {
		if addr != g.Addrs[0] {
			p.replicas = append(p.replicas, p.hostFor(addr))
		}
	}
	// Discovery retries within the caller's context: a fleet that is
	// still binding its listeners (rolling start, failover in progress)
	// becomes reachable moments later.
	if err := retry(ctx, func(error) bool { return true }, p.discoverPrimary); err != nil {
		// The probe loop has not started yet: satisfy Close's handshake
		// so the failed-open cleanup cannot deadlock on it.
		close(p.probeDone)
		p.Close()
		return nil, err
	}
	go p.probeLoop()
	return p, nil
}

// hostFor returns (creating if needed) the host for addr.
func (p *Pool) hostFor(addr string) *host {
	if h, ok := p.hosts[addr]; ok {
		return h
	}
	h := &host{addr: addr}
	p.hosts[addr] = h
	return h
}

// allHosts snapshots the host set.
func (p *Pool) allHosts() []*host {
	p.mu.Lock()
	defer p.mu.Unlock()
	hosts := make([]*host, 0, len(p.hosts))
	for _, h := range p.hosts {
		hosts = append(hosts, h)
	}
	return hosts
}

// Close releases every pooled session and stops the topology probe.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.probeStop)
	<-p.probeDone
	p.sessions.Close()
	return nil
}

// PrimaryAddr returns the address currently routed writes.
func (p *Pool) PrimaryAddr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.primary.addr
}

// HostStatus is one fleet member's probe result.
type HostStatus struct {
	Addr   string
	Status neograph.ReplStatus
	Err    error
}

// FleetStatus probes ReplStatus on every known address directly — no
// read-your-writes gate, no routing — for diagnostics: exactly the view
// an operator needs when a replica is lagging or wedged.
func (p *Pool) FleetStatus(ctx context.Context) []HostStatus {
	hosts := p.allHosts()
	out := make([]HostStatus, 0, len(hosts))
	for _, h := range hosts {
		hs := HostStatus{Addr: h.addr}
		if c, err := p.sessions.Borrow(ctx, h.addr); err != nil {
			hs.Err = err
		} else {
			hs.Status, hs.Err = c.ReplStatus(ctx)
			p.sessions.Return(c)
		}
		out = append(out, hs)
	}
	return out
}

// Token returns the newest commit LSN recorded for a causality token.
func (p *Pool) Token(token string) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tokens[token]
}

// noteLSN records a token's newest commit position (monotonic).
func (p *Pool) noteLSN(token string, lsn uint64) {
	if token == "" || lsn == 0 {
		return
	}
	p.mu.Lock()
	if lsn > p.tokens[token] {
		p.tokens[token] = lsn
	}
	p.mu.Unlock()
}

// probeLoop periodically refreshes every host's role and applied LSN —
// the freshness data least-lag routing and primary re-discovery use.
func (p *Pool) probeLoop() {
	defer close(p.probeDone)
	tick := time.NewTicker(p.cfg.ProbeEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.probeStop:
			return
		case <-tick.C:
		}
		for _, h := range p.allHosts() {
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.ProbeEvery)
			p.probeHost(ctx, h)
			cancel()
		}
	}
}

// probe asks h for its role, refreshing its cached applied position. A
// node's cluster_status carries the membership its controller announces,
// so the pool learns nodes that were never in its seed list (and can find
// a post-failover primary among them); a node without a controller
// answers with its role and positions alone.
func (p *Pool) probe(ctx context.Context, h *host) (role string, err error) {
	c, err := p.sessions.Borrow(ctx, h.addr)
	if err != nil {
		return "", err
	}
	defer p.sessions.Return(c)
	ci, err := c.ClusterStatus(ctx)
	if err != nil {
		return "", err
	}
	p.mergeMembers(ci.Members)
	h.applied.Store(ci.AppliedLSN)
	return ci.Role, nil
}

// writable reports whether a probed role accepts writes.
func writable(role string) bool { return role == "primary" || role == "standalone" }

// probeHost refreshes one host and keeps the read rotation in sync with
// probed roles: a demoted ex-primary that comes back as a replica rejoins
// the rotation, and a host that turned primary leaves it.
func (p *Pool) probeHost(ctx context.Context, h *host) {
	role, err := p.probe(ctx, h)
	if err != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case role == "replica" && h != p.primary && !slices.Contains(p.replicas, h):
		p.replicas = append(p.replicas, h)
	case writable(role):
		p.dropReplica(h)
	}
}

// dropReplica takes h out of the read rotation; the caller holds p.mu.
func (p *Pool) dropReplica(h *host) {
	p.replicas = slices.DeleteFunc(p.replicas, func(r *host) bool { return r == h })
}

// memberKey identifies one announced fleet member. Node IDs are unique
// within a replication group but may repeat across partitions, so the
// partition is part of the identity.
type memberKey struct {
	node uint64
	part uint32
}

// mergeMembers folds a cluster_status announcement's membership into the
// host set. New hosts join the probe rotation and are classified (and
// added to the read rotation) by their own first probe. An announcement
// carries members of EVERY partition: those of other partitions are
// skipped (their groups have their own pools), and a member re-announced
// under a known (NodeID, PartitionID) pair at a different address is
// ignored until the original address drops out — two partitions reusing a
// node ID must never collapse into one host.
func (p *Pool) mergeMembers(members []wire.ClusterMember) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	for _, m := range members {
		if m.Addr == "" {
			continue
		}
		if m.PartitionID != p.part {
			continue
		}
		if m.NodeID != 0 {
			key := memberKey{node: m.NodeID, part: m.PartitionID}
			if prev, ok := p.members[key]; ok && prev != m.Addr {
				continue
			}
			p.members[key] = m.Addr
		}
		p.hostFor(m.Addr)
	}
}

// readOrder returns replica candidates by policy, primary appended as
// the fallback of last resort.
func (p *Pool) readOrder() []*host {
	p.mu.Lock()
	replicas := append([]*host(nil), p.replicas...)
	primary := p.primary
	p.mu.Unlock()
	switch p.cfg.Policy {
	case RoundRobin:
		if n := len(replicas); n > 1 {
			// Modulo in uint32: int() of a large counter is negative on
			// 32-bit platforms and would index out of bounds.
			start := int(p.rr.Add(1) % uint32(n))
			rot := make([]*host, 0, n)
			rot = append(rot, replicas[start:]...)
			rot = append(rot, replicas[:start]...)
			replicas = rot
		}
	default: // LeastLag: freshest replica first
		for i := 1; i < len(replicas); i++ {
			for j := i; j > 0 && replicas[j].applied.Load() > replicas[j-1].applied.Load(); j-- {
				replicas[j], replicas[j-1] = replicas[j-1], replicas[j]
			}
		}
	}
	// The current primary serves reads when no replica can.
	out := replicas
	if primary != nil {
		out = append(out, primary)
	}
	return out
}

// Read runs fn on a read session routed to the replica fleet. The
// causality token's newest commit LSN is injected as the session's
// read-your-writes gate, so fn observes every write previously recorded
// under that token. A dead replica is skipped for the next candidate;
// the primary is the final fallback. Semantic errors from fn (not-found,
// conflicts) return immediately without re-routing.
func (p *Pool) Read(ctx context.Context, token string, fn func(c *Client) error) error {
	sp := p.cfg.Tracer.StartRoot("pool.read")
	defer sp.Finish()
	ctx = trace.ContextWith(ctx, sp)
	gate := p.Token(token)
	p.mu.Lock()
	primary := p.primary
	p.mu.Unlock()
	var lastErr error
	for _, h := range p.readOrder() {
		next, err := p.readOn(ctx, h, gate, fn)
		if !next {
			return err
		}
		lastErr = err
	}
	// Nobody in the rotation could serve the read, the primary on record
	// included. After a failover that record is stale — a pool whose only
	// replica was promoted has an empty rotation and a dead primary — so
	// look for the current primary, as Write does, and read there.
	if p.discoverPrimary(ctx) == nil {
		p.mu.Lock()
		found := p.primary
		p.mu.Unlock()
		if found != primary {
			next, err := p.readOn(ctx, found, gate, fn)
			if !next {
				return err
			}
			lastErr = err
		}
	}
	if lastErr == nil {
		lastErr = errors.New("client: pool has no hosts")
	}
	return fmt.Errorf("client: pool read: %w", lastErr)
}

// readOn runs fn on a session to h behind the read-your-writes gate. next
// reports that h could not serve the read (unreachable, draining, too far
// behind) and another host should be tried; otherwise err is the read's
// outcome.
func (p *Pool) readOn(ctx context.Context, h *host, gate uint64, fn func(c *Client) error) (next bool, err error) {
	c, err := p.sessions.Borrow(ctx, h.addr)
	if err != nil {
		if p.pm != nil {
			p.pm.readSkips.Inc()
		}
		return true, err
	}
	c.ReadAfter(gate)
	c.span = trace.SpanFrom(ctx)
	err = fn(c)
	c.span = nil
	c.ReadAfter(0)
	broken := c.Broken()
	p.sessions.Return(c)
	if err == nil {
		if p.pm != nil {
			p.mu.Lock()
			onPrimary := h == p.primary
			p.mu.Unlock()
			if onPrimary {
				p.pm.readsPrimary.Inc()
			} else {
				p.pm.readsReplica.Inc()
			}
		}
		return false, nil
	}
	if !broken && !isAvailabilityErr(err) {
		return false, err // the server answered; fn's error is real
	}
	if p.pm != nil {
		p.pm.readSkips.Inc()
	}
	return true, err
}

// Write runs fn on a session to the primary and records the newest
// commit LSN under the causality token. If the primary is unreachable or
// answers ErrReadOnlyReplica (it was demoted, or a replica was promoted
// elsewhere), the pool re-discovers the primary by probing cluster_status
// across every known address and retries fn once on the new one.
//
// The retry makes Write AT-LEAST-ONCE: a transport failure can strike
// after the server committed but before the response arrived, in which
// case the retry re-executes fn. Callers for whom duplicate execution
// matters should make fn idempotent (e.g. keyed upserts) or disable
// ambiguity by using a plain Client and treating transport errors as
// in-doubt.
//
// A primary answering ErrOverloaded is alive but shedding load — the
// pool backs off and retries (see retry) rather than hammering it; if the
// overload outlasts the budget the ErrOverloaded surfaces to the caller.
// Mid-election the fleet has no primary at all: every node answers
// "replica" and discovery fails with ErrNoPrimary, which is retried the
// same way until a node wins.
func (p *Pool) Write(ctx context.Context, token string, fn func(c *Client) error) error {
	// One root span covers the whole routed write: every attempt's calls,
	// the backoffs and the post-failover retry share its trace ID.
	sp := p.cfg.Tracer.StartRoot("pool.write")
	defer sp.Finish()
	ctx = trace.ContextWith(ctx, sp)
	overloaded := func(err error) bool {
		if !errors.Is(err, ErrOverloaded) {
			return false
		}
		if p.pm != nil {
			p.pm.overloadBackoffs.Inc()
		}
		return true
	}
	err := retry(ctx, overloaded, func(ctx context.Context) error { return p.writeOnce(ctx, token, fn) })
	if err == nil || !p.shouldFailover(err) {
		return err
	}
	if p.pm != nil {
		p.pm.writeFailovers.Inc()
	}
	noPrimary := func(err error) bool { return errors.Is(err, ErrNoPrimary) }
	if derr := retry(ctx, noPrimary, p.discoverPrimary); derr != nil {
		return fmt.Errorf("client: pool write failed (%v) and no primary found: %w", err, derr)
	}
	return p.writeOnce(ctx, token, fn)
}

// The one backoff policy of the SDK: a retried operation waits
// ~retryBackoffMin first, doubling per attempt up to retryBackoffMax,
// until the context's deadline — or, under a context without one, for at
// most retryMax retries.
const (
	retryBackoffMin = 50 * time.Millisecond
	retryBackoffMax = time.Second
	retryMax        = 6
)

// retry runs op until it succeeds, fails with an error again declines, or
// the budget above is spent; the last error is what surfaces (joined with
// the context's when the context ended the wait). Every "not now, but
// soon" of the fleet goes through here: an overloaded primary, a group
// mid-election, a fleet still binding its listeners.
func retry(ctx context.Context, again func(error) bool, op func(context.Context) error) error {
	_, bounded := ctx.Deadline()
	wait := retryBackoffMin
	for tries := 0; ; tries++ {
		err := op(ctx)
		if err == nil || (!bounded && tries >= retryMax) || !again(err) {
			return err
		}
		select {
		case <-time.After(jitteredDelay(wait)):
		case <-ctx.Done():
			return fmt.Errorf("%w: %w", err, ctx.Err())
		}
		if wait *= 2; wait > retryBackoffMax {
			wait = retryBackoffMax
		}
	}
}

// jitteredDelay spreads one backoff uniformly over [d/2, d] so a herd of
// rejected writers doesn't retry in lockstep.
func jitteredDelay(d time.Duration) time.Duration {
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(d-half)+1))
}

// writeOnce runs fn against the current primary.
func (p *Pool) writeOnce(ctx context.Context, token string, fn func(c *Client) error) error {
	p.mu.Lock()
	h := p.primary
	p.mu.Unlock()
	c, err := p.sessions.Borrow(ctx, h.addr)
	if err != nil {
		return fmt.Errorf("client: pool write: %w", err)
	}
	// Sessions are recycled across tokens and carry their newest commit
	// LSN; credit the token only with commits fn itself performed, not a
	// previous borrower's leftovers.
	before := c.LastCommitLSN()
	c.span = trace.SpanFrom(ctx)
	err = fn(c)
	c.span = nil
	if after := c.LastCommitLSN(); after > before {
		p.noteLSN(token, after)
	}
	p.sessions.Return(c)
	return err
}

// shouldFailover reports whether a write error means the primary moved:
// the node is gone (transport error) or explicitly read-only (demoted /
// never promoted).
func (p *Pool) shouldFailover(err error) bool {
	return errors.Is(err, neograph.ErrReadOnlyReplica) ||
		errors.Is(err, ErrBroken) ||
		isTransportErr(err)
}

// isAvailabilityErr detects server-answered errors that mean "this host
// cannot serve the read right now" rather than "the read is wrong": a
// draining server shedding its gated waiters, or a replica too far
// behind to satisfy the read-your-writes gate in time. Another candidate
// (or the primary fallback) may well serve the same read. Classified by
// the wire error code (mapped to ErrUnavailable / ErrOverloaded
// client-side) — an overloaded replica is shedding load, so the read
// should try the next candidate rather than fail.
func isAvailabilityErr(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrOverloaded)
}

// isTransportErr detects connection-level failures (dial refused, reset,
// EOF, a call torn down mid-frame) as opposed to server-answered errors.
func isTransportErr(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// discoverPrimary probes every known address — the primary on record,
// then the replicas, then the rest — and routes writes to the first one
// holding the primary (or standalone) role: after a failover Promote,
// that is the promoted replica. The demoted address stays in the host set
// (it may come back as a replica).
func (p *Pool) discoverPrimary(ctx context.Context) error {
	p.mu.Lock()
	ordered := append([]*host{p.primary}, p.replicas...)
	for _, h := range p.hosts {
		if !slices.Contains(ordered, h) {
			ordered = append(ordered, h)
		}
	}
	p.mu.Unlock()

	for _, h := range ordered {
		probeCtx, cancel := ctx, func() {}
		if _, ok := ctx.Deadline(); !ok {
			probeCtx, cancel = context.WithTimeout(ctx, 2*time.Second)
		}
		role, err := p.probe(probeCtx, h)
		cancel()
		if err != nil || !writable(role) {
			continue
		}
		p.mu.Lock()
		p.primary = h
		// Reads must not route to the write master unless nothing else
		// can serve them; drop it from the replica rotation.
		p.dropReplica(h)
		p.mu.Unlock()
		return nil
	}
	return ErrNoPrimary
}
