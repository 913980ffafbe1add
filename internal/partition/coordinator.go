package partition

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"neograph/client"
	"neograph/internal/core"
	"neograph/internal/wire"
)

// gtxnSeqBits is how much of a global transaction ID the per-coordinator
// sequence occupies; the coordinating partition sits above it, so IDs
// from different coordinators can never collide.
const gtxnSeqBits = 48

// resolveEvery paces the background in-doubt resolver and decision
// repusher.
const resolveEvery = 500 * time.Millisecond

// rpcTimeout bounds one coordinator-to-participant round trip when the
// request carries no deadline of its own.
const rpcTimeout = 5 * time.Second

// Local is the coordinator's handle on its own partition: batch
// preparation runs through the server (it owns op execution), the rest
// through the engine's two-phase-commit surface.
type Local struct {
	// PrepareBatch executes batch in a fresh transaction and parks it
	// prepared under gtxn (see wire.OpPrepare). The response carries
	// per-op Results and the prepare record's LSN.
	PrepareBatch func(gtxn uint64, coordPart uint32, batch []wire.Request, validate []uint64) *wire.Response
	// Engine returns the partition's engine. It is looked up per call: a
	// re-seed swaps it under a live server.
	Engine func() *core.Engine
}

// Coordinator runs cross-partition transactions over the partition
// topology: it splits a batch per partition, prepares every participant
// (its own partition through Local, the rest over the wire), makes the
// commit decision durable locally, and pushes it out. Background loops
// resolve in-doubt prepares (participant side) and re-push unacked
// decisions (coordinator side) after crashes.
type Coordinator struct {
	self  uint32
	topo  *Topology
	local Local
	log   *slog.Logger

	seq atomic.Uint64

	// inflight guards live coordinations: the resolver must not
	// presume-abort a local prepare whose decision is milliseconds away.
	inflightMu sync.Mutex
	inflight   map[uint64]struct{}

	// primaries caches each partition's last known good address.
	primaries sync.Map // uint32 -> string

	// sessions holds one session per address: the 2PC control ops are
	// stateless request/response pairs, so one serialised session is enough.
	sessions *client.Sessions

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator creates a coordinator for partition self. seqBase
// seeds the global-transaction sequence; pass the engine's applied LSN
// so a restarted coordinator can never re-mint a still-in-doubt ID.
func NewCoordinator(self uint32, topo *Topology, local Local, seqBase uint64, logger *slog.Logger) *Coordinator {
	c := &Coordinator{
		self:     self,
		topo:     topo,
		local:    local,
		log:      cmp.Or(logger, slog.New(slog.DiscardHandler)),
		inflight: make(map[uint64]struct{}),
		sessions: client.NewSessions(1),
		stop:     make(chan struct{}),
	}
	c.seq.Store(seqBase)
	return c
}

// Start launches the background resolver and repusher.
func (c *Coordinator) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(resolveEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.ResolveInDoubt()
				c.RepushDecisions()
			}
		}
	}()
}

// Close stops the background loops and closes the sessions: a closed
// coordinator reaches no participant — a coordination still in flight
// aborts, or leaves its logged decision to the next start's repusher.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.wg.Wait()
	c.sessions.Close()
}

// mint issues a cluster-unique global transaction ID.
func (c *Coordinator) mint() uint64 {
	return uint64(c.self)<<gtxnSeqBits | (c.seq.Add(1) & (1<<gtxnSeqBits - 1))
}

func (c *Coordinator) markInflight(gtxn uint64) {
	c.inflightMu.Lock()
	c.inflight[gtxn] = struct{}{}
	c.inflightMu.Unlock()
}

func (c *Coordinator) unmarkInflight(gtxn uint64) {
	c.inflightMu.Lock()
	delete(c.inflight, gtxn)
	c.inflightMu.Unlock()
}

// IsInflight reports whether this coordinator is still driving gtxn to
// its decision. Until it has prepared its own partition the engine holds
// no state for the transaction, so the engine alone would answer a
// participant's status question "unknown" — presumed abort — for a batch
// that is about to commit.
func (c *Coordinator) IsInflight(gtxn uint64) bool {
	c.inflightMu.Lock()
	_, ok := c.inflight[gtxn]
	c.inflightMu.Unlock()
	return ok
}

// CommitBatch runs one cross-partition batch to a decision and returns
// the merged response. deadline bounds the whole coordination (zero
// means none). The response's LSN is the local decision record's end
// position — the read-your-writes token for this partition.
func (c *Coordinator) CommitBatch(batch []wire.Request, deadline time.Time) *wire.Response {
	plan, err := planBatch(batch, c.self, c.topo.Count())
	if err != nil {
		return &wire.Response{Error: err.Error()}
	}
	gtxn := c.mint()
	c.markInflight(gtxn)
	defer c.unmarkInflight(gtxn)

	// createdID[g] is the entity ID created by global sub-op g, learned
	// as each partition's prepare returns; localResults mirrors per
	// partition.
	created := make(map[int]uint64)
	results := make(map[uint32][]wire.Response)
	var prepared []uint32

	// abortAll discards every prepare and answers with the failure that
	// caused it: its message under the coordinator's heading, its code
	// carried through, so the client still matches the engine sentinel.
	abortAll := func(failIdx int, code, msg string) *wire.Response {
		for _, p := range prepared {
			if p == c.self {
				c.local.Engine().DecideTxn(gtxn, false, nil)
			} else if err := c.decideRemote(p, gtxn, false, deadline); err != nil {
				// The participant resolves through the in-doubt loop:
				// our status for gtxn stays "unknown" — presumed abort.
				c.log.Warn("partition: abort push failed", "gtxn", gtxn, "part", p, "err", err.Error())
			}
		}
		resp := &wire.Response{Error: fmt.Sprintf("partition: cross-partition batch aborted: %s", msg), Code: code}
		if failIdx >= 0 {
			resp.FailedOp = &failIdx
		}
		return resp
	}

	for _, part := range plan.order {
		sub := plan.sub[part]
		// Fill cross-partition references now that their targets have
		// prepared (plan.order guarantees they have).
		for _, ps := range plan.subs {
			if ps.part != part {
				continue
			}
			id, ok := created[ps.target]
			if !ok {
				return abortAll(-1, "", fmt.Sprintf("internal: unresolved reference to sub-op %d", ps.target))
			}
			switch ps.field {
			case fieldID:
				sub[ps.localIdx].ID = id
			case fieldStart:
				sub[ps.localIdx].Start = id
			case fieldEnd:
				sub[ps.localIdx].End = id
			}
		}

		var resp *wire.Response
		if part == c.self {
			resp = c.local.PrepareBatch(gtxn, c.self, sub, plan.validate[part])
		} else {
			resp = c.prepareRemote(part, gtxn, sub, plan.validate[part], deadline)
		}
		if !resp.OK {
			idx := -1
			if resp.FailedOp != nil {
				// Map the participant's local failed index back to the
				// caller's global batch order.
				for g, r := range plan.route {
					if r.part == part && r.localIdx == *resp.FailedOp {
						idx = g
						break
					}
				}
			}
			return abortAll(idx, resp.Code, resp.Error)
		}
		prepared = append(prepared, part)
		results[part] = resp.Results
		for li, r := range resp.Results {
			for g, rt := range plan.route {
				if rt.part == part && rt.localIdx == li && r.ID != 0 {
					created[g] = r.ID
				}
			}
		}
	}

	// The local durable decision record is the global commit point:
	// after this returns, the transaction is committed no matter which
	// processes die.
	participants := make([]uint32, 0, len(prepared))
	for _, p := range prepared {
		if p != c.self {
			participants = append(participants, p)
		}
	}
	_, lsn, err := c.local.Engine().DecideTxn(gtxn, true, participants)
	if err != nil {
		return abortAll(-1, wire.CodeOf(err), fmt.Sprintf("decision: %v", err))
	}

	// Push the decision; failures are retried by the repush loop (the
	// outcome is already durable).
	for _, p := range participants {
		if err := c.decideRemote(p, gtxn, true, deadline); err != nil {
			c.log.Warn("partition: decide push failed, repush pending", "gtxn", gtxn, "part", p, "err", err.Error())
			continue
		}
		c.local.Engine().AckDecision(gtxn, p)
	}

	// Merge per-partition results back into submission order.
	merged := make([]wire.Response, len(batch))
	for g, rt := range plan.route {
		rs := results[rt.part]
		if rt.localIdx < len(rs) {
			merged[g] = rs[rt.localIdx]
		} else {
			merged[g] = wire.Response{OK: true}
		}
	}
	return &wire.Response{OK: true, Results: merged, LSN: lsn}
}

// ResolveInDoubt drives one pass of the participant-side resolver:
// every locally prepared transaction whose coordinator is another
// partition asks that partition for the outcome; "committed" applies
// it, "aborted"/"unknown" discards it (presumed abort), "pending" waits.
// Prepares coordinated by this very partition that are not currently in
// flight are orphans of a coordinator crash before the decision — the
// local status is authoritative, so they abort.
func (c *Coordinator) ResolveInDoubt() {
	for _, d := range c.local.Engine().InDoubt() {
		if c.IsInflight(d.Gtxn) {
			continue
		}
		if d.CoordPart == c.self {
			// Our own orphan: no durable decision exists (a decided
			// transaction is no longer in doubt), so nobody was ever
			// acked — presumed abort.
			c.local.Engine().DecideTxn(d.Gtxn, false, nil)
			c.log.Info("partition: aborted orphaned local prepare", "gtxn", d.Gtxn)
			continue
		}
		state, err := c.statusRemote(d.CoordPart, d.Gtxn)
		if err != nil {
			continue // coordinator unreachable; retry next pass
		}
		switch state {
		case "committed":
			c.local.Engine().DecideTxn(d.Gtxn, true, nil)
		case "aborted", "unknown":
			c.local.Engine().DecideTxn(d.Gtxn, false, nil)
		}
	}
}

// RepushDecisions drives one pass of the coordinator-side repusher:
// every unacknowledged commit decision is re-sent to its outstanding
// participants; an acknowledged push ends that participant's share of
// the obligation.
func (c *Coordinator) RepushDecisions() {
	for _, d := range c.local.Engine().UnackedDecisions() {
		for _, p := range d.Participants {
			if p == c.self {
				c.local.Engine().AckDecision(d.Gtxn, p)
				continue
			}
			if err := c.decideRemote(p, d.Gtxn, true, time.Time{}); err != nil {
				continue
			}
			c.local.Engine().AckDecision(d.Gtxn, p)
		}
	}
}

// ---- remote calls ----

func (c *Coordinator) prepareRemote(part uint32, gtxn uint64, batch []wire.Request, validate []uint64, deadline time.Time) *wire.Response {
	req := &wire.Request{
		Op:            wire.OpPrepare,
		TxnID:         gtxn,
		CoordPart:     c.self,
		Batch:         batch,
		ValidateNodes: validate,
	}
	resp, err := c.rpc(part, req, deadline)
	if resp == nil {
		return &wire.Response{Error: fmt.Sprintf("partition %d unreachable: %v", part, err), Code: wire.CodeUnavailable}
	}
	return resp
}

func (c *Coordinator) decideRemote(part uint32, gtxn uint64, commit bool, deadline time.Time) error {
	_, err := c.rpc(part, &wire.Request{Op: wire.OpDecide, TxnID: gtxn, Commit: &commit}, deadline)
	return err
}

func (c *Coordinator) statusRemote(part uint32, gtxn uint64) (string, error) {
	resp, err := c.rpc(part, &wire.Request{Op: wire.OpTxnStatus, TxnID: gtxn}, time.Time{})
	if err != nil {
		return "", err
	}
	return resp.State, nil
}

// rpc performs one request against partition part's current primary:
// the cached primary first, then every configured group address. An
// address that is unreachable — or answers as a read-only replica —
// falls through to the next; any other answer is final, returned as the
// SDK returns it: the response, and for a server-reported failure also
// its error. A nil response means nobody answered.
func (c *Coordinator) rpc(part uint32, req *wire.Request, deadline time.Time) (*wire.Response, error) {
	addrs := c.topo.Addrs(part)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("no addresses for partition %d", part)
	}
	if cached, ok := c.primaries.Load(part); ok {
		a := cached.(string)
		ordered := []string{a}
		for _, x := range addrs {
			if x != a {
				ordered = append(ordered, x)
			}
		}
		addrs = ordered
	}
	var lastErr error
	for _, addr := range addrs {
		resp, err := c.do(addr, req, deadline)
		if resp == nil || errors.Is(err, core.ErrReadOnlyReplica) {
			lastErr = fmt.Errorf("%s: %w", addr, err)
			continue
		}
		c.primaries.Store(part, addr)
		return resp, err
	}
	return nil, lastErr
}

// do sends req on the cached session to addr, within deadline (zero:
// rpcTimeout from now). A session that broke under the call — a cached one
// gone stale because the server restarted — gets one redial.
func (c *Coordinator) do(addr string, req *wire.Request, deadline time.Time) (resp *wire.Response, err error) {
	if deadline.IsZero() {
		deadline = time.Now().Add(rpcTimeout)
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	for attempt := 0; attempt < 2; attempt++ {
		var cl *client.Client
		if cl, err = c.sessions.Borrow(ctx, addr); err != nil {
			return nil, err
		}
		r := *req // the session stamps seq, deadline and trace into what it sends
		resp, err = cl.Do(ctx, &r)
		broken := cl.Broken()
		c.sessions.Return(cl)
		if !broken {
			return resp, err
		}
	}
	return nil, err
}
