package server

import (
	"errors"
	"fmt"

	"neograph/internal/core"
	"neograph/internal/partition"
	"neograph/internal/wire"
)

// Partition integration: a partitioned server owns one hash partition
// of the ID space and refuses (with a routing hint) operations on
// entities it does not own; batches that span partitions are handed to
// the coordinator, which drives two-phase commit across the involved
// partitions' primaries.

// SetPartition wires the partition coordinator into the server's
// dispatch: cross-partition batches route through coord, misrouted
// single-entity ops fail with the owner partition named, and the
// prepare/decide/txn_status ops come alive. self/count mirror the
// database's PartitionID/PartitionCount.
func (s *Server) SetPartition(coord *partition.Coordinator, self uint32, count int) {
	s.clusterMu.Lock()
	s.coord = coord
	s.partSelf = self
	s.partCount = count
	s.clusterMu.Unlock()
}

// partitionView snapshots the partition wiring for one request.
func (s *Server) partitionView() (*partition.Coordinator, uint32, int) {
	s.clusterMu.Lock()
	defer s.clusterMu.Unlock()
	return s.coord, s.partSelf, s.partCount
}

// Local returns the coordinator's handle on this server's partition —
// pass it to partition.NewCoordinator.
func (s *Server) Local() partition.Local {
	return partition.Local{PrepareBatch: s.prepareBatch, Engine: s.db.Engine}
}

// prepareBatch is phase one on a participant: run the sub-ops in a
// fresh transaction (relationship creation tolerating remote endpoints)
// and park it prepared under gtxn. An empty batch is a valid anchor —
// the coordinator prepares validate-only and decision-anchor entries
// with no ops.
func (s *Server) prepareBatch(gtxn uint64, coordPart uint32, batch []wire.Request, validate []uint64) *wire.Response {
	sess := &session{db: s.db, srv: s, crossPrepare: true}
	if s.db.IsReplica() {
		return fail(sess.redirect("prepare"))
	}
	if err := wire.ValidateOps(batch); err != nil {
		return fail(err)
	}
	sess.tx = s.db.Begin()
	results, failed := sess.runBatchOps("prepare", batch)
	if failed != nil {
		return failed
	}
	lsn, err := sess.tx.Core().Prepare(gtxn, coordPart, validate)
	if err != nil {
		return fail(err) // Prepare aborts the transaction itself
	}
	return &wire.Response{OK: true, Results: results, LSN: lsn}
}

// misrouted builds the structured routing error for an op anchored to
// an entity this partition does not own. Clients parse the owner out of
// Response.Error only as a hint — the partition map is the real router.
func misrouted(self uint32, count int, kind wire.Anchor, id uint64) error {
	return fmt.Errorf("server: wrong partition: %s %d belongs to partition %d of %d (this is partition %d)",
		kind, id, wire.OwnerOf(id, count), count, self)
}

// routePartitioned enforces single-op routing on a partitioned server
// and diverts cross-partition relationship creation through the
// coordinator. It returns (response, true) when it fully handled the
// request.
func (sess *session) routePartitioned(req *wire.Request) (*wire.Response, bool) {
	coord, self, count := sess.srv.partitionView()
	if coord == nil || count <= 1 {
		return nil, false
	}
	pl := wire.Place(req)
	if pl.Anchor == wire.AnchorNone {
		return nil, false
	}
	if wire.OwnerOf(pl.Home.ID, count) != self {
		// For a relationship creation too: the edge lives on the start
		// node's partition; this server cannot even allocate its ID. The
		// client router should have sent it there.
		return fail(misrouted(self, count, pl.Anchor, pl.Home.ID)), true
	}
	if pl.Anchor != wire.AnchorEnds || wire.OwnerOf(pl.Far.ID, count) == self {
		return nil, false
	}
	// Local source, remote destination: a one-op cross-partition
	// transaction (the destination partition pins the endpoint).
	if sess.tx != nil {
		return fail(errors.New("server: cross-partition create_rel is not allowed inside an explicit transaction")), true
	}
	op := *req // as a sub-op: gating belongs to the request as a whole
	op.WaitLSN, op.DeadlineMS = 0, 0
	return coord.CommitBatch([]wire.Request{op}, sess.deadline), true
}

// dispatchPartitionOp handles the 2PC control ops (top level only).
func (sess *session) dispatchPartitionOp(req *wire.Request) *wire.Response {
	if sess.srv == nil {
		return fail(errors.New("server: not a partitioned deployment"))
	}
	coord, _, count := sess.srv.partitionView()
	if coord == nil || count <= 1 {
		return fail(errors.New("server: not a partitioned deployment"))
	}
	switch req.Op {
	case wire.OpPrepare:
		return sess.srv.prepareBatch(req.TxnID, req.CoordPart, req.Batch, req.ValidateNodes)

	case wire.OpDecide:
		if req.Commit == nil {
			return fail(errors.New("server: decide without a verdict"))
		}
		_, lsn, err := sess.db.Engine().DecideTxn(req.TxnID, *req.Commit, req.Participants)
		if err != nil {
			if errors.Is(err, core.ErrNotPrepared) {
				// Already decided (a repush raced the first push, or a
				// recovery already resolved it): acknowledging again is
				// harmless and lets the coordinator retire the decision.
				return &wire.Response{OK: true, State: string(sess.db.Engine().TxnStatus(req.TxnID))}
			}
			return fail(err)
		}
		return &wire.Response{OK: true, LSN: lsn}

	case wire.OpTxnStatus:
		// Only the primary's answer is authoritative: a lagging replica
		// could answer "unknown" for a transaction whose decision is on
		// the wire, and "unknown" means presumed abort to the asker.
		if sess.db.IsReplica() {
			return fail(sess.redirect("txn_status"))
		}
		// The coordinator's in-flight set is read first: a coordination
		// that ends between the two reads has left its verdict in the engine.
		inflight := coord.IsInflight(req.TxnID)
		state := sess.db.Engine().TxnStatus(req.TxnID)
		if state == core.TxnUnknown && inflight {
			state = core.TxnPending
		}
		return &wire.Response{OK: true, State: string(state)}

	default:
		return fail(fmt.Errorf("server: unknown partition op %q", req.Op))
	}
}
