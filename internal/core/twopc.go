package core

import (
	"cmp"
	"fmt"
	"slices"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
)

// Two-phase commit participant and coordinator state.
//
// A cross-partition transaction is prepared on every participant
// partition and decided by its coordinator (the partition that received
// the client's batch). The protocol is presumed abort:
//
//   - Prepare validates the transaction exactly as Commit would, writes
//     a 'P' record carrying the staged mutations to the WAL, and parks
//     the transaction: its write locks stay held and its keys are
//     registered in the per-stripe prepared tables, so no concurrent
//     transaction — under any conflict policy — can touch a prepared
//     key until the decision arrives.
//   - The coordinator's own durable commit decision ('D' record, with
//     the participant list) is the commit point: the client is acked
//     only after it. Decisions fan out to participants afterwards and
//     are re-pushed until every participant durably acked ('E' record).
//   - A participant that restarts with a prepared-but-undecided
//     transaction re-arms the guards from the 'P' record and asks the
//     coordinator partition for the verdict; a coordinator with no
//     recorded decision answers "aborted" (presumed abort).
//
// Records ride the existing WAL/LSN/epoch machinery, so they replicate
// to the partition's replicas byte-exactly: a promoted replica inherits
// the prepared table and any coordinator decisions wholesale.
//
// The two tables below change in one place only — fold's park, settle
// and end transitions (record.go) — and on a running primary always
// inside the commit-gate section that appended the record causing the
// change. They are what pins the WAL (twopcFloor), and the checkpointer
// reads that floor at its cut under the exclusive gate: a table that
// changed anywhere else could let a checkpoint truncate the only copy of
// a prepared transaction's mutations.

// ErrNotPrepared reports a decide or status probe for a global
// transaction this engine holds no prepared state for.
var ErrNotPrepared = fmt.Errorf("core: transaction not prepared here")

// TxnState is an engine's local knowledge of a global transaction.
type TxnState string

const (
	TxnCommitted TxnState = "committed"
	TxnAborted   TxnState = "aborted"
	TxnPending   TxnState = "pending" // prepared locally, verdict not yet recorded
	TxnUnknown   TxnState = "unknown" // no state — presumed abort
)

// preparedTxn is a prepared-but-undecided transaction: the staged
// mutations awaiting the verdict plus the guards that keep every touched
// key untouchable until it arrives.
type preparedTxn struct {
	gtxn      uint64
	coordPart uint32
	muts      []mutation
	keys      []entKey // write keys + guarded endpoints, the prepared-table footprint (sorted, no duplicates)
	lockTxn   uint64   // lock.Manager owner holding the long locks until decide
	lsn       uint64   // LSN of the 'P' record (WAL truncation floor)
	deciding  bool     // a DecideTxn has claimed it (guarded by prepMu): a second one is a retry
}

// decidedTxn is a coordinator-side committed decision whose participants
// have not all acked yet; it pins the WAL so a restarted coordinator can
// keep re-pushing the verdict.
type decidedTxn struct {
	gtxn         uint64
	commit       bool
	lsn          uint64              // LSN of the 'D' record
	participants map[uint32]struct{} // partitions still owed the decision
}

// PreparedInfo describes one in-doubt transaction for the resolver.
type PreparedInfo struct {
	Gtxn      uint64
	CoordPart uint32
}

// DecidedInfo describes one unacked coordinator decision for the
// decision-repush loop.
type DecidedInfo struct {
	Gtxn         uint64
	Commit       bool
	Participants []uint32
}

// OwnsID reports whether this engine's partition owns an entity ID
// (id % PartitionCount == PartitionID). With no partitioning configured
// every ID is local.
func (e *Engine) OwnsID(id ids.ID) bool {
	if e.opts.PartitionCount <= 1 {
		return true
	}
	return id%uint64(e.opts.PartitionCount) == uint64(e.opts.PartitionID)
}

// newPrepared builds the parked form of a 'P' record, its long locks to
// be held by lockTxn. The footprint is every write key, plus the locally
// owned endpoint nodes of created relationships, plus the guard set —
// sorted, each key once.
func (e *Engine) newPrepared(r *record, lockTxn uint64) *preparedTxn {
	keys := make([]entKey, 0, len(r.muts)+len(r.validate))
	for _, m := range r.muts {
		keys = append(keys, m.key)
		if m.created && m.rel != nil && !m.deleted {
			for _, n := range [2]ids.ID{m.rel.Start, m.rel.End} {
				if e.OwnsID(n) {
					keys = append(keys, entKey{lock.KindNode, n})
				}
			}
		}
	}
	for _, n := range r.validate {
		keys = append(keys, entKey{lock.KindNode, n})
	}
	slices.SortFunc(keys, func(a, b entKey) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.id, b.id))
	})
	return &preparedTxn{gtxn: r.gtxn, coordPart: r.coordPart, muts: r.muts, keys: slices.Compact(keys), lockTxn: lockTxn}
}

// lockKeys takes (or re-enters) the long write locks on keys for owner,
// without waiting.
func (e *Engine) lockKeys(owner uint64, keys []entKey) error {
	for _, k := range keys {
		if err := e.locks.TryAcquire(owner, lock.Key{Kind: k.kind, ID: k.id}, lock.Exclusive); err != nil {
			return e.conflict(k, fmt.Errorf("%w: %s locked by concurrent transaction", ErrWriteConflict, fmtKey(k)))
		}
	}
	return nil
}

// Prepare runs phase one of two-phase commit for this transaction: it
// validates the write set exactly as Commit would, takes (or keeps) the
// write locks, logs a durable 'P' record, and parks the transaction —
// every touched key registered in the prepared tables — until DecideTxn.
// validate lists endpoint nodes this partition must guard alive for a
// relationship stored on another partition. It returns the 'P' record's
// LSN.
//
// On success the transaction is consumed (Commit/Abort return ErrTxDone)
// and its guards persist until the decision; on failure everything is
// released and the transaction is aborted, exactly as a failed Commit.
func (t *Tx) Prepare(gtxn uint64, coordPart uint32, validate []ids.ID) (uint64, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	t.done = true
	e := t.e

	fail := func(err error) (uint64, error) {
		t.abortStaged()
		t.cleanup()
		e.stats.aborted.Add(1)
		return 0, err
	}
	if e.replica.Load() {
		return fail(fmt.Errorf("%w: prepare rejected", ErrReadOnlyReplica))
	}

	// The latches are held even when nothing validates at commit: the
	// prepared tables live under them. The long locks make lock-based
	// transactions (first-updater-wins staging, read committed) block on a
	// prepared key too; under first-updater-wins this transaction already
	// holds those of its writes.
	r := record{tag: recPrepare, gtxn: gtxn, coordPart: coordPart, validate: validate, muts: t.mutations()}
	p := e.newPrepared(&r, t.id)
	var ls latchSet
	e.latch(&ls, nil, p.keys)
	err := t.validate(t.fcw(), validate)
	if err == nil {
		err = e.lockKeys(t.id, p.keys)
	}
	var lsn, end uint64
	if err == nil {
		if lsn, end, err = e.logInstall(nil, &r, p); err != nil {
			err = fmt.Errorf("core: prepare %w", err)
		}
	}
	e.unlatch(&ls)
	if err != nil {
		return fail(err)
	}
	// Parked. The snapshot registration is released (the prepared state no
	// longer reads); the locks stay held under t.id until the decision.
	if t.iso == SnapshotIsolation {
		e.active.Unregister(t.id)
	}
	// The 'P' record is in the log, so the transaction stays parked even
	// if it cannot be made durable: only a 'D' un-parks.
	if err := e.await(nil, &r, end); err != nil {
		return 0, fmt.Errorf("core: prepare %d %w", gtxn, err)
	}
	return lsn, nil
}

// DecideTxn delivers the verdict for a transaction prepared on this
// engine: a durable 'D' record is logged, and its fold installs the
// prepared mutations at a fresh local commit timestamp (commit) or
// discards them (abort) and releases every guard. participants is
// non-empty only on the coordinator's own decide — it is persisted in
// the record and tracked until AckDecision drains it.
//
// It returns the commit timestamp (zero for an abort) and the decision
// record's end position in the log — like Tx.CommitLSN, the position a
// replica must have applied to observe the decision, i.e. the
// read-your-writes token (zero without a store).
//
// Deciding an unknown gtxn returns ErrNotPrepared (the caller treats a
// retried decision as already applied).
func (e *Engine) DecideTxn(gtxn uint64, commit bool, participants []uint32) (cts mvcc.TS, end uint64, err error) {
	if e.closed.Load() {
		return 0, 0, ErrClosed
	}
	if e.replica.Load() {
		return 0, 0, fmt.Errorf("%w: decisions reach a replica through the WAL stream", ErrReadOnlyReplica)
	}
	// Claim the parked transaction. It stays in the table — and so keeps
	// pinning its 'P' record and answering "pending" — until the fold of
	// the 'D' record replaces it.
	e.prepMu.Lock()
	p := e.prepared[gtxn]
	if p == nil || p.deciding {
		e.prepMu.Unlock()
		return 0, 0, fmt.Errorf("%w: gtxn %d", ErrNotPrepared, gtxn)
	}
	p.deciding = true
	e.prepMu.Unlock()

	r := record{tag: recDecision, gtxn: gtxn, commit: commit, parts: participants}
	var ls latchSet
	e.latch(&ls, nil, p.keys)
	_, end, err = e.logInstall(nil, &r, p)
	e.unlatch(&ls)
	if err != nil {
		// Not logged, so not decided: a retry (or recovery) decides again.
		e.prepMu.Lock()
		p.deciding = false
		e.prepMu.Unlock()
		return 0, 0, fmt.Errorf("core: decision %w", err)
	}
	if commit {
		e.stats.committed.Add(1)
	} else {
		e.stats.aborted.Add(1)
	}
	if err := e.await(nil, &r, end); err != nil {
		return 0, 0, fmt.Errorf("core: decision %d %w", gtxn, err)
	}
	return r.cts, end, nil
}

// AckDecision records that a participant partition durably applied the
// decision for gtxn. When the last participant acks, an 'E' record ends
// the repush obligation and releases the decision's WAL pin. A replica's
// tables change only through the stream: the primary's own 'E' will
// arrive there.
func (e *Engine) AckDecision(gtxn uint64, participant uint32) {
	if e.replica.Load() {
		return
	}
	e.prepMu.Lock()
	d := e.decided[gtxn]
	if d != nil {
		delete(d.participants, participant)
	}
	drained := d != nil && len(d.participants) == 0
	e.prepMu.Unlock()
	if drained {
		r := record{tag: recAckEnd, gtxn: gtxn}
		if _, _, err := e.logInstall(nil, &r, nil); err != nil {
			// Nobody is left to push to, so the obligation ends in memory even
			// if the log would not take the record: a lost 'E' only costs
			// harmless re-pushes after a restart.
			e.fold(&r, 0, nil)
		}
	}
}

// TxnStatus answers an in-doubt participant's (or the local resolver's)
// query for a global transaction's verdict.
func (e *Engine) TxnStatus(gtxn uint64) TxnState {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	if d, ok := e.decided[gtxn]; ok {
		if d.commit {
			return TxnCommitted
		}
		return TxnAborted
	}
	if _, ok := e.prepared[gtxn]; ok {
		return TxnPending
	}
	return TxnUnknown
}

// InDoubt lists the transactions prepared here and still awaiting a
// verdict, for the resolver loop.
func (e *Engine) InDoubt() []PreparedInfo {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	out := make([]PreparedInfo, 0, len(e.prepared))
	for _, p := range e.prepared {
		out = append(out, PreparedInfo{Gtxn: p.gtxn, CoordPart: p.coordPart})
	}
	return out
}

// UnackedDecisions lists committed decisions still owed to participants,
// for the repush loop.
func (e *Engine) UnackedDecisions() []DecidedInfo {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	out := make([]DecidedInfo, 0, len(e.decided))
	for _, d := range e.decided {
		parts := make([]uint32, 0, len(d.participants))
		for id := range d.participants {
			parts = append(parts, id)
		}
		out = append(out, DecidedInfo{Gtxn: d.gtxn, Commit: d.commit, Participants: parts})
	}
	return out
}

// twopcFloor returns the lowest WAL position the 2PC state still needs:
// the 'P' record of any undecided transaction (recovery must re-arm its
// guards) and the 'D' record of any unacked decision (a restarted
// coordinator must keep re-pushing it).
func (e *Engine) twopcFloor() (uint64, bool) {
	e.prepMu.Lock()
	defer e.prepMu.Unlock()
	var floor uint64
	found := false
	consider := func(lsn uint64) {
		if !found || lsn < floor {
			floor, found = lsn, true
		}
	}
	for _, p := range e.prepared {
		consider(p.lsn)
	}
	for _, d := range e.decided {
		consider(d.lsn)
	}
	return floor, found
}
