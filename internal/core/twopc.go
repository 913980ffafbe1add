package core

import (
	"encoding/binary"
	"fmt"
	"sort"

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

// Additional WAL record tags (recCommit/recCheckpoint/recTrace live in
// commit.go).
const (
	recPrepare  = 'P' // prepared cross-partition transaction: gtxn, coordinator partition, guards, mutations
	recDecision = 'D' // 2PC verdict: gtxn, commit/abort, local cts, participant partitions (coordinator only)
	recAckEnd   = 'E' // all participants acked the decision; the repush obligation ends
)

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
	validate  []ids.ID // endpoint nodes guarded (but not written) for a remote partition's edge
	keys      []entKey // write keys + validate keys, the prepared-table footprint
	lockTxn   uint64   // lock.Manager owner holding the long locks until decide
	lsn       uint64   // LSN of the 'P' record (WAL truncation floor)
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

// latchKeys acquires the per-stripe validation latches covering a key
// set, in ascending stripe order (same discipline as latchFCW). The
// caller must release in reverse order.
func (e *Engine) latchKeys(keys []entKey) []*stripe {
	idxs := make([]int, 0, len(keys))
	for _, k := range keys {
		idxs = append(idxs, int(e.stripeIndex(k)))
	}
	sort.Ints(idxs)
	latched := make([]*stripe, 0, len(idxs))
	prev := -1
	for _, idx := range idxs {
		if idx == prev {
			continue
		}
		prev = idx
		s := &e.stripes[idx]
		s.valMu.Lock()
		latched = append(latched, s)
	}
	return latched
}

func unlatchAll(latched []*stripe) {
	for i := len(latched) - 1; i >= 0; i-- {
		latched[i].valMu.Unlock()
	}
}

// prepFootprint computes the prepared-table footprint of a write set:
// every write key, plus the locally-owned endpoint nodes of created
// relationships, plus the validate set.
func (t *Tx) prepFootprint(muts []mutation, validate []ids.ID) []entKey {
	seen := make(map[entKey]struct{}, len(muts)+len(validate))
	keys := make([]entKey, 0, len(muts)+len(validate))
	add := func(k entKey) {
		if _, ok := seen[k]; ok {
			return
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	for _, m := range muts {
		add(m.key)
		if m.created && m.rel != nil && !m.deleted {
			for _, n := range []ids.ID{m.rel.Start, m.rel.End} {
				if t.e.OwnsID(n) {
					add(entKey{lock.KindNode, n})
				}
			}
		}
	}
	for _, n := range validate {
		add(entKey{lock.KindNode, n})
	}
	return keys
}

// Prepare runs phase one of two-phase commit for this transaction: it
// validates the write set exactly as Commit would, takes (or keeps) the
// write locks, registers every touched key in the prepared tables,
// logs a durable 'P' record, and parks the transaction until DecideTxn.
// validate lists endpoint nodes this partition must guard alive for a
// relationship stored on another partition.
//
// On success the transaction is consumed (Commit/Abort return ErrTxDone)
// and its guards persist until the decision; on failure everything is
// released and the transaction is aborted, exactly as a failed Commit.
func (t *Tx) Prepare(gtxn uint64, coordPart uint32, validate []ids.ID) (uint64, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	t.done = true

	muts := t.mutations()
	if t.e.replica.Load() {
		t.abortStaged()
		t.cleanup()
		t.e.stats.aborted.Add(1)
		return 0, fmt.Errorf("%w: prepare rejected", ErrReadOnlyReplica)
	}

	e := t.e
	keys := t.prepFootprint(muts, validate)
	fcw := t.iso == SnapshotIsolation && e.opts.Conflict == FirstCommitterWins

	latched := e.latchKeys(keys)
	fail := func(err error) (uint64, error) {
		unlatchAll(latched)
		e.stats.conflicts.Add(1)
		t.abortStaged()
		t.cleanup()
		e.stats.aborted.Add(1)
		return 0, err
	}
	// No key may already belong to another prepared transaction.
	for _, k := range keys {
		s := e.stripeOf(k)
		if g, ok := s.prep[k]; ok {
			return fail(fmt.Errorf("%w: %s held by prepared transaction %d", ErrWriteConflict, fmtKey(k), g))
		}
	}
	if fcw {
		// First-committer-wins validation, identical to Commit's: every
		// non-created write must still derive from the chain head, and
		// created relationships' (local) endpoints must be alive.
		for _, w := range t.writes {
			if w.created {
				if w.rel != nil && !w.deleted {
					for _, n := range []ids.ID{w.rel.Start, w.rel.End} {
						if !e.OwnsID(n) {
							continue
						}
						if err := t.validateEndpointAlive(n); err != nil {
							return fail(err)
						}
					}
				}
				continue
			}
			o := e.getObject(w.key)
			if o == nil || o.chain.Head() != w.base {
				return fail(fmt.Errorf("%w: %s modified by concurrent transaction (first-committer-wins)",
					ErrWriteConflict, fmtKey(w.key)))
			}
		}
	}
	// Guarded endpoints for a remote partition's edge must be alive here.
	for _, n := range validate {
		o := e.getObject(entKey{lock.KindNode, n})
		if o == nil {
			return fail(fmt.Errorf("%w: endpoint node %d", ErrNotFound, n))
		}
		if head := o.chain.Head(); head == nil || head.Deleted {
			return fail(fmt.Errorf("%w: endpoint node %d deleted", ErrNotFound, n))
		}
	}
	// Take (or re-enter) the long write locks so lock-based transactions
	// (FUW staging, read-committed) block on prepared keys too. Under FUW
	// the write keys are already held by this transaction; TryAcquire is
	// re-entrant.
	for _, k := range keys {
		if err := e.locks.TryAcquire(t.id, lock.Key{Kind: k.kind, ID: k.id}, lock.Exclusive); err != nil {
			return fail(fmt.Errorf("%w: %s locked by concurrent transaction", ErrWriteConflict, fmtKey(k)))
		}
	}
	// Point of no return for validation: register the prepared guards.
	for _, k := range keys {
		s := e.stripeOf(k)
		if s.prep == nil {
			s.prep = make(map[entKey]uint64)
		}
		s.prep[k] = gtxn
	}
	unlatchAll(latched)

	// Durability: the 'P' record carries everything recovery needs to
	// re-arm the guards and later install the decision.
	var lsn uint64
	if e.store != nil {
		rec := encodePrepare(gtxn, coordPart, validate, muts)
		e.commitGate.RLock()
		e.walSeqMu.Lock()
		var err error
		lsn, err = e.wal.Append(rec)
		e.walSeqMu.Unlock()
		e.commitGate.RUnlock()
		if err == nil {
			err = e.syncRecord(lsn)
		}
		if err != nil {
			e.clearPrepared(&preparedTxn{keys: keys, lockTxn: t.id})
			t.abortStaged()
			if t.iso == SnapshotIsolation {
				e.active.Unregister(t.id)
			}
			e.stats.aborted.Add(1)
			return 0, fmt.Errorf("core: prepare wal: %w", err)
		}
	}

	e.prepMu.Lock()
	e.prepared[gtxn] = &preparedTxn{
		gtxn: gtxn, coordPart: coordPart, muts: muts,
		validate: validate, keys: keys, lockTxn: t.id, lsn: lsn,
	}
	e.prepMu.Unlock()
	// The snapshot registration is released (the prepared state no longer
	// reads), but the locks stay held under t.id until the decision.
	if t.iso == SnapshotIsolation {
		e.active.Unregister(t.id)
	}
	return lsn, nil
}

// syncRecord makes an appended record durable: through the group-commit
// batcher when one runs, else a direct sync (mirroring Commit).
func (e *Engine) syncRecord(lsn uint64) error {
	if e.batcher != nil {
		return e.batcher.WaitDurable(lsn)
	}
	if !e.opts.NoSyncCommits {
		return e.wal.Sync()
	}
	return nil
}

// clearPrepared removes a prepared transaction's guards: prepared-table
// entries (under the stripe latches) and long locks.
func (e *Engine) clearPrepared(p *preparedTxn) {
	latched := e.latchKeys(p.keys)
	for _, k := range p.keys {
		delete(e.stripeOf(k).prep, k)
	}
	unlatchAll(latched)
	e.locks.ReleaseAll(p.lockTxn)
}

// DecideTxn delivers the verdict for a transaction prepared on this
// engine: commit installs the prepared mutations at a fresh local commit
// timestamp, abort discards them; either way a durable 'D' record is
// logged first and every guard is released after. participants is
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
	e.prepMu.Lock()
	p, ok := e.prepared[gtxn]
	if !ok {
		e.prepMu.Unlock()
		return 0, 0, fmt.Errorf("%w: gtxn %d", ErrNotPrepared, gtxn)
	}
	delete(e.prepared, gtxn)
	e.prepMu.Unlock()

	var lsn uint64
	if e.store != nil {
		e.commitGate.RLock()
		e.walSeqMu.Lock()
		if commit {
			cts = e.oracle.BeginCommit()
		}
		rec := encodeDecision(gtxn, commit, cts, participants)
		lsn, err = e.wal.Append(rec)
		e.walSeqMu.Unlock()
		end = CommitRecordEnd(lsn, len(rec))
		if err != nil {
			e.commitGate.RUnlock()
			if commit {
				e.oracle.AbortCommit(cts)
			}
			// The decision is not durable; re-park the prepared state so a
			// retry (or recovery) can decide again.
			e.prepMu.Lock()
			e.prepared[gtxn] = p
			e.prepMu.Unlock()
			return 0, 0, fmt.Errorf("core: decision wal append: %w", err)
		}
		if commit {
			keys := make([]entKey, 0, len(p.muts))
			for _, m := range p.muts {
				e.install(m, cts)
				keys = append(keys, m.key)
			}
			e.markDirty(keys)
		}
		e.commitGate.RUnlock()
		if commit {
			e.oracle.FinishCommit(cts)
		}
	} else if commit {
		cts = e.oracle.BeginCommit()
		for _, m := range p.muts {
			e.install(m, cts)
		}
		e.oracle.FinishCommit(cts)
	}
	if !commit {
		for _, m := range p.muts {
			if !m.created {
				continue
			}
			if m.key.kind == lock.KindNode {
				e.releaseNodeID(m.key.id)
			} else {
				e.releaseRelID(m.key.id)
			}
		}
		e.stats.aborted.Add(1)
	} else {
		e.stats.committed.Add(1)
	}
	e.clearPrepared(p)

	if commit && len(participants) > 0 {
		parts := make(map[uint32]struct{}, len(participants))
		for _, id := range participants {
			parts[id] = struct{}{}
		}
		e.prepMu.Lock()
		e.decided[gtxn] = &decidedTxn{gtxn: gtxn, commit: commit, lsn: lsn, participants: parts}
		e.prepMu.Unlock()
	}
	if e.store != nil {
		if err := e.syncRecord(lsn); err != nil {
			return 0, 0, fmt.Errorf("core: decision %d installed but not durable: %w", gtxn, err)
		}
	}
	if commit {
		e.oracle.WaitVisible(cts) // as in Tx.Commit: ack only what a new snapshot reads
	}
	return cts, end, nil
}

// AckDecision records that a participant partition durably applied the
// decision for gtxn. When the last participant acks, an 'E' record ends
// the repush obligation and releases the decision's WAL pin.
func (e *Engine) AckDecision(gtxn uint64, participant uint32) {
	e.prepMu.Lock()
	d, ok := e.decided[gtxn]
	if ok {
		delete(d.participants, participant)
		if len(d.participants) == 0 {
			delete(e.decided, gtxn)
		}
	}
	e.prepMu.Unlock()
	if ok && len(d.participants) == 0 && e.store != nil && !e.replica.Load() {
		rec := make([]byte, 0, 9)
		rec = append(rec, recAckEnd)
		rec = binary.LittleEndian.AppendUint64(rec, gtxn)
		e.walSeqMu.Lock()
		_, _ = e.wal.Append(rec) // lost 'E' records only cost harmless re-pushes
		e.walSeqMu.Unlock()
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

// rearmPrepared re-registers a prepared transaction's guards after
// recovery or replica apply: prepared-table entries, long locks under a
// fresh lock owner, and its IDs reserved out of the allocators.
func (e *Engine) rearmPrepared(gtxn uint64, coordPart uint32, validate []ids.ID, muts []mutation, lsn uint64) {
	t := &Tx{e: e, id: e.txnSeq.Add(1)}
	keys := t.prepFootprint(muts, validate)
	latched := e.latchKeys(keys)
	for _, k := range keys {
		s := e.stripeOf(k)
		if s.prep == nil {
			s.prep = make(map[entKey]uint64)
		}
		s.prep[k] = gtxn
		// Recovery and the replica applier run single-writer; the locks
		// cannot conflict.
		_ = e.locks.TryAcquire(t.id, lock.Key{Kind: k.kind, ID: k.id}, lock.Exclusive)
	}
	unlatchAll(latched)
	e.reserveIDs(keys)
	e.prepMu.Lock()
	e.prepared[gtxn] = &preparedTxn{
		gtxn: gtxn, coordPart: coordPart, muts: muts,
		validate: validate, keys: keys, lockTxn: t.id, lsn: lsn,
	}
	e.prepMu.Unlock()
}

// applyDecision installs (or discards) a prepared transaction's effects
// when its verdict arrives through recovery or the replica stream.
// Missing prepared state is not an error: the 'P' record may have been
// truncated once its effects were checkpointed.
func (e *Engine) applyDecision(gtxn uint64, commit bool, cts mvcc.TS, participants []uint32, lsn uint64) []entKey {
	e.prepMu.Lock()
	p, ok := e.prepared[gtxn]
	if ok {
		delete(e.prepared, gtxn)
	}
	if commit && len(participants) > 0 {
		parts := make(map[uint32]struct{}, len(participants))
		for _, id := range participants {
			parts[id] = struct{}{}
		}
		e.decided[gtxn] = &decidedTxn{gtxn: gtxn, commit: commit, lsn: lsn, participants: parts}
	}
	e.prepMu.Unlock()
	if !ok {
		return nil
	}
	var keys []entKey
	if commit {
		keys = e.applyCommit(cts, p.muts)
	}
	e.clearPrepared(p)
	return keys
}

// ---- 2PC record codecs ----

// encodePrepare renders a 'P' record: gtxn, coordinator partition, the
// guarded-endpoint list, then the mutation list (commit-record codec).
func encodePrepare(gtxn uint64, coordPart uint32, validate []ids.ID, muts []mutation) []byte {
	buf := make([]byte, 0, 32+8*len(validate)+64*len(muts))
	buf = append(buf, recPrepare)
	buf = binary.LittleEndian.AppendUint64(buf, gtxn)
	buf = binary.LittleEndian.AppendUint32(buf, coordPart)
	buf = binary.AppendUvarint(buf, uint64(len(validate)))
	for _, id := range validate {
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	return appendMutations(buf, muts)
}

// decodePrepare parses a 'P' record.
func decodePrepare(payload []byte, tok *tokenTable) (gtxn uint64, coordPart uint32, validate []ids.ID, muts []mutation, err error) {
	if len(payload) < 13 || payload[0] != recPrepare {
		return 0, 0, nil, nil, fmt.Errorf("core: not a prepare record")
	}
	gtxn = binary.LittleEndian.Uint64(payload[1:])
	coordPart = binary.LittleEndian.Uint32(payload[9:])
	off := 13
	n, sz := binary.Uvarint(payload[off:])
	if sz <= 0 || n > uint64(len(payload)-off)/8 {
		return 0, 0, nil, nil, fmt.Errorf("core: corrupt prepare record (validate count)")
	}
	off += sz
	for i := uint64(0); i < n; i++ {
		validate = append(validate, binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	muts, _, err = decodeMutations(payload, off, tok)
	if err != nil {
		return 0, 0, nil, nil, fmt.Errorf("core: corrupt prepare record: %w", err)
	}
	return gtxn, coordPart, validate, muts, nil
}

// encodeDecision renders a 'D' record: gtxn, verdict, local commit
// timestamp (commit only), participant partitions (coordinator only).
func encodeDecision(gtxn uint64, commit bool, cts mvcc.TS, participants []uint32) []byte {
	buf := make([]byte, 0, 24+4*len(participants))
	buf = append(buf, recDecision)
	buf = binary.LittleEndian.AppendUint64(buf, gtxn)
	if commit {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, cts)
	buf = binary.AppendUvarint(buf, uint64(len(participants)))
	for _, p := range participants {
		buf = binary.LittleEndian.AppendUint32(buf, p)
	}
	return buf
}

// decodeDecision parses a 'D' record.
func decodeDecision(payload []byte) (gtxn uint64, commit bool, cts mvcc.TS, participants []uint32, err error) {
	if len(payload) < 18 || payload[0] != recDecision {
		return 0, false, 0, nil, fmt.Errorf("core: not a decision record")
	}
	gtxn = binary.LittleEndian.Uint64(payload[1:])
	commit = payload[9] == 1
	cts = binary.LittleEndian.Uint64(payload[10:])
	off := 18
	n, sz := binary.Uvarint(payload[off:])
	if sz <= 0 || n > uint64(len(payload)-off)/4 {
		return 0, false, 0, nil, fmt.Errorf("core: corrupt decision record")
	}
	off += sz
	for i := uint64(0); i < n; i++ {
		participants = append(participants, binary.LittleEndian.Uint32(payload[off:]))
		off += 4
	}
	return gtxn, commit, cts, participants, nil
}

// decodeAckEnd parses an 'E' record.
func decodeAckEnd(payload []byte) (uint64, error) {
	if len(payload) != 9 || payload[0] != recAckEnd {
		return 0, fmt.Errorf("core: not an ack-end record")
	}
	return binary.LittleEndian.Uint64(payload[1:]), nil
}
