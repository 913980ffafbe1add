package core

import (
	"errors"
	"fmt"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/trace"
	"neograph/internal/wal"
)

// This file is the redo-apply path shared by crash recovery and
// replication: both replay the primary's WAL commit records into the
// object cache, adjacency, indexes and GC bookkeeping through
// applyCommit. Recovery drives it from ForEach over the local log;
// a replica's applier drives it record-by-record from the network
// stream via ApplyReplicated.

// applyCommit redo-applies one decoded commit record at its original
// commit timestamp and returns the keys it installed. Application is
// idempotent per entity: a chain whose head is already at or past cts
// (installed by an earlier replay, or persisted by a checkpoint) is left
// alone.
func (e *Engine) applyCommit(cts mvcc.TS, muts []mutation) []entKey {
	var keys []entKey
	for _, m := range muts {
		if o := e.getObject(m.key); o != nil {
			if head := o.chain.Head(); head != nil && head.CommitTS >= cts {
				continue // already installed at or past this commit
			}
		}
		e.install(m, cts)
		keys = append(keys, m.key)
	}
	return keys
}

// ApplyReplicated appends one record of the primary's WAL stream to the
// local log and redo-applies its effects. The record must arrive exactly
// at the local log's next position — the replica's WAL is a byte-exact
// prefix of the primary's, which is what lets a restarted replica resume
// the stream from its own recovered log end.
//
// The caller (the replication applier) is the replica's only log writer:
// local write commits are rejected with ErrReadOnlyReplica and replica
// checkpoints skip their marker record. Applies take the commit gate
// shared with the checkpointer so every record below a checkpoint's WAL
// cut is reflected in the dirty set, exactly as primary commits do.
//
// The oracle watermark advances only after the install completes, so a
// snapshot read begun on the replica can never observe half of a
// replicated commit — replica reads are snapshot-isolated at the applied
// position.
func (e *Engine) ApplyReplicated(lsn uint64, payload []byte) error {
	if !e.replica.Load() {
		return errors.New("core: ApplyReplicated on a non-replica engine")
	}
	if e.closed.Load() {
		return ErrClosed
	}
	if e.wal == nil {
		return errors.New("core: replica mode requires a persistent store")
	}
	// Decode before touching the log: a corrupt record must not be
	// appended (the local WAL only ever holds verified prefix bytes).
	var cts mvcc.TS
	var muts []mutation
	var stash trace.Context
	isCommit := false
	// Two-phase-commit records mirror the primary's prepared/decided
	// state onto the replica, so a promoted replica inherits in-doubt
	// transactions and coordinator repush obligations wholesale.
	var prep *struct {
		gtxn      uint64
		coordPart uint32
		validate  []ids.ID
		muts      []mutation
	}
	var decision *struct {
		gtxn   uint64
		commit bool
		cts    mvcc.TS
		parts  []uint32
	}
	var ackEnd *uint64
	if len(payload) == 0 {
		return fmt.Errorf("core: empty replicated record at lsn %d", lsn)
	}
	switch payload[0] {
	case recCheckpoint:
		// The primary's checkpoint markers are no-ops on redo but still
		// occupy log bytes — append them to keep positions aligned.
	case recTrace:
		// Trace-context records likewise install nothing but occupy log
		// bytes; the context they carry spans the NEXT record's apply.
		var err error
		stash, err = decodeTrace(payload)
		if err != nil {
			return err
		}
	case recCommit:
		var err error
		cts, muts, err = decodeCommit(payload, e.tok)
		if err != nil {
			return err
		}
		isCommit = true
	case recPrepare:
		gtxn, coordPart, validate, pmuts, err := decodePrepare(payload, e.tok)
		if err != nil {
			return err
		}
		prep = &struct {
			gtxn      uint64
			coordPart uint32
			validate  []ids.ID
			muts      []mutation
		}{gtxn, coordPart, validate, pmuts}
	case recDecision:
		gtxn, commit, dcts, parts, err := decodeDecision(payload)
		if err != nil {
			return err
		}
		decision = &struct {
			gtxn   uint64
			commit bool
			cts    mvcc.TS
			parts  []uint32
		}{gtxn, commit, dcts, parts}
	case recAckEnd:
		gtxn, err := decodeAckEnd(payload)
		if err != nil {
			return err
		}
		ackEnd = &gtxn
	default:
		return fmt.Errorf("core: unknown WAL record tag %q at lsn %d", payload[0], lsn)
	}

	// The pending trace context belongs to exactly the record that
	// immediately follows its 'T' record: consume it here, replacing it
	// with this record's own stash (empty except for 'T' records), so an
	// orphaned context can never mislabel a later commit.
	e.replTraceMu.Lock()
	pending := e.replTrace
	e.replTrace = stash
	e.replTraceMu.Unlock()
	var asp *trace.Span
	if isCommit && pending.Valid() {
		asp = e.opts.Tracer.StartRemote(pending, "replica.apply")
	}

	e.commitGate.RLock()
	if next := e.wal.NextLSN(); next != lsn {
		e.commitGate.RUnlock()
		return fmt.Errorf("core: replication stream desync: record at %d, local log at %d", lsn, next)
	}
	if _, err := e.wal.Append(payload); err != nil {
		e.commitGate.RUnlock()
		return fmt.Errorf("core: replica wal append: %w", err)
	}
	if isCommit {
		keys := e.applyCommit(cts, muts)
		e.markDirty(keys)
		e.reserveIDs(keys)
	}
	var decidedKeys []entKey
	if decision != nil {
		decidedKeys = e.applyDecision(decision.gtxn, decision.commit, decision.cts, decision.parts, lsn)
		e.markDirty(decidedKeys)
	}
	e.commitGate.RUnlock()
	if isCommit {
		e.oracle.ObserveCommit(cts)
	}
	if decision != nil && decision.commit && len(decidedKeys) > 0 {
		e.oracle.ObserveCommit(decision.cts)
	}
	if prep != nil {
		e.rearmPrepared(prep.gtxn, prep.coordPart, prep.validate, prep.muts, lsn)
	}
	if ackEnd != nil {
		e.prepMu.Lock()
		delete(e.decided, *ackEnd)
		e.prepMu.Unlock()
	}
	asp.Finish()
	return nil
}

// reserveIDs takes the IDs of entities installed from a log — replayed by
// recovery, applied on a replica, parked by a prepare — out of the
// store's allocators. The allocators know only the record files: an ID
// freed there and since re-used by an entity that so far lives in the log
// would otherwise be handed out a second time (on a replica, after its
// promotion).
func (e *Engine) reserveIDs(keys []entKey) {
	if e.store == nil || len(keys) == 0 {
		return
	}
	var nodeBuf, relBuf [8]ids.ID // a replica reserves per applied commit: no garbage for small ones
	nodes, rels := nodeBuf[:0], relBuf[:0]
	for _, k := range keys {
		if k.kind == lock.KindNode {
			nodes = append(nodes, k.id)
		} else {
			rels = append(rels, k.id)
		}
	}
	e.store.ReserveNodeIDs(nodes)
	e.store.ReserveRelIDs(rels)
}

// CommitRecordEnd computes the end position of a WAL record appended at
// lsn with the given payload length (the framing overhead is the wal
// package's).
func CommitRecordEnd(lsn uint64, payloadLen int) uint64 {
	return lsn + wal.FrameOverhead + uint64(payloadLen)
}
