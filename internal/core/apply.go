package core

import (
	"errors"
	"fmt"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/trace"
	"neograph/internal/wal"
)

// This file is the replica's end of the log: records arrive one by one
// from the network stream and are folded (record.go) exactly as crash
// recovery folds them from the local log.

// ApplyReplicated appends one record of the primary's WAL stream to the
// local log and folds its effects. The record must arrive exactly at the
// local log's next position — the replica's WAL is a byte-exact prefix of
// the primary's, which is what lets a restarted replica resume the stream
// from its own recovered log end.
//
// The caller (the replication applier) is the replica's only log writer:
// local write commits are rejected with ErrReadOnlyReplica and replica
// checkpoints skip their marker record. Applies take the commit gate
// shared with the checkpointer so every record below a checkpoint's WAL
// cut is reflected in the dirty set and the 2PC tables, exactly as on the
// primary.
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
	r, err := decodeRecord(payload, e.tok)
	if err != nil {
		return fmt.Errorf("%w (replicated record at lsn %d)", err, lsn)
	}

	// The pending trace context belongs to exactly the record that
	// immediately follows its 'T' record: consume it here, replacing it
	// with this record's own (empty except on a 'T' record), so an
	// orphaned context can never mislabel a later commit.
	e.replTraceMu.Lock()
	pending := e.replTrace
	e.replTrace = r.trace
	e.replTraceMu.Unlock()
	var asp *trace.Span
	if r.tag == recCommit && pending.Valid() {
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
	e.reserveIDs(e.fold(&r, lsn, nil))
	// Inside the gate: whoever cuts the stream (buildKey) reads the last
	// timestamp folded off the oracle.
	if r.tsOffset() > 0 {
		e.oracle.ObserveCommit(r.cts)
	}
	e.commitGate.RUnlock()
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
