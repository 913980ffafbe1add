package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/trace"
	"neograph/internal/value"
)

// This file is the log's vocabulary: the record tags, their byte layout,
// and the fold that turns a record into engine state. It is the only
// file that switches on a tag (`make lint` keeps it so), so a record
// means the same thing to the transaction that writes it, to recovery
// and to a replica.
//
//	tag  written by                 fold effect                                pins the WAL until
//	'C'  Tx.Commit                  install the mutations at cts               checkpointed
//	'P'  Tx.Prepare                 park: guard the keys, hold the mutations   its 'D' is checkpointed
//	'D'  Engine.DecideTxn           settle: install or discard the parked      every participant acked ('E'),
//	                                mutations, release the guards; a commit    when it names participants
//	                                naming participants owes them the verdict
//	'E'  Engine.AckDecision         end that obligation                        —
//	'K'  the checkpointer           none (a marker below which the store       —
//	                                holds every effect; it carries the last
//	                                timestamp issued, for the oracle to
//	                                resume above)
//	'T'  Tx.Commit, when traced     none (a replica spans its next apply)      —

// Record tags.
const (
	recCommit     = 'C'
	recCheckpoint = 'K'
	recTrace      = 'T' // a sampled commit's tracing context, appended immediately before its 'C'
	recPrepare    = 'P' // prepared cross-partition transaction: gtxn, coordinator partition, guards, mutations
	recDecision   = 'D' // 2PC verdict: gtxn, commit/abort, local cts, participant partitions (coordinator only)
	recAckEnd     = 'E' // all participants acked the decision; the repush obligation ends
)

// record is one decoded WAL record; each tag uses the fields noted.
type record struct {
	tag       byte
	cts       mvcc.TS       // 'C', and 'D' when it commits: the commit timestamp
	muts      []mutation    // 'C', 'P'
	gtxn      uint64        // 'P', 'D', 'E'
	coordPart uint32        // 'P'
	validate  []ids.ID      // 'P': endpoint nodes guarded for an edge another partition stores
	commit    bool          // 'D'
	parts     []uint32      // 'D': partitions owed the verdict (a coordinator's own decision only)
	lastTS    mvcc.TS       // 'K': the last commit timestamp issued before it
	trace     trace.Context // 'T'
}

// tsOffset is where the payload of a record that commits something
// carries its commit timestamp (zero: the record commits nothing). The
// timestamp is assigned only inside walSeqMu, after the record was
// rendered, and patched in there.
func (r *record) tsOffset() int {
	switch {
	case r.tag == recCommit:
		return 1
	case r.tag == recDecision && r.commit:
		return 10
	}
	return 0
}

// appendRecord renders r onto buf.
func appendRecord(buf []byte, r *record) []byte {
	buf = append(buf, r.tag)
	switch r.tag {
	case recCommit:
		buf = binary.LittleEndian.AppendUint64(buf, r.cts)
		buf = appendMutations(buf, r.muts)
	case recCheckpoint:
		buf = binary.LittleEndian.AppendUint64(buf, r.lastTS)
	case recTrace:
		buf = append(buf, byte(len(r.trace.TraceID)))
		buf = append(buf, r.trace.TraceID...)
		buf = append(buf, byte(len(r.trace.SpanID)))
		buf = append(buf, r.trace.SpanID...)
	case recPrepare:
		buf = binary.LittleEndian.AppendUint64(buf, r.gtxn)
		buf = binary.LittleEndian.AppendUint32(buf, r.coordPart)
		buf = binary.AppendUvarint(buf, uint64(len(r.validate)))
		for _, id := range r.validate {
			buf = binary.LittleEndian.AppendUint64(buf, id)
		}
		buf = appendMutations(buf, r.muts)
	case recDecision:
		buf = binary.LittleEndian.AppendUint64(buf, r.gtxn)
		if r.commit {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, r.cts)
		buf = binary.AppendUvarint(buf, uint64(len(r.parts)))
		for _, p := range r.parts {
			buf = binary.LittleEndian.AppendUint32(buf, p)
		}
	case recAckEnd:
		buf = binary.LittleEndian.AppendUint64(buf, r.gtxn)
	}
	return buf
}

// decodeRecord parses one WAL record of any tag. The bytes may come from
// a replication stream: every length is checked against what is left
// before it is used. Label, type and key strings come from tok (nil: each
// is a fresh copy).
func decodeRecord(payload []byte, tok *tokenTable) (record, error) {
	if len(payload) == 0 {
		return record{}, errors.New("core: empty WAL record")
	}
	r := record{tag: payload[0]}
	var err error
	switch r.tag {
	case recCommit:
		r.cts, r.muts, err = decodeCommit(payload, tok)
	case recCheckpoint:
		if len(payload) != 9 {
			return r, errors.New("core: corrupt checkpoint record")
		}
		r.lastTS = binary.LittleEndian.Uint64(payload[1:])
	case recTrace:
		if len(payload) < 3 {
			return r, errors.New("core: corrupt trace record")
		}
		tl := int(payload[1])
		if 2+tl+1 > len(payload) {
			return r, errors.New("core: corrupt trace record (trace id)")
		}
		sl := int(payload[2+tl])
		if 3+tl+sl != len(payload) {
			return r, errors.New("core: corrupt trace record (span id)")
		}
		r.trace = trace.Context{TraceID: string(payload[2 : 2+tl]), SpanID: string(payload[3+tl:])}
	case recPrepare:
		if len(payload) < 13 {
			return r, errors.New("core: corrupt prepare record")
		}
		r.gtxn = binary.LittleEndian.Uint64(payload[1:])
		r.coordPart = binary.LittleEndian.Uint32(payload[9:])
		off := 13
		n, sz := binary.Uvarint(payload[off:])
		off += sz
		if sz <= 0 || n > uint64(len(payload)-off)/8 {
			return r, errors.New("core: corrupt prepare record (validate count)")
		}
		for ; n > 0; n-- {
			r.validate = append(r.validate, binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
		if r.muts, err = decodeMutations(payload, off, tok); err != nil {
			err = fmt.Errorf("core: corrupt prepare record: %w", err)
		}
	case recDecision:
		if len(payload) < 18 {
			return r, errors.New("core: corrupt decision record")
		}
		r.gtxn = binary.LittleEndian.Uint64(payload[1:])
		r.commit = payload[9] == 1
		r.cts = binary.LittleEndian.Uint64(payload[10:])
		off := 18
		n, sz := binary.Uvarint(payload[off:])
		off += sz
		if sz <= 0 || n > uint64(len(payload)-off)/4 {
			return r, errors.New("core: corrupt decision record (participant count)")
		}
		for ; n > 0; n-- {
			r.parts = append(r.parts, binary.LittleEndian.Uint32(payload[off:]))
			off += 4
		}
	case recAckEnd:
		if len(payload) != 9 {
			return r, errors.New("core: corrupt ack-end record")
		}
		r.gtxn = binary.LittleEndian.Uint64(payload[1:])
	default:
		err = fmt.Errorf("core: unknown WAL record tag %q", r.tag)
	}
	if err != nil {
		return r, err
	}
	// A record is accepted only as the very bytes this encoder writes for
	// what was decoded. Whatever else parses — an entity kind or a flag bit
	// this version does not know, bytes after the last mutation, a padded
	// varint — was written by another version or corrupted, and folding the
	// part that parsed would silently drop the rest: a delta applied as a
	// whole state loses every property it does not name.
	buf := commitBufPool.Get().(*commitBuf)
	buf.b = appendRecord(buf.b[:0], &r)
	same := bytes.Equal(buf.b, payload)
	commitBufPool.Put(buf)
	if !same {
		return r, fmt.Errorf("core: %q record is not in canonical form", r.tag)
	}
	return r, nil
}

// fold applies one record, appended at lsn, to engine state and returns
// the keys it installed a version for (already queued for the
// checkpointer). It is the only interpreter of the log: the transaction
// that has just appended the record, recovery replaying it and a replica
// receiving it all change the engine by calling it, the live callers
// inside the same shared commit-gate section as their append — so a
// checkpoint cut never falls between a record and its effect.
//
// live is the prepared transaction a running Prepare or DecideTxn holds:
// that caller has validated under the footprint's latches and long locks
// and still holds them. A redo (live == nil) has no concurrent validator
// to race and takes them itself.
//
// A mutation of an entity that already existed is logged as a delta — the
// change, not the state (commit.go) — and a redo applies it to whatever
// head the entity's chain has. That head is always the version the delta
// was made from, because
//
//   - an entity's records are in the log in the order of their commit
//     timestamps: a timestamp is drawn inside walSeqMu together with the
//     append, and a 'P' record's entity can get no other version between
//     the prepare and its 'D' (the footprint stays locked and guarded);
//   - the store changes on disk by whole flushes only (store/journal.go),
//     so the image a recovery reads is a version the entity really had,
//     and a checkpoint truncates only below a cut whose every effect its
//     flush holds: the first of an entity's records a recovery meets
//     follows either the stored version or one the store is already past;
//   - install skips a record whose entity is at or past its timestamp, so
//     over a store that is ahead of the log's truncation point (a crash
//     between a checkpoint's flush and its truncation) a replay drops the
//     entity's records up to its stored version and resumes with the very
//     next one.
//
// A replica receives the log from its own end on, in order, which is the
// same argument with nothing to skip. TestRedoEquivalenceOfRandomHistories
// holds all three to it.
func (e *Engine) fold(r *record, lsn uint64, live *preparedTxn) []entKey {
	var keys []entKey
	switch r.tag {
	case recCheckpoint, recTrace:
		// Markers: a checkpoint's effects are the store's, a trace context
		// belongs to the replication stream (ApplyReplicated).

	case recCommit:
		keys = e.installAll(r.cts, r.muts)

	case recPrepare: // park
		p := live
		if p == nil {
			p = e.newPrepared(r, e.txnSeq.Add(1))
			var ls latchSet
			e.latch(&ls, nil, p.keys)
			defer e.unlatch(&ls)
			if !e.replaying {
				_ = e.lockKeys(p.lockTxn, p.keys) // a redo is the only writer: nothing to conflict with
			}
			// The allocators know only the record files: an undecided
			// creation's ID must not be handed out again, and an abort returns
			// it. (A live transaction allocated its IDs itself.)
			e.reserveIDs(p.keys)
		}
		p.lsn = lsn
		for _, k := range p.keys {
			s := e.stripeOf(k)
			if s.prep == nil {
				s.prep = make(map[entKey]uint64)
			}
			s.prep[k] = p.gtxn
		}
		e.prepMu.Lock()
		e.prepared[p.gtxn] = p
		e.prepMu.Unlock()

	case recDecision: // settle
		e.prepMu.Lock()
		p := e.prepared[r.gtxn]
		delete(e.prepared, r.gtxn)
		if r.commit && len(r.parts) > 0 {
			// A coordinator's own commit: it owes every participant the
			// verdict until 'E', across restarts.
			d := &decidedTxn{gtxn: r.gtxn, commit: true, lsn: lsn, participants: make(map[uint32]struct{}, len(r.parts))}
			for _, id := range r.parts {
				d.participants[id] = struct{}{}
			}
			e.decided[r.gtxn] = d
		}
		e.prepMu.Unlock()
		if p == nil {
			break // its 'P' was truncated once its effects were checkpointed
		}
		if live == nil {
			var ls latchSet
			e.latch(&ls, nil, p.keys)
			defer e.unlatch(&ls)
		}
		if r.commit {
			keys = e.installAll(r.cts, p.muts)
		} else {
			for _, m := range p.muts {
				if !m.created {
					continue
				}
				// A redo may run over a store that is ahead of the log: an ID
				// this abort freed, a later commit re-used and a checkpoint
				// persisted belongs to that entity now — its 'C' will find the
				// head in place and reserve nothing.
				if o := e.getObject(m.key); live == nil && o != nil && o.chain.Head() != nil {
					continue
				}
				e.releaseID(m.key)
			}
		}
		for _, k := range p.keys {
			delete(e.stripeOf(k).prep, k)
		}
		e.locks.ReleaseAll(p.lockTxn)

	case recAckEnd: // end
		e.prepMu.Lock()
		delete(e.decided, r.gtxn)
		e.prepMu.Unlock()
	}
	e.markDirty(keys)
	return keys
}

// ---- mutation lists (the shared body of 'C' and 'P') ----

// A mutation is its key, a flags byte and a payload:
//
//	kind:u8 (0 node, 1 relationship)  id:u64le  flags:u8
//	node:  [n:uvarint (len:uvarint label)*n]  props       labels unless a delta that keeps them
//	rel:   [len:uvarint type  start:u64le  end:u64le]  props   identity unless a delta
//
// props is value.AppendPacked of the whole property list or, in a delta,
// of the patch (value.Packed.Diff). A delta that deletes has no payload
// at all. Records written before deltas existed have neither of the two
// upper flag bits and decode as what they are, whole states.
const (
	mutCreated = 1 << iota
	mutDeleted
	mutDelta   // the payload is the change from the entity's previous version
	mutRelabel // a node delta whose label set changed: the labels follow
)

// mutationFlags renders m's flags byte; validFlags is its inverse's guard.
func mutationFlags(m *mutation) (flags byte) {
	if m.created {
		flags |= mutCreated
	}
	if m.deleted {
		flags |= mutDeleted
	}
	if m.delta {
		flags |= mutDelta
	}
	if m.relabel {
		flags |= mutRelabel
	}
	return flags
}

// validFlags reports whether a flags byte is one a transaction can log for
// an entity of the given kind: the format's six. (Bits this version does
// not know fail it too, before decodeRecord's re-encoding would.)
func validFlags(kind lock.EntityKind, flags byte) bool {
	switch flags {
	case 0, mutCreated, mutDeleted, mutDelta, mutDelta | mutDeleted:
		return true
	case mutDelta | mutRelabel:
		return kind == lock.KindNode
	}
	return false
}

// appendMutations renders a mutation list: count, then each mutation.
func appendMutations(buf []byte, muts []mutation) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(muts)))
	for i := range muts {
		m := &muts[i]
		var kind byte
		if m.key.kind == lock.KindRel {
			kind = 1
		}
		buf = append(buf, kind)
		buf = binary.LittleEndian.AppendUint64(buf, m.key.id)
		buf = append(buf, mutationFlags(m))
		props := m.patch
		switch {
		case m.delta && m.deleted:
			continue
		case m.delta && m.relabel:
			buf = appendLabels(buf, m.labels)
		case m.delta:
		case m.key.kind == lock.KindNode:
			buf = appendLabels(buf, m.node.Labels)
			props = m.node.Props
		default:
			buf = binary.AppendUvarint(buf, uint64(len(m.rel.Type)))
			buf = append(buf, m.rel.Type...)
			buf = binary.LittleEndian.AppendUint64(buf, m.rel.Start)
			buf = binary.LittleEndian.AppendUint64(buf, m.rel.End)
			props = m.rel.Props
		}
		buf = value.AppendPacked(buf, props)
	}
	return buf
}

func appendLabels(buf []byte, labels []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		buf = append(buf, l...)
	}
	return buf
}

// minMutationBytes is the smallest possible encoded mutation: kind (1) +
// id (8) + flags (1) — a delta that deletes; any payload only adds bytes.
// It caps how many mutations a record of a given size can possibly hold,
// so a corrupt count cannot drive a huge allocation.
const minMutationBytes = 10

// decodeCommit parses the body of a 'C' record: the commit timestamp and
// the mutations.
func decodeCommit(payload []byte, tok *tokenTable) (mvcc.TS, []mutation, error) {
	if len(payload) < 9 || payload[0] != recCommit {
		return 0, nil, fmt.Errorf("core: not a commit record")
	}
	muts, err := decodeMutations(payload, 9, tok)
	if err != nil {
		return 0, nil, err
	}
	return binary.LittleEndian.Uint64(payload[1:]), muts, nil
}

// decodeMutations parses the mutation list that starts at off of payload.
func decodeMutations(payload []byte, off int, tok *tokenTable) ([]mutation, error) {
	n, sz := binary.Uvarint(payload[off:])
	if sz <= 0 {
		return nil, fmt.Errorf("core: corrupt commit record (count)")
	}
	off += sz
	if n > uint64(len(payload)-off)/minMutationBytes {
		return nil, fmt.Errorf("core: corrupt commit record (count %d exceeds %d payload bytes)",
			n, len(payload)-off)
	}
	muts := make([]mutation, 0, n)
	for i := uint64(0); i < n; i++ {
		if off+minMutationBytes > len(payload) {
			return nil, fmt.Errorf("core: corrupt commit record (header)")
		}
		var m mutation
		m.key.kind = lock.KindNode
		if payload[off] == 1 { // any other kind byte does not survive decodeRecord's re-encoding
			m.key.kind = lock.KindRel
		}
		m.key.id = binary.LittleEndian.Uint64(payload[off+1:])
		flags := payload[off+9]
		if !validFlags(m.key.kind, flags) {
			return nil, fmt.Errorf("core: commit record with mutation flags %#x: written by a newer version?", flags)
		}
		m.created = flags&mutCreated != 0
		m.deleted = flags&mutDeleted != 0
		m.delta = flags&mutDelta != 0
		m.relabel = flags&mutRelabel != 0
		off += minMutationBytes
		if m.delta && m.deleted {
			muts = append(muts, m)
			continue
		}

		var labels []string
		if m.key.kind == lock.KindNode && (!m.delta || m.relabel) {
			nl, sz := binary.Uvarint(payload[off:])
			// Each label costs at least one length byte, bounding the count
			// by the bytes remaining.
			if sz <= 0 || nl > uint64(len(payload)-off-sz) {
				return nil, fmt.Errorf("core: corrupt commit record (labels)")
			}
			off += sz
			for j := uint64(0); j < nl; j++ {
				ll, sz := binary.Uvarint(payload[off:])
				if sz <= 0 || ll > uint64(len(payload)-off-sz) {
					return nil, fmt.Errorf("core: corrupt commit record (label)")
				}
				off += sz
				labels = append(labels, tok.name(tokLabel, payload[off:off+int(ll)]))
				off += int(ll)
			}
		}
		var rel *RelState
		if m.key.kind == lock.KindRel && !m.delta {
			tl, sz := binary.Uvarint(payload[off:])
			if sz <= 0 || tl > uint64(len(payload)-off-sz) {
				return nil, fmt.Errorf("core: corrupt commit record (type)")
			}
			off += sz
			rel = &RelState{Type: tok.name(tokRelType, payload[off:off+int(tl)])}
			off += int(tl)
			if off+16 > len(payload) {
				return nil, fmt.Errorf("core: corrupt commit record (endpoints)")
			}
			rel.Start = binary.LittleEndian.Uint64(payload[off:])
			rel.End = binary.LittleEndian.Uint64(payload[off+8:])
			off += 16
		}
		decode := value.DecodePacked
		if m.delta {
			decode = value.DecodePatch
		}
		props, consumed, err := decode(payload[off:])
		if err != nil {
			return nil, fmt.Errorf("core: corrupt commit record: %w", err)
		}
		off += consumed
		switch {
		case m.delta:
			m.labels, m.patch = labels, props
		case rel != nil:
			rel.Props = props
			m.rel = rel
		default:
			m.node = &NodeState{Labels: labels, Props: props}
		}
		muts = append(muts, m)
	}
	return muts, nil
}
