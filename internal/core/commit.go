package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"neograph/internal/ids"
	"neograph/internal/index"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/trace"
	"neograph/internal/value"
)

// mutation is the neutral form of one entity change: what a commit
// installs, what the WAL records, and what recovery replays.
type mutation struct {
	key     entKey
	created bool
	deleted bool
	node    *NodeState // nodes: state (for tombstones, the last live state)
	rel     *RelState  // relationships: likewise
}

// Commit makes the transaction's writes visible atomically at a fresh
// commit timestamp and durable through the WAL.
//
// The durable commit path is a group-commit pipeline: the redo record is
// appended to the WAL (a buffered write) before installation, but the
// fsync that makes it durable is deferred to the wal.Batcher and awaited
// only after every latch has been released — so N concurrent committers
// share ~1 fsync, and the first-committer-wins latch is held only for
// validation+install, never across disk I/O. A transaction that read
// another's installed-but-not-yet-synced writes necessarily appends a
// later WAL record, so any fsync that covers it covers its dependency.
//
// Early visibility is a deliberate tradeoff (standard for early-lock-
// release group commit): between install and the batched fsync, readers
// can observe a commit that a crash would erase. Dependent *writers* are
// safe by the LSN argument above; a pure reader that must not act on
// unsynced state opts in to read-gating: Engine.WaitDurable at the
// commit's Tx.CommitLSN token blocks until the durability horizon covers
// it.
func (t *Tx) Commit() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	defer t.cleanup()

	muts := t.mutations()
	if len(muts) == 0 {
		t.e.stats.committed.Add(1)
		return nil
	}
	if t.e.replica.Load() {
		// Replicas apply the primary's stream and nothing else; local
		// writes would fork the log. The server layer redirects writers
		// to the primary before they get this far.
		t.abortStaged()
		t.e.stats.aborted.Add(1)
		return fmt.Errorf("%w: %d staged writes rejected", ErrReadOnlyReplica, len(muts))
	}

	// First-committer-wins validation: under the commit latches, every
	// non-created write must still derive from the chain head — any newer
	// committed version means a concurrent updater won. The latches cover
	// validation through install; they are dropped before the durability
	// wait. Only the stripes in the write footprint are latched (acquired
	// in ascending index order, so concurrent commits cannot deadlock):
	// commits touching disjoint stripes validate and install fully in
	// parallel, and the oracle's watermark protocol keeps readers off any
	// half-installed commit.
	var latched []*stripe
	unlatch := func() {
		for i := len(latched) - 1; i >= 0; i-- {
			latched[i].valMu.Unlock()
		}
		latched = nil
	}
	// Tracing: sp is nil on unsampled commits, making every span call a
	// nil check. finishValidate is idempotent (Finish records once), so
	// it both runs deferred for the conflict-return paths and explicitly
	// on the success path for an accurate validation end time.
	sp := t.span
	var vsp *trace.Span
	var stripeSpans []*trace.Span
	finishValidate := func() {
		for i := len(stripeSpans) - 1; i >= 0; i-- {
			stripeSpans[i].Finish()
		}
		vsp.Finish()
	}
	defer finishValidate()
	if t.iso == SnapshotIsolation && t.e.opts.Conflict == FirstCommitterWins {
		vsp = sp.Child("commit.validate")
		latched = t.e.latchFCW(t.writes)
		defer unlatch()
		if vsp != nil {
			for _, st := range latched {
				ss := vsp.Child("validate.stripe")
				ss.Set("stripe", strconv.Itoa(t.e.stripeIndexOf(st)))
				stripeSpans = append(stripeSpans, ss)
			}
		}
		// FCW takes no long locks, so a prepared-but-undecided cross-
		// partition transaction guards its keys through the per-stripe
		// prepared tables instead — checked here under the same latches.
		preparedConflict := func(k entKey) error {
			s := t.e.stripeOf(k)
			if g, ok := s.prep[k]; ok {
				t.e.stats.conflicts.Add(1)
				s.conflicts.Add(1)
				t.abortStaged()
				return fmt.Errorf("%w: %s held by prepared transaction %d", ErrWriteConflict, fmtKey(k), g)
			}
			return nil
		}
		for _, w := range t.writes {
			if w.created {
				// Relationship creations validate endpoint liveness.
				if w.rel != nil && !w.deleted {
					for _, n := range []ids.ID{w.rel.Start, w.rel.End} {
						if !t.e.OwnsID(n) {
							continue // a remote endpoint is guarded by its own partition
						}
						if err := t.validateEndpointAlive(n); err != nil {
							t.e.stats.conflicts.Add(1)
							t.e.stripeOf(entKey{lock.KindNode, n}).conflicts.Add(1)
							t.abortStaged()
							return err
						}
						if err := preparedConflict(entKey{lock.KindNode, n}); err != nil {
							return err
						}
					}
				}
				continue
			}
			if err := preparedConflict(w.key); err != nil {
				return err
			}
			o := t.e.getObject(w.key)
			if o == nil || o.chain.Head() != w.base {
				t.e.stats.conflicts.Add(1)
				t.e.stripeOf(w.key).conflicts.Add(1)
				t.abortStaged()
				return fmt.Errorf("%w: %s modified by concurrent transaction (first-committer-wins)",
					ErrWriteConflict, fmtKey(w.key))
			}
		}
		finishValidate()
	}

	// Durability: the redo record precedes installation (write-ahead).
	// The record is rendered into a pooled buffer: WAL.Append writes the
	// bytes through before returning, so the buffer is recycled
	// immediately — the commit hot path allocates no encode buffer once
	// the pool is warm.
	//
	// The commit timestamp is assigned *inside* walSeqMu together with
	// the append, so timestamp order and LSN order agree: a replica
	// applies the log in LSN order and fast-forwards its watermark to
	// each observed timestamp, which is only sound if every lower
	// timestamp's record precedes it in the log. The record is encoded
	// with a placeholder timestamp outside the critical section and
	// patched once the timestamp is known.
	var cts mvcc.TS
	var commitLSN uint64
	if t.e.store == nil {
		// Memory-only engine: no log, no replicas — the timestamp needs
		// no ordering beyond the oracle's own.
		cts = t.e.oracle.BeginCommit()
	} else {
		t.e.commitGate.RLock()
		buf := commitBufPool.Get().(*commitBuf)
		buf.b = appendCommit(buf.b[:0], 0, muts)
		payloadLen := len(buf.b)
		// A traced commit announces its context to replicas with a 'T'
		// record appended (inside walSeqMu) immediately before its commit
		// record: the far side of the shipper stream stashes it and spans
		// the very next commit's apply. Encoded outside the mutex.
		var traceRec []byte
		if sp != nil {
			traceRec = encodeTrace(sp.Context())
		}
		wsp := sp.Child("wal.append")
		t.e.walSeqMu.Lock()
		cts = t.e.oracle.BeginCommit()
		binary.LittleEndian.PutUint64(buf.b[1:], cts)
		var lsn uint64
		var err error
		if traceRec != nil {
			_, err = t.e.wal.Append(traceRec)
		}
		if err == nil {
			lsn, err = t.e.wal.Append(buf.b)
		}
		t.e.walSeqMu.Unlock()
		wsp.Finish()
		commitBufPool.Put(buf)
		if err != nil {
			t.e.commitGate.RUnlock()
			t.e.oracle.AbortCommit(cts)
			t.abortStaged()
			return fmt.Errorf("core: wal append: %w", err)
		}
		commitLSN = lsn
		t.commitEnd = CommitRecordEnd(lsn, payloadLen)
		if t.e.batcher == nil && !t.e.opts.NoSyncCommits {
			// Per-commit fsync baseline (Options.NoGroupCommit): the record
			// is made durable before install, so a failed sync can still
			// abort the transaction cleanly.
			ssp := sp.Child("wal.sync")
			err := t.e.wal.Sync()
			ssp.Finish()
			if err != nil {
				t.e.commitGate.RUnlock()
				t.e.oracle.AbortCommit(cts)
				t.abortStaged()
				return fmt.Errorf("core: wal sync: %w", err)
			}
		}
	}

	isp := sp.Child("commit.install")
	keys := make([]entKey, 0, len(muts))
	for _, m := range muts {
		t.e.install(m, cts)
		keys = append(keys, m.key)
	}
	t.e.markDirty(keys)
	if t.e.store != nil {
		t.e.commitGate.RUnlock()
	}
	isp.Finish()

	t.e.oracle.FinishCommit(cts)
	unlatch()

	// Group commit: park until a batched fsync covers our record. Runs
	// outside commitMu and commitGate so validation and installs proceed
	// while the disk works. A failed fsync cannot be rolled back — the
	// versions are already installed — so it poisons the batcher and every
	// durable commit from here on fails loudly.
	if t.e.batcher != nil {
		fsp := sp.Child("wal.fsync_batch")
		err := t.e.batcher.WaitDurable(commitLSN)
		fsp.Finish()
		if err != nil {
			return fmt.Errorf("core: commit %d installed but not durable: %w", cts, err)
		}
	}
	// Synchronous replication: when the shipper installed a quorum hook,
	// the acknowledgement additionally waits until enough replicas have
	// acked the record's end position (or the shipper degrades to async
	// after its timeout). Like the durability wait, this runs outside
	// every latch.
	if fn := t.e.commitSyncWait(); fn != nil && t.commitEnd > 0 {
		qsp := sp.Child("repl.quorum_wait")
		err := fn(t.commitEnd)
		qsp.Finish()
		if err != nil {
			return fmt.Errorf("core: commit %d durable but not replicated: %w", cts, err)
		}
	}
	// Acknowledge only once the commit is visible to a new snapshot: the
	// watermark stops below cts while a lower timestamp is still
	// installing, and the committer's next Begin must read its own
	// commit. Placed after the durability and quorum waits, which
	// almost always outlast the straggler's install.
	t.e.oracle.WaitVisible(cts)
	t.commitTS = cts
	t.e.stats.committed.Add(1)
	return nil
}

// latchFCW acquires the first-committer-wins validation latches for the
// stripes in a transaction's write footprint, in ascending stripe order
// so two commits latching overlapping sets cannot deadlock. The footprint
// includes the endpoint nodes of created relationships: their liveness
// check must be serialised against any concurrent commit deleting them.
// The returned stripes are latched and must be released in reverse order.
func (e *Engine) latchFCW(writes map[entKey]*writeEntry) []*stripe {
	// The footprint is an insertion-sorted dedup'd set of stripe indices,
	// kept in a stack array: it is bounded by the stripe count, and small
	// transactions (the hot case) must not allocate here.
	var stack [maxCommitStripes]uint16
	idxs := stack[:0]
	add := func(idx uint64) {
		i := len(idxs)
		for i > 0 && uint64(idxs[i-1]) > idx {
			i--
		}
		if i > 0 && uint64(idxs[i-1]) == idx {
			return
		}
		idxs = append(idxs, 0)
		copy(idxs[i+1:], idxs[i:])
		idxs[i] = uint16(idx)
	}
	for k, w := range writes {
		add(e.stripeIndex(k))
		if w.created && w.rel != nil && !w.deleted {
			add(e.stripeIndex(entKey{lock.KindNode, w.rel.Start}))
			if w.rel.End != w.rel.Start {
				add(e.stripeIndex(entKey{lock.KindNode, w.rel.End}))
			}
		}
	}
	latched := make([]*stripe, 0, len(idxs))
	for _, idx := range idxs {
		s := &e.stripes[idx]
		s.valMu.Lock()
		latched = append(latched, s)
	}
	return latched
}

// validateEndpointAlive checks (under the FCW commit latch) that a
// relationship endpoint is still live at commit time.
func (t *Tx) validateEndpointAlive(node ids.ID) error {
	if w, ok := t.writes[entKey{lock.KindNode, node}]; ok {
		if w.deleted {
			return fmt.Errorf("%w: endpoint node %d deleted", ErrNotFound, node)
		}
		return nil
	}
	o := t.e.getObject(entKey{lock.KindNode, node})
	if o == nil {
		return fmt.Errorf("%w: endpoint node %d", ErrNotFound, node)
	}
	head := o.chain.Head()
	if head == nil || head.Deleted {
		return fmt.Errorf("%w: endpoint node %d deleted by concurrent transaction", ErrWriteConflict, node)
	}
	return nil
}

// mutations converts the write set to install order, dropping writes that
// cancelled out (created then deleted in the same transaction).
func (t *Tx) mutations() []mutation {
	out := make([]mutation, 0, len(t.order))
	for _, k := range t.order {
		w := t.writes[k]
		if w.created && w.deleted {
			continue
		}
		m := mutation{key: w.key, created: w.created, deleted: w.deleted}
		if w.deleted {
			// Tombstones carry the last live state so the checkpointer can
			// persist a complete deleted image (paper §4: tombstones are
			// kept until no active transaction can read an older version).
			switch {
			case w.node != nil:
				m.node = w.node
			case w.rel != nil:
				m.rel = w.rel
			case w.base != nil && k.kind == lock.KindNode:
				m.node = w.base.Data.(*NodeState)
			case w.base != nil:
				m.rel = w.base.Data.(*RelState)
			}
		} else {
			m.node, m.rel = w.node, w.rel
		}
		out = append(out, m)
	}
	return out
}

// Abort discards the transaction's staged writes and releases its locks
// and snapshot registration.
func (t *Tx) Abort() error {
	if err := t.check(); err != nil {
		return err
	}
	t.done = true
	t.abortStaged()
	t.cleanup()
	t.e.stats.aborted.Add(1)
	return nil
}

// abortStaged returns IDs allocated for created-but-never-committed
// entities.
func (t *Tx) abortStaged() {
	for k, w := range t.writes {
		if !w.created {
			continue
		}
		if k.kind == lock.KindNode {
			t.e.releaseNodeID(k.id)
		} else {
			t.e.releaseRelID(k.id)
		}
	}
}

// cleanup releases long locks and the snapshot registration.
func (t *Tx) cleanup() {
	t.e.locks.ReleaseAll(t.id)
	if t.iso == SnapshotIsolation {
		t.e.active.Unregister(t.id)
	}
}

// install applies one mutation to the object cache, adjacency, indexes
// and GC bookkeeping at commit timestamp cts. Also used by recovery.
func (e *Engine) install(m mutation, cts mvcc.TS) {
	o := e.ensureObject(m.key)

	// Snapshot the previous head state for the index diff.
	var oldNode *NodeState
	var oldRel *RelState
	if head := o.chain.Head(); head != nil && !head.Deleted {
		switch m.key.kind {
		case lock.KindNode:
			oldNode = head.Data.(*NodeState)
		case lock.KindRel:
			oldRel = head.Data.(*RelState)
		}
	}

	v := &mvcc.Version{CommitTS: cts, Deleted: m.deleted}
	switch m.key.kind {
	case lock.KindNode:
		v.Data = m.node
	case lock.KindRel:
		v.Data = m.rel
	}
	superseded := o.chain.Install(v)
	if e.opts.GCMode == GCThreaded {
		if superseded != nil {
			e.gcList.Add(superseded)
		}
		if m.deleted {
			// The tombstone becomes collectable at its own timestamp.
			v.SupersededAt = cts
			e.gcList.Add(v)
		}
	}

	// Adjacency: a created relationship attaches to both endpoints.
	if m.key.kind == lock.KindRel && m.created && m.rel != nil {
		o.start, o.end = m.rel.Start, m.rel.End
		if m.rel.End == m.rel.Start {
			e.addAdjacency(m.rel.Start, m.key.id, adjOut|adjIn)
		} else {
			e.addAdjacency(m.rel.Start, m.key.id, adjOut)
			e.addAdjacency(m.rel.End, m.key.id, adjIn)
		}
	}

	// Versioned index maintenance (§4): diff old state against new.
	switch m.key.kind {
	case lock.KindNode:
		e.indexNodeDiff(m.key.id, oldNode, liveNode(m), cts)
	case lock.KindRel:
		e.indexRelDiff(m.key.id, oldRel, liveRel(m), cts)
	}
}

func liveNode(m mutation) *NodeState {
	if m.deleted {
		return nil
	}
	return m.node
}

func liveRel(m mutation) *RelState {
	if m.deleted {
		return nil
	}
	return m.rel
}

// indexNodeDiff updates the label and node-property indexes for a node
// transition old → new at commit timestamp cts (nil means absent/dead).
func (e *Engine) indexNodeDiff(id ids.ID, old, new *NodeState, cts mvcc.TS) {
	var oldLabels, newLabels []string
	var oldProps, newProps value.Packed
	if old != nil {
		oldLabels, oldProps = old.Labels, old.Props
	}
	if new != nil {
		newLabels, newProps = new.Labels, new.Props
	}
	for _, l := range oldLabels {
		if !hasLabel(newLabels, l) {
			e.labelIdx.Remove(e.tok.get(tokLabel, l), id, cts)
		}
	}
	for _, l := range newLabels {
		if !hasLabel(oldLabels, l) {
			e.labelIdx.Add(e.tok.get(tokLabel, l), id, cts)
		}
	}
	e.indexPropDiff(e.nodePropIdx, id, oldProps, newProps, cts)
}

// indexRelDiff updates the relationship property index.
func (e *Engine) indexRelDiff(id ids.ID, old, new *RelState, cts mvcc.TS) {
	var oldProps, newProps value.Packed
	if old != nil {
		oldProps = old.Props
	}
	if new != nil {
		newProps = new.Props
	}
	e.indexPropDiff(e.relPropIdx, id, oldProps, newProps, cts)
}

// indexPropDiff moves entity id's entries in idx from the old property
// list to the new one: a merge walk over the two key-sorted lists that
// touches the index only where a key appeared, vanished or changed value.
func (e *Engine) indexPropDiff(idx *index.PropertyIndex, id ids.ID, old, new value.Packed, cts mvcc.TS) {
	i, j := 0, 0
	for i < old.Len() || j < new.Len() {
		var cmp int
		switch {
		case i == old.Len():
			cmp = 1
		case j == new.Len():
			cmp = -1
		default:
			cmp = strings.Compare(old.At(i).Key, new.At(j).Key)
		}
		switch {
		case cmp < 0: // key vanished
			o := old.At(i)
			idx.Remove(e.tok.get(tokPropKey, o.Key), o.Val, id, cts)
			i++
		case cmp > 0: // key appeared
			n := new.At(j)
			idx.Add(e.tok.get(tokPropKey, n.Key), n.Val, id, cts)
			j++
		default:
			if o, n := old.At(i), new.At(j); !o.Val.Equal(n.Val) {
				tok := e.tok.get(tokPropKey, o.Key)
				idx.Remove(tok, o.Val, id, cts)
				idx.Add(tok, n.Val, id, cts)
			}
			i++
			j++
		}
	}
}

// ---- WAL commit-record codec ----

// Record type tags.
const (
	recCommit     = 'C'
	recCheckpoint = 'K'
	// recTrace carries a sampled commit's tracing context to replicas:
	// it is appended immediately before its commit record (both inside
	// walSeqMu, so nothing interleaves) and installs nothing. Recovery
	// skips it; a replica stashes it and spans the next commit's apply.
	recTrace = 'T'
)

// encodeTrace renders a trace-context record: tag, then the trace ID
// and parent span ID as length-prefixed strings.
func encodeTrace(c trace.Context) []byte {
	buf := make([]byte, 0, 3+len(c.TraceID)+len(c.SpanID))
	buf = append(buf, recTrace)
	buf = append(buf, byte(len(c.TraceID)))
	buf = append(buf, c.TraceID...)
	buf = append(buf, byte(len(c.SpanID)))
	buf = append(buf, c.SpanID...)
	return buf
}

// decodeTrace parses a trace-context record.
func decodeTrace(payload []byte) (trace.Context, error) {
	if len(payload) < 3 || payload[0] != recTrace {
		return trace.Context{}, fmt.Errorf("core: not a trace record")
	}
	off := 1
	tl := int(payload[off])
	off++
	if off+tl+1 > len(payload) {
		return trace.Context{}, fmt.Errorf("core: corrupt trace record (trace id)")
	}
	tid := string(payload[off : off+tl])
	off += tl
	sl := int(payload[off])
	off++
	if off+sl != len(payload) {
		return trace.Context{}, fmt.Errorf("core: corrupt trace record (span id)")
	}
	return trace.Context{TraceID: tid, SpanID: string(payload[off : off+sl])}, nil
}

// stripeIndexOf resolves a latched stripe back to its index (tracing
// attrs only — a linear scan bounded by maxCommitStripes, paid solely
// on sampled commits).
func (e *Engine) stripeIndexOf(st *stripe) int {
	for i := range e.stripes {
		if &e.stripes[i] == st {
			return i
		}
	}
	return -1
}

// commitBuf wraps the pooled commit-record encode buffer (boxed so the
// pool traffics in pointers, not slice headers).
type commitBuf struct{ b []byte }

var commitBufPool = sync.Pool{
	New: func() any { return &commitBuf{b: make([]byte, 0, 1024)} },
}

// encodeCommit renders a commit record: tag, timestamp, mutation list.
func encodeCommit(cts mvcc.TS, muts []mutation) []byte {
	return appendCommit(make([]byte, 0, 64*len(muts)+16), cts, muts)
}

// appendCommit renders a commit record into buf (the hot commit path
// passes a pooled buffer).
func appendCommit(buf []byte, cts mvcc.TS, muts []mutation) []byte {
	buf = append(buf, recCommit)
	buf = binary.LittleEndian.AppendUint64(buf, cts)
	return appendMutations(buf, muts)
}

// appendMutations renders a mutation list (the shared tail of commit and
// prepare records): count, then each mutation's key, flags and payload.
func appendMutations(buf []byte, muts []mutation) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(muts)))
	for _, m := range muts {
		var kind byte
		if m.key.kind == lock.KindRel {
			kind = 1
		}
		buf = append(buf, kind)
		buf = binary.LittleEndian.AppendUint64(buf, m.key.id)
		var flags byte
		if m.created {
			flags |= 1
		}
		if m.deleted {
			flags |= 2
		}
		buf = append(buf, flags)
		switch m.key.kind {
		case lock.KindNode:
			st := m.node
			if st == nil {
				st = &NodeState{}
			}
			buf = binary.AppendUvarint(buf, uint64(len(st.Labels)))
			for _, l := range st.Labels {
				buf = binary.AppendUvarint(buf, uint64(len(l)))
				buf = append(buf, l...)
			}
			buf = value.AppendPacked(buf, st.Props)
		case lock.KindRel:
			st := m.rel
			if st == nil {
				st = &RelState{}
			}
			buf = binary.AppendUvarint(buf, uint64(len(st.Type)))
			buf = append(buf, st.Type...)
			buf = binary.LittleEndian.AppendUint64(buf, st.Start)
			buf = binary.LittleEndian.AppendUint64(buf, st.End)
			buf = value.AppendPacked(buf, st.Props)
		}
	}
	return buf
}

// encodeCheckpoint renders a checkpoint record at watermark w.
func encodeCheckpoint(w mvcc.TS) []byte {
	buf := make([]byte, 0, 9)
	buf = append(buf, recCheckpoint)
	return binary.LittleEndian.AppendUint64(buf, w)
}

// minMutationBytes is the smallest possible encoded mutation: kind (1) +
// id (8) + flags (1); the payload that follows only adds bytes. It caps
// how many mutations a record of a given size can possibly hold, so a
// corrupt count cannot drive a huge allocation.
const minMutationBytes = 10

// decodeCommit parses a commit record. Returns the commit timestamp and
// mutations, whose label, type and key strings come from tok (nil: each
// is a fresh copy).
func decodeCommit(payload []byte, tok *tokenTable) (mvcc.TS, []mutation, error) {
	if len(payload) < 9 || payload[0] != recCommit {
		return 0, nil, fmt.Errorf("core: not a commit record")
	}
	cts := binary.LittleEndian.Uint64(payload[1:])
	muts, _, err := decodeMutations(payload, 9, tok)
	if err != nil {
		return 0, nil, err
	}
	return cts, muts, nil
}

// decodeMutations parses a mutation list starting at off and returns the
// mutations plus the offset just past them.
func decodeMutations(payload []byte, off int, tok *tokenTable) ([]mutation, int, error) {
	propKey := func(b []byte) string { return tok.name(tokPropKey, b) }
	n, sz := binary.Uvarint(payload[off:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("core: corrupt commit record (count)")
	}
	off += sz
	if n > uint64(len(payload)-off)/minMutationBytes {
		return nil, 0, fmt.Errorf("core: corrupt commit record (count %d exceeds %d payload bytes)",
			n, len(payload)-off)
	}
	muts := make([]mutation, 0, n)
	for i := uint64(0); i < n; i++ {
		if off+10 > len(payload) {
			return nil, 0, fmt.Errorf("core: corrupt commit record (header)")
		}
		var m mutation
		if payload[off] == 1 {
			m.key.kind = lock.KindRel
		} else {
			m.key.kind = lock.KindNode
		}
		m.key.id = binary.LittleEndian.Uint64(payload[off+1:])
		flags := payload[off+9]
		m.created = flags&1 != 0
		m.deleted = flags&2 != 0
		off += 10
		switch m.key.kind {
		case lock.KindNode:
			nl, sz := binary.Uvarint(payload[off:])
			// Each label costs at least one length byte, bounding the count
			// by the bytes remaining.
			if sz <= 0 || nl > uint64(len(payload)-off-sz) {
				return nil, 0, fmt.Errorf("core: corrupt commit record (labels)")
			}
			off += sz
			st := &NodeState{}
			for j := uint64(0); j < nl; j++ {
				ll, sz := binary.Uvarint(payload[off:])
				if sz <= 0 || off+sz+int(ll) > len(payload) {
					return nil, 0, fmt.Errorf("core: corrupt commit record (label)")
				}
				off += sz
				st.Labels = append(st.Labels, tok.name(tokLabel, payload[off:off+int(ll)]))
				off += int(ll)
			}
			props, consumed, err := value.DecodePacked(payload[off:], propKey)
			if err != nil {
				return nil, 0, fmt.Errorf("core: corrupt commit record: %w", err)
			}
			off += consumed
			st.Props = props
			m.node = st
		case lock.KindRel:
			tl, sz := binary.Uvarint(payload[off:])
			if sz <= 0 || off+sz+int(tl) > len(payload) {
				return nil, 0, fmt.Errorf("core: corrupt commit record (type)")
			}
			off += sz
			st := &RelState{Type: tok.name(tokRelType, payload[off:off+int(tl)])}
			off += int(tl)
			if off+16 > len(payload) {
				return nil, 0, fmt.Errorf("core: corrupt commit record (endpoints)")
			}
			st.Start = binary.LittleEndian.Uint64(payload[off:])
			st.End = binary.LittleEndian.Uint64(payload[off+8:])
			off += 16
			props, consumed, err := value.DecodePacked(payload[off:], propKey)
			if err != nil {
				return nil, 0, fmt.Errorf("core: corrupt commit record: %w", err)
			}
			off += consumed
			st.Props = props
			m.rel = st
		}
		muts = append(muts, m)
	}
	return muts, off, nil
}
