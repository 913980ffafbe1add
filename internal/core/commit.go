package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"neograph/internal/ids"
	"neograph/internal/index"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/trace"
	"neograph/internal/value"
)

// This file is the write side of the engine: the four stages a write goes
// through on its way to becoming a version, and the three entry points
// that compose them.
//
//	latch     the validation latches of the stripes the footprint touches
//	validate  prepared-table check, first-committer-wins head check, endpoint liveness
//	log       timestamp + WAL append (in one order), then fold — install or park —
//	          inside the shared commit gate (logInstall)
//	await     durable → replicated → visible
//
//	Tx.Commit          latch and validate under first-committer-wins only; await all three
//	Tx.Prepare         latch, validate, take the long locks; await durable
//	Engine.DecideTxn   latch the parked footprint (nothing left to validate); await durable, visible

// mutation is the neutral form of one entity change: what a commit
// installs, what the WAL records, and what a redo replays.
type mutation struct {
	key     entKey
	created bool
	deleted bool
	// node / rel is the version the mutation installs — header and whole
	// state in one allocation, linked into the chain as it is, so a mutation
	// is installed once — and for a tombstone the state it deletes. A delta
	// decoded from the log has none until install builds it from the chain's
	// head.
	node *NodeState
	rel  *RelState
	// delta: the entity existed before, so the log carries only what
	// changed — nothing for a delete; for an update the property patch
	// and, if the label set changed (relabel), the new set. Creations —
	// and every record written before deltas existed — log the whole state.
	delta   bool
	relabel bool
	labels  []string
	patch   value.Packed // new.Diff(old)
}

// Commit makes the transaction's writes visible atomically at a fresh
// commit timestamp and durable through the WAL.
//
// The durable commit path is a group-commit pipeline: the redo record is
// appended to the WAL (a buffered write) before installation, but the
// fsync that makes it durable is the WAL's group commit, awaited
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
	e := t.e

	muts := t.mutations()
	if len(muts) == 0 {
		e.stats.committed.Add(1)
		return nil
	}
	if e.replica.Load() {
		// Replicas apply the primary's stream and nothing else; local
		// writes would fork the log. The server layer redirects writers
		// to the primary before they get this far.
		t.abortStaged()
		e.stats.aborted.Add(1)
		return fmt.Errorf("%w: %d staged writes rejected", ErrReadOnlyReplica, len(muts))
	}

	// First-committer-wins takes no locks while the transaction runs, so it
	// validates here, under the latches of the stripes in its footprint
	// only: commits touching disjoint stripes validate and install fully in
	// parallel, and the oracle's watermark protocol keeps readers off any
	// half-installed commit. The latches cover validation through install
	// and are dropped before the durability wait. Lock-based transactions
	// settled their conflicts when they wrote.
	sp := t.span // nil on unsampled commits, making every span call a nil check
	var ls latchSet
	defer e.unlatch(&ls)
	if t.fcw() {
		vsp := sp.Child("commit.validate")
		e.latch(&ls, t.writes, nil)
		var stripes []*trace.Span
		if vsp != nil {
			for _, idx := range ls.idx[:ls.n] {
				ss := vsp.Child("validate.stripe")
				ss.Set("stripe", strconv.Itoa(int(idx)))
				stripes = append(stripes, ss)
			}
		}
		err := t.validate(true, nil)
		for i := len(stripes) - 1; i >= 0; i-- {
			stripes[i].Finish()
		}
		vsp.Finish()
		if err != nil {
			t.abortStaged()
			return err
		}
	}

	r := record{tag: recCommit, muts: muts}
	_, end, err := e.logInstall(sp, &r, nil)
	if err != nil {
		t.abortStaged()
		return fmt.Errorf("core: %w", err)
	}
	e.unlatch(&ls)
	t.commitEnd = end

	// A failed wait cannot roll anything back — the versions are installed.
	if err := e.await(sp, &r, end); err != nil {
		return fmt.Errorf("core: commit %d %w", r.cts, err)
	}
	t.commitTS = r.cts
	e.stats.committed.Add(1)
	return nil
}

// fcw reports whether the transaction resolves write-write conflicts by
// validating at commit rather than by locking as it writes.
func (t *Tx) fcw() bool {
	return t.iso == SnapshotIsolation && t.e.opts.Conflict == FirstCommitterWins
}

// ---- stage 1: latch ----

// latchSet is the set of stripe validation latches one commit, prepare or
// decision holds: stripe indices, sorted and free of duplicates, in a
// fixed array — so latching allocates nothing, and always proceeds in
// ascending stripe order, which is why two overlapping sets cannot
// deadlock.
type latchSet struct {
	n   int
	idx [maxCommitStripes]uint16
}

func (ls *latchSet) add(idx uint64) {
	i := ls.n
	for i > 0 && uint64(ls.idx[i-1]) > idx {
		i--
	}
	if i > 0 && uint64(ls.idx[i-1]) == idx {
		return
	}
	copy(ls.idx[i+1:ls.n+1], ls.idx[i:ls.n])
	ls.idx[i] = uint16(idx)
	ls.n++
}

// latch locks the validation latches of a footprint: the entities of a
// write set — with the endpoint nodes of the relationships it creates,
// whose liveness check must be serialised against a concurrent commit
// deleting them — and of a key list.
func (e *Engine) latch(ls *latchSet, writes map[entKey]*writeEntry, keys []entKey) {
	for k, w := range writes {
		ls.add(e.stripeIndex(k))
		if w.created && w.rel != nil && !w.deleted {
			ls.add(e.stripeIndex(entKey{lock.KindNode, w.rel.Start}))
			ls.add(e.stripeIndex(entKey{lock.KindNode, w.rel.End}))
		}
	}
	for _, k := range keys {
		ls.add(e.stripeIndex(k))
	}
	for _, idx := range ls.idx[:ls.n] {
		e.stripes[idx].valMu.Lock()
	}
}

// unlatch releases the set in reverse order and empties it, so the
// deferred unlatch behind an explicit one does nothing.
func (e *Engine) unlatch(ls *latchSet) {
	for i := ls.n - 1; i >= 0; i-- {
		e.stripes[ls.idx[i]].valMu.Unlock()
	}
	ls.n = 0
}

// ---- stage 2: validate ----

// validate decides, under the footprint's latches, whether the write set
// may still commit:
//
//   - no written key, locally owned endpoint of a created relationship or
//     guarded node belongs to a prepared transaction (lock-based writers
//     never get this far — the prepared transaction holds the long locks —
//     but first-committer-wins takes none);
//   - under first-committer-wins every overwritten version is still its
//     chain's head (a newer one means a concurrent updater won), and the
//     endpoints of created relationships are alive;
//   - every guard node — an endpoint this partition keeps alive for an
//     edge another partition stores — is alive.
func (t *Tx) validate(fcw bool, guard []ids.ID) error {
	e := t.e
	for _, w := range t.writes {
		if err := e.heldByPrepared(w.key); err != nil {
			return err
		}
		switch {
		case !w.created:
			if !fcw {
				continue
			}
			if o := e.getObject(w.key); o == nil || o.chain.Head() != w.base {
				return e.conflict(w.key, fmt.Errorf("%w: %s modified by concurrent transaction (first-committer-wins)",
					ErrWriteConflict, fmtKey(w.key)))
			}
		case w.rel != nil && !w.deleted:
			for _, n := range [2]ids.ID{w.rel.Start, w.rel.End} {
				if !e.OwnsID(n) {
					continue // a remote endpoint is guarded by its own partition
				}
				if err := t.guardNode(n, fcw, ErrWriteConflict); err != nil {
					return err
				}
			}
		}
	}
	for _, n := range guard {
		if err := t.guardNode(n, true, ErrNotFound); err != nil {
			return err
		}
	}
	return nil
}

// guardNode checks one endpoint node: not held by a prepared transaction
// and, if alive is asked for, still live at its chain's head. tombstone
// is the error class for a node some other transaction deleted — a
// conflict for the transaction that read it alive, a plain absence for
// one that only guards it.
func (t *Tx) guardNode(node ids.ID, alive bool, tombstone error) error {
	k := entKey{lock.KindNode, node}
	if err := t.e.heldByPrepared(k); err != nil || !alive {
		return err
	}
	if w, ok := t.writes[k]; ok {
		if w.deleted {
			return t.e.conflict(k, fmt.Errorf("%w: endpoint node %d deleted", ErrNotFound, node))
		}
		return nil
	}
	o := t.e.getObject(k)
	if o == nil {
		return t.e.conflict(k, fmt.Errorf("%w: endpoint node %d", ErrNotFound, node))
	}
	if head := o.chain.Head(); head == nil || head.Deleted {
		return t.e.conflict(k, fmt.Errorf("%w: endpoint node %d deleted by concurrent transaction", tombstone, node))
	}
	return nil
}

// heldByPrepared refuses a key a prepared-but-undecided cross-partition
// transaction guards. The caller holds the key's stripe latch.
func (e *Engine) heldByPrepared(k entKey) error {
	if g, ok := e.stripeOf(k).prep[k]; ok {
		return e.conflict(k, fmt.Errorf("%w: %s held by prepared transaction %d", ErrWriteConflict, fmtKey(k), g))
	}
	return nil
}

// conflict counts a validation failure, attributed to the stripe of the
// key that lost.
func (e *Engine) conflict(k entKey, err error) error {
	e.stats.conflicts.Add(1)
	e.stripeOf(k).conflicts.Add(1)
	return err
}

// ---- stage 3: log and install ----

// commitBuf wraps the pooled record encode buffer (boxed so the pool
// traffics in pointers, not slice headers).
type commitBuf struct{ b []byte }

var commitBufPool = sync.Pool{
	New: func() any { return &commitBuf{b: make([]byte, 0, 1024)} },
}

// logInstall is the write-ahead stage every entry point shares: it logs r
// and folds it into engine state, both inside one shared section of the
// commit gate, so the checkpointer — which takes the gate exclusively to
// cut — sees every record below its cut already reflected in the dirty
// set and the 2PC tables, and a property key's first lookup (buildKey)
// every timestamp handed out so far already installed. It returns the
// record's LSN and end position.
// On an error nothing was folded and the caller still owns its staged
// state.
//
// A record that commits something gets its timestamp *inside* walSeqMu,
// together with the append, so timestamp order and LSN order agree: a
// replica applies the log in LSN order and fast-forwards its watermark to
// each observed timestamp, which is only sound if every lower timestamp's
// record precedes it in the log. The record is rendered with a
// placeholder outside the critical section — into a pooled buffer, since
// WAL.Append writes the bytes through before returning — and patched once
// the timestamp is known.
//
// sp, when the commit is sampled, parents the stage spans; its context
// also rides to replicas in a 'T' record appended (inside walSeqMu, so
// nothing interleaves) immediately before r: the far side of the shipper
// stream stashes it and spans the very next commit's apply.
func (e *Engine) logInstall(sp *trace.Span, r *record, live *preparedTxn) (lsn, end uint64, err error) {
	tsOff := r.tsOffset()
	if e.store == nil {
		// Memory-only engine: no log, no replicas, no checkpointer — the
		// timestamp needs no ordering beyond the oracle's own. The gate is
		// taken for the one thing left that cuts the commit stream in two, a
		// property key's first lookup (buildKey).
		e.commitGate.RLock()
		if tsOff > 0 {
			r.cts = e.oracle.BeginCommit()
		}
		e.fold(r, 0, live)
		e.commitGate.RUnlock()
		if tsOff > 0 {
			e.oracle.FinishCommit(r.cts)
		}
		return 0, 0, nil
	}

	buf := commitBufPool.Get().(*commitBuf)
	buf.b = appendRecord(buf.b[:0], r)
	var traceRec []byte
	if sp != nil {
		traceRec = appendRecord(make([]byte, 0, 64), &record{tag: recTrace, trace: sp.Context()})
	}
	e.commitGate.RLock()
	wsp := sp.Child("wal.append")
	e.walSeqMu.Lock()
	if tsOff > 0 {
		r.cts = e.oracle.BeginCommit()
		binary.LittleEndian.PutUint64(buf.b[tsOff:], r.cts)
	}
	if traceRec != nil {
		_, err = e.wal.Append(traceRec)
	}
	if err == nil {
		lsn, err = e.wal.Append(buf.b)
	}
	e.walSeqMu.Unlock()
	wsp.Finish()
	end = CommitRecordEnd(lsn, len(buf.b))
	e.recordBytes.Observe(float64(len(buf.b)))
	commitBufPool.Put(buf)
	if err != nil {
		e.commitGate.RUnlock()
		if tsOff > 0 {
			e.oracle.AbortCommit(r.cts)
		}
		return 0, 0, fmt.Errorf("wal append: %w", err)
	}

	isp := sp.Child("commit.install")
	e.fold(r, lsn, live)
	e.commitGate.RUnlock()
	isp.Finish()
	if tsOff > 0 {
		e.oracle.FinishCommit(r.cts)
	}
	return lsn, end, nil
}

// ---- stage 4: await ----

// await holds an acknowledgement back until the record ending at end is
// as safe as its kind promises. It runs outside every latch and gate, so
// validation and installs proceed while the disk and the network work.
//
//   - durable: a batched fsync covers the record. A failed fsync poisons
//     the log: every durable write from here on fails loudly.
//   - replicated: the shipper's quorum hook (synchronous replication) has
//     the record's end position, or degraded to async after its timeout.
//     Commit records only — holding 'P' and 'D' to the quorum as well is
//     ROADMAP direction 1(a), and this condition is where it goes.
//   - visible: a record that committed something is acknowledged only
//     once a new snapshot reads it — the watermark stops below cts while
//     a lower timestamp is still installing, and the committer's next
//     Begin must see its own commit. Placed last: the two waits above
//     almost always outlast the straggler's install.
func (e *Engine) await(sp *trace.Span, r *record, end uint64) error {
	if w := e.CommitBatcher(); w != nil {
		fsp := sp.Child("wal.fsync_batch")
		err := w.WaitDurable(end)
		fsp.Finish()
		if err != nil {
			return fmt.Errorf("logged but not durable: %w", err)
		}
	}
	if r.tag == recCommit && end > 0 {
		if fn := e.commitSyncWait(); fn != nil {
			qsp := sp.Child("repl.quorum_wait")
			err := fn(end)
			qsp.Finish()
			if err != nil {
				return fmt.Errorf("durable but not replicated: %w", err)
			}
		}
	}
	if r.tsOffset() > 0 {
		e.oracle.WaitVisible(r.cts)
	}
	return nil
}

// mutations converts the write set to install order, dropping writes that
// cancelled out (created then deleted in the same transaction). A write
// to an entity that already existed becomes a delta against the version
// it was staged from — which is still the chain's head when it installs:
// the write lock, or first-committer-wins validation, saw to that.
func (t *Tx) mutations() []mutation {
	out := make([]mutation, 0, len(t.order))
	for _, k := range t.order {
		w := t.writes[k]
		if w.created && w.deleted {
			continue
		}
		m := mutation{key: w.key, created: w.created, deleted: w.deleted, node: w.node, rel: w.rel}
		if w.base != nil {
			m.delta = true
			oldNode, _ := w.base.Data.(*NodeState)
			oldRel, _ := w.base.Data.(*RelState)
			switch {
			case w.deleted:
				// The tombstone keeps the image it deletes (paper §4: kept until
				// no active transaction can read an older version), whatever
				// the transaction staged before deleting.
				m.node, m.rel = oldNode, oldRel
			case oldNode != nil:
				m.patch = w.node.Props.Diff(oldNode.Props)
				if !slices.Equal(w.node.Labels, oldNode.Labels) {
					m.relabel, m.labels = true, w.node.Labels
				}
			default:
				m.patch = w.rel.Props.Diff(oldRel.Props)
			}
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
		if w.created {
			t.e.releaseID(k)
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

// installAll installs a record's mutations at its commit timestamp and
// returns the keys it installed a version for.
func (e *Engine) installAll(cts mvcc.TS, muts []mutation) []entKey {
	keys := make([]entKey, 0, len(muts))
	for i := range muts {
		if e.install(&muts[i], cts) {
			keys = append(keys, muts[i].key)
		}
	}
	return keys
}

// install applies one mutation to the object cache, adjacency, indexes
// and GC bookkeeping at commit timestamp cts. It is idempotent, which is
// what lets a log be replayed over whatever it already produced: a chain
// whose head is at or past cts — installed by an earlier replay, or
// persisted by a checkpoint — is left alone (false). So is a change to an
// entity that is not there: a checkpoint persisted its tombstone and the
// collector reaped it while something — a prepared transaction in doubt, a
// replica still catching up — kept the log behind them from being
// truncated, and the entity's whole remaining history, up to the delete,
// replays as nothing. (A running transaction staged its change from a
// live version, so it never lands here.)
func (e *Engine) install(m *mutation, cts mvcc.TS) bool {
	var o *object
	if m.created {
		o = e.ensureObject(m.key)
	} else if o = e.getObject(m.key); o == nil {
		return false
	}
	head := o.chain.Head()
	if head == nil && !m.created || head != nil && head.CommitTS >= cts {
		return false
	}

	// The previous head's state, for the index diff — and, for a delta read
	// back from the log (see fold), to build the new state from: the head's,
	// changed as the delta says.
	node, rel := m.node, m.rel
	var oldNode *NodeState
	var oldRel *RelState
	if head != nil {
		oldNode, _ = head.Data.(*NodeState)
		oldRel, _ = head.Data.(*RelState)
	}
	if m.delta && node == nil && rel == nil {
		switch {
		case m.deleted:
			node, rel = oldNode, oldRel
		case oldNode != nil:
			node = &NodeState{Labels: oldNode.Labels, Props: oldNode.Props.Merge(m.patch)}
			if m.relabel {
				node.Labels = m.labels
			}
		case oldRel != nil:
			rel = &RelState{Type: oldRel.Type, Start: oldRel.Start, End: oldRel.End, Props: oldRel.Props.Merge(m.patch)}
		}
	}
	if head != nil && head.Deleted {
		oldNode, oldRel = nil, nil // nothing of a tombstone is indexed
	}

	// A state is allocated with its version header, so installing it is
	// stamping and linking it; a tombstone is a bare header over the state
	// it deletes (paper §4: kept until no active transaction can read an
	// older version).
	var v *mvcc.Version
	switch {
	case m.deleted && m.key.kind == lock.KindNode:
		v = &mvcc.Version{Deleted: true, Data: node}
	case m.deleted:
		v = &mvcc.Version{Deleted: true, Data: rel}
	case m.key.kind == lock.KindNode:
		v, node.ver.Data = &node.ver, node
	default:
		v, rel.ver.Data = &rel.ver, rel
	}
	v.CommitTS = cts
	superseded := o.chain.Install(v)
	if e.opts.GCMode == GCThreaded {
		if superseded != nil {
			e.gcList.Add(&o.chain, o, superseded, v)
		}
		if m.deleted {
			// The tombstone becomes collectable at its own timestamp.
			e.gcList.Add(&o.chain, o, v, nil)
		}
	}

	// Adjacency: a created relationship attaches to both endpoints.
	if m.created && rel != nil {
		if rel.End == rel.Start {
			e.addAdjacency(rel.Start, m.key.id, adjOut|adjIn)
		} else {
			e.addAdjacency(rel.Start, m.key.id, adjOut)
			e.addAdjacency(rel.End, m.key.id, adjIn)
		}
	}

	// Versioned index maintenance (§4): diff old state against new.
	if m.deleted {
		node, rel = nil, nil
	}
	switch m.key.kind {
	case lock.KindNode:
		e.indexNodeDiff(m.key.id, oldNode, node, cts)
	case lock.KindRel:
		e.indexRelDiff(m.key.id, oldRel, rel, cts)
	}
	return true
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
	e.indexLabelDiff(id, oldLabels, newLabels, cts)
	e.indexPropDiff(e.nodeProps.PropertyIndex, id, oldProps, newProps, cts)
}

// indexLabelDiff moves node id's label-index entries from the old label
// set to the new one.
func (e *Engine) indexLabelDiff(id ids.ID, oldLabels, newLabels []string, cts mvcc.TS) {
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
	e.indexPropDiff(e.relProps.PropertyIndex, id, oldProps, newProps, cts)
}

// indexPropDiff tells idx how entity id's properties changed from the old
// list to the new one: a merge walk over the two key-sorted lists that
// touches the index only where a key appeared, vanished or changed value
// — and not at all while nobody has looked anything up in it.
func (e *Engine) indexPropDiff(idx *index.PropertyIndex, id ids.ID, old, new value.Packed, cts mvcc.TS) {
	if !idx.Tracking() {
		return
	}
	oi, ni := old.Iter(), new.Iter()
	hasOld, hasNew := oi.Next(), ni.Next()
	for hasOld || hasNew {
		switch {
		case !hasNew || hasOld && oi.Key() < ni.Key(): // key vanished
			o := oi.Value()
			idx.Update(e.tok.get(tokPropKey, oi.Key()), id, &o, nil, cts)
			hasOld = oi.Next()
		case !hasOld || ni.Key() < oi.Key(): // key appeared
			n := ni.Value()
			idx.Update(e.tok.get(tokPropKey, ni.Key()), id, nil, &n, cts)
			hasNew = ni.Next()
		default:
			if o, n := oi.Value(), ni.Value(); !o.Equal(n) {
				idx.Update(e.tok.get(tokPropKey, oi.Key()), id, &o, &n, cts)
			}
			hasOld, hasNew = oi.Next(), ni.Next()
		}
	}
}
