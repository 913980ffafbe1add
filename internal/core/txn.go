package core

import (
	"fmt"
	"sort"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/trace"
	"neograph/internal/value"
)

// TxOptions override engine defaults for one transaction.
type TxOptions struct {
	Isolation IsolationLevel
	// useDefault is set by Begin; BeginWith uses the explicit level.
	explicit bool
}

// writeEntry is one staged (uncommitted, private) entity write. It is
// exactly the paper's "versions of uncommitted data items should be kept
// private and not accessible to other transactions" (§3).
type writeEntry struct {
	key     entKey
	created bool // entity created by this transaction
	deleted bool // entity deleted by this transaction
	node    *NodeState
	rel     *RelState
	// base is the committed version the staged state derives from (nil
	// for created entities). FCW validates against it at commit; index
	// maintenance diffs against it.
	base *mvcc.Version
}

// Tx is a transaction. Tx methods are NOT safe for concurrent use by
// multiple goroutines (as in Neo4j, a transaction is bound to one unit of
// work); different transactions proceed fully concurrently.
type Tx struct {
	e        *Engine
	id       uint64
	startTS  mvcc.TS
	commitTS mvcc.TS // set by a successful Commit
	// commitEnd is the end position of the commit's WAL record — the
	// read-your-writes token a client hands to a replica (wait until the
	// applied position reaches it) or to WaitDurable.
	commitEnd uint64
	iso       IsolationLevel
	writes    map[entKey]*writeEntry
	order     []entKey // staging order, for deterministic install
	done      bool
	// span, when non-nil, is the tracing span Commit hangs its pipeline
	// child spans off (validate-per-stripe, WAL append, group fsync,
	// quorum wait); its context also rides the WAL to replicas as a 'T'
	// record. Nil — the unsampled case — costs a nil check per stage.
	span *trace.Span
	// adjBuf is the reusable candidate buffer for forEachVisibleRel: a
	// traversal expands thousands of frontier nodes on one Tx, and one
	// buffer serves them all. adjBusy guards reentrancy (a callback that
	// reads adjacency mid-iteration just allocates a fresh buffer).
	adjBuf  []ids.ID
	adjBusy bool
}

// Begin starts a transaction at the engine's default isolation level.
func (e *Engine) Begin() *Tx { return e.BeginWith(TxOptions{Isolation: e.opts.DefaultIsolation}) }

// BeginWith starts a transaction with explicit options.
func (e *Engine) BeginWith(opts TxOptions) *Tx {
	tx := &Tx{
		e:      e,
		id:     e.txnSeq.Add(1),
		iso:    opts.Isolation,
		writes: make(map[entKey]*writeEntry),
	}
	e.stats.begun.Add(1)
	if tx.iso == SnapshotIsolation {
		// Register so the GC horizon cannot pass this snapshot (§3) —
		// before reading it, at the watermark so far: a collector that
		// looked in between would take the snapshot for idle and unlink the
		// version it selects. The watermark only rises, so what is read next
		// is never below what was registered.
		e.active.Register(tx.id, e.oracle.Watermark())
		if e.beginGap != nil {
			e.beginGap()
		}
		tx.startTS = e.oracle.StartTS()
	}
	return tx
}

// ID returns the transaction identifier (diagnostics).
func (t *Tx) ID() uint64 { return t.id }

// StartTS returns the snapshot timestamp (0 for read-committed).
func (t *Tx) StartTS() mvcc.TS { return t.startTS }

// CommitTS returns the commit timestamp assigned by a successful Commit,
// or 0 (read-only commits are not assigned a timestamp). The commit
// timestamp is the transaction's position in the serialisation order
// (§3).
func (t *Tx) CommitTS() mvcc.TS { return t.commitTS }

// CommitLSN returns the end position of the transaction's WAL commit
// record (0 for read-only transactions, in-memory engines, or before
// Commit). It is the read-your-writes token: a replica whose applied
// position has reached it serves this transaction's writes; WaitDurable
// at it guarantees the commit survives a crash.
func (t *Tx) CommitLSN() uint64 { return t.commitEnd }

// Isolation returns the transaction's isolation level.
func (t *Tx) Isolation() IsolationLevel { return t.iso }

// SetTraceSpan attaches the tracing span the commit pipeline's child
// spans become children of (the server's per-op span, or any embedded
// caller's). A nil span — the unsampled case — is free.
func (t *Tx) SetTraceSpan(s *trace.Span) { t.span = s }

func (t *Tx) check() error {
	if t.done {
		return ErrTxDone
	}
	return nil
}

// ---- snapshot reads ----

// visibleNode returns the node state visible to this transaction,
// merging the private write set over the committed snapshot
// (read-your-own-writes, §3/§4). ok is false if the node does not exist
// in this transaction's view. The error is non-nil only under read
// committed, whose short read locks can block and deadlock.
func (t *Tx) visibleNode(id ids.ID) (*NodeState, bool, error) {
	k := entKey{lock.KindNode, id}
	if w, ok := t.writes[k]; ok {
		if w.deleted {
			return nil, false, nil
		}
		return w.node, true, nil
	}
	o := t.e.getObject(k)
	if o == nil {
		return nil, false, nil
	}
	v, err := t.readVersion(k, &o.chain)
	if err != nil {
		return nil, false, err
	}
	if v == nil || v.Deleted {
		return nil, false, nil
	}
	return v.Data.(*NodeState), true, nil
}

// visibleRel is visibleNode for relationships.
func (t *Tx) visibleRel(id ids.ID) (*RelState, bool, error) {
	k := entKey{lock.KindRel, id}
	if w, ok := t.writes[k]; ok {
		if w.deleted {
			return nil, false, nil
		}
		return w.rel, true, nil
	}
	o := t.e.getObject(k)
	if o == nil {
		return nil, false, nil
	}
	v, err := t.readVersion(k, &o.chain)
	if err != nil {
		return nil, false, err
	}
	if v == nil || v.Deleted {
		return nil, false, nil
	}
	return v.Data.(*RelState), true, nil
}

// readVersion applies the isolation level's read rule to one chain.
//
// Snapshot isolation reads the version visible at the start timestamp —
// lock-free, which is exactly the short read lock the paper removes (§4).
// Read committed takes that short read lock: acquire shared (blocking
// behind any concurrent writer's long write lock, with deadlock
// detection), read the newest committed version, release at once.
func (t *Tx) readVersion(k entKey, c *mvcc.Chain) (*mvcc.Version, error) {
	if t.iso == ReadCommitted {
		lk := lock.Key{Kind: k.kind, ID: k.id}
		if err := t.e.locks.Acquire(t.id, lk, lock.Shared); err != nil {
			t.e.stats.deadlocks.Add(1)
			return nil, err
		}
		head := c.Head()
		// Short lock: released immediately after the read — which is
		// precisely why a later re-read can observe a different version
		// (the unrepeatable read of §1). A writer's own exclusive lock is
		// not disturbed: Release drops only this transaction's hold, and
		// writers never downgrade (grantLocked keeps the strongest mode),
		// so releasing after a read inside a writing RC transaction is
		// guarded below.
		if !t.e.locks.HoldsExclusive(t.id, lk) {
			t.e.locks.Release(t.id, lk)
		}
		return head, nil
	}
	return c.Visible(t.startTS), nil
}

// ---- write staging ----

// stageNodeWrite acquires the write lock on node id (per the conflict
// policy), validates it against the snapshot, and returns the staged
// entry whose state the caller may mutate.
func (t *Tx) stageNodeWrite(id ids.ID) (*writeEntry, error) {
	k := entKey{lock.KindNode, id}
	if w, ok := t.writes[k]; ok {
		if w.deleted {
			return nil, fmt.Errorf("%w: %s deleted in this transaction", ErrNotFound, fmtKey(k))
		}
		return w, nil
	}
	o := t.e.getObject(k)
	if o == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, fmtKey(k))
	}
	base, err := t.lockAndValidate(k, o)
	if err != nil {
		return nil, err
	}
	old := base.Data.(*NodeState) // the staged version shares Labels and Props until a write replaces them
	w := &writeEntry{key: k, base: base, node: &NodeState{Labels: old.Labels, Props: old.Props}}
	t.writes[k] = w
	t.order = append(t.order, k)
	return w, nil
}

// stageRelWrite is stageNodeWrite for relationships.
func (t *Tx) stageRelWrite(id ids.ID) (*writeEntry, error) {
	k := entKey{lock.KindRel, id}
	if w, ok := t.writes[k]; ok {
		if w.deleted {
			return nil, fmt.Errorf("%w: %s deleted in this transaction", ErrNotFound, fmtKey(k))
		}
		return w, nil
	}
	o := t.e.getObject(k)
	if o == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, fmtKey(k))
	}
	base, err := t.lockAndValidate(k, o)
	if err != nil {
		return nil, err
	}
	old := base.Data.(*RelState) // the staged version shares Props until a write replaces them
	w := &writeEntry{key: k, base: base, rel: &RelState{Type: old.Type, Start: old.Start, End: old.End, Props: old.Props}}
	t.writes[k] = w
	t.order = append(t.order, k)
	return w, nil
}

// lockAndValidate implements the write rule (§3). It returns the base
// version the staged write derives from.
//
//   - FUW (SI): take the long write lock without waiting; a holder means a
//     concurrent updater → ErrWriteConflict now. Then check that no
//     committed version is newer than the snapshot (a concurrent updater
//     that already committed) — also a conflict.
//   - FCW (SI): no lock; remember the visible version, validate at commit.
//   - ReadCommitted: block on the long write lock (deadlock detection may
//     abort); the base is the newest committed version.
func (t *Tx) lockAndValidate(k entKey, o *object) (*mvcc.Version, error) {
	lk := lock.Key{Kind: k.kind, ID: k.id}
	switch {
	case t.iso == ReadCommitted:
		if err := t.e.locks.Acquire(t.id, lk, lock.Exclusive); err != nil {
			t.e.stats.deadlocks.Add(1)
			return nil, err
		}
		head := o.chain.Head()
		if head == nil || head.Deleted {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, fmtKey(k))
		}
		return head, nil

	case t.e.opts.Conflict == FirstUpdaterWins:
		if err := t.e.locks.TryAcquire(t.id, lk, lock.Exclusive); err != nil {
			t.e.stats.conflicts.Add(1)
			return nil, fmt.Errorf("%w: %s held by concurrent updater", ErrWriteConflict, fmtKey(k))
		}
		head := o.chain.Head()
		if head != nil && head.CommitTS > t.startTS {
			// A concurrent transaction updated and already committed.
			t.e.stats.conflicts.Add(1)
			return nil, fmt.Errorf("%w: %s updated at ts %d after snapshot %d",
				ErrWriteConflict, fmtKey(k), head.CommitTS, t.startTS)
		}
		if head == nil || head.Deleted {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, fmtKey(k))
		}
		return head, nil

	default: // FirstCommitterWins
		v := o.chain.Visible(t.startTS)
		if v == nil || v.Deleted {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, fmtKey(k))
		}
		return v, nil
	}
}

// ---- node operations ----

// NodeSnapshot is an immutable view of a node in this transaction's
// snapshot.
type NodeSnapshot struct {
	ID     ids.ID
	Labels []string
	Props  value.Map
}

// RelSnapshot is an immutable view of a relationship.
type RelSnapshot struct {
	ID         ids.ID
	Type       string
	Start, End ids.ID
	Props      value.Map
}

// CreateNode creates a node with the given labels and properties,
// returning its ID. The node is private to the transaction until commit.
func (t *Tx) CreateNode(labels []string, props value.Map) (ids.ID, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	id := t.e.allocNodeID()
	k := entKey{lock.KindNode, id}
	ls := normalizeLabels(labels)
	t.writes[k] = &writeEntry{
		key:     k,
		created: true,
		node:    &NodeState{Labels: ls, Props: value.Pack(props)},
	}
	t.order = append(t.order, k)
	return id, nil
}

// GetNode returns the node visible in this transaction's snapshot.
func (t *Tx) GetNode(id ids.ID) (NodeSnapshot, error) {
	if err := t.check(); err != nil {
		return NodeSnapshot{}, err
	}
	st, ok, err := t.visibleNode(id)
	if err != nil {
		return NodeSnapshot{}, err
	}
	if !ok {
		return NodeSnapshot{}, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	return NodeSnapshot{
		ID:     id,
		Labels: append([]string(nil), st.Labels...),
		Props:  st.Props.ToMap(),
	}, nil
}

// NodeProp returns one property of the node visible in this snapshot,
// read in place: no snapshot and no property map are built.
func (t *Tx) NodeProp(id ids.ID, key string) (value.Value, bool, error) {
	if err := t.check(); err != nil {
		return value.Null, false, err
	}
	st, ok, err := t.visibleNode(id)
	if err != nil {
		return value.Null, false, err
	}
	if !ok {
		return value.Null, false, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	v, has := st.Props.Get(key)
	return v, has, nil
}

// NodeExists reports whether the node is visible in the snapshot.
func (t *Tx) NodeExists(id ids.ID) (bool, error) {
	if err := t.check(); err != nil {
		return false, err
	}
	_, ok, err := t.visibleNode(id)
	return ok, err
}

// SetNodeProp sets one property on a node.
func (t *Tx) SetNodeProp(id ids.ID, key string, v value.Value) error {
	if err := t.check(); err != nil {
		return err
	}
	w, err := t.stageNodeWrite(id)
	if err != nil {
		return err
	}
	w.node.Props = w.node.Props.With(key, v)
	return nil
}

// SetNodeProps replaces several properties at once (removal via Null).
func (t *Tx) SetNodeProps(id ids.ID, props value.Map) error {
	if err := t.check(); err != nil {
		return err
	}
	w, err := t.stageNodeWrite(id)
	if err != nil {
		return err
	}
	for k, v := range props {
		w.node.Props = w.node.Props.With(k, v)
	}
	return nil
}

// RemoveNodeProp removes a property from a node (no-op if absent).
func (t *Tx) RemoveNodeProp(id ids.ID, key string) error {
	if err := t.check(); err != nil {
		return err
	}
	w, err := t.stageNodeWrite(id)
	if err != nil {
		return err
	}
	w.node.Props = w.node.Props.With(key, value.Null)
	return nil
}

// AddLabel adds a label to a node (no-op if present).
func (t *Tx) AddLabel(id ids.ID, label string) error {
	if err := t.check(); err != nil {
		return err
	}
	w, err := t.stageNodeWrite(id)
	if err != nil {
		return err
	}
	w.node.Labels = insertLabel(w.node.Labels, label)
	return nil
}

// RemoveLabel removes a label from a node (no-op if absent).
func (t *Tx) RemoveLabel(id ids.ID, label string) error {
	if err := t.check(); err != nil {
		return err
	}
	w, err := t.stageNodeWrite(id)
	if err != nil {
		return err
	}
	w.node.Labels = deleteLabel(w.node.Labels, label)
	return nil
}

// HasLabel reports whether the node carries the label in this snapshot.
func (t *Tx) HasLabel(id ids.ID, label string) (bool, error) {
	if err := t.check(); err != nil {
		return false, err
	}
	st, ok, err := t.visibleNode(id)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	return hasLabel(st.Labels, label), nil
}

// DeleteNode deletes a node. It fails with ErrHasRels if any relationship
// is visible on the node (use DetachDeleteNode to cascade).
func (t *Tx) DeleteNode(id ids.ID) error {
	if err := t.check(); err != nil {
		return err
	}
	rels, err := t.Relationships(id, Both)
	if err != nil {
		return err
	}
	if len(rels) > 0 {
		return fmt.Errorf("%w: node %d has %d relationships", ErrHasRels, id, len(rels))
	}
	return t.deleteNodeStaged(id)
}

// DetachDeleteNode deletes a node and every relationship visible on it.
func (t *Tx) DetachDeleteNode(id ids.ID) error {
	if err := t.check(); err != nil {
		return err
	}
	rels, err := t.Relationships(id, Both)
	if err != nil {
		return err
	}
	for _, r := range rels {
		if err := t.DeleteRel(r.ID); err != nil {
			return err
		}
	}
	return t.deleteNodeStaged(id)
}

func (t *Tx) deleteNodeStaged(id ids.ID) error {
	k := entKey{lock.KindNode, id}
	if w, ok := t.writes[k]; ok && w.created {
		// Created and deleted in the same transaction: cancel out.
		w.deleted = true
		w.node = nil
		return nil
	}
	w, err := t.stageNodeWrite(id)
	if err != nil {
		return err
	}
	w.deleted = true
	return nil
}

// ---- label helpers ----

// normalizeLabels sorts and dedupes a label list.
func normalizeLabels(labels []string) []string {
	if len(labels) == 0 {
		return nil
	}
	cp := append([]string(nil), labels...)
	sort.Strings(cp)
	out := cp[:0]
	for i, l := range cp {
		if i == 0 || cp[i-1] != l {
			out = append(out, l)
		}
	}
	return out
}

func hasLabel(labels []string, l string) bool {
	i := sort.SearchStrings(labels, l)
	return i < len(labels) && labels[i] == l
}

// insertLabel and deleteLabel return a new slice when they change
// anything: the argument may be a committed version's label set.
func insertLabel(labels []string, l string) []string {
	i := sort.SearchStrings(labels, l)
	if i < len(labels) && labels[i] == l {
		return labels
	}
	out := make([]string, 0, len(labels)+1)
	out = append(out, labels[:i]...)
	out = append(out, l)
	return append(out, labels[i:]...)
}

func deleteLabel(labels []string, l string) []string {
	i := sort.SearchStrings(labels, l)
	if i >= len(labels) || labels[i] != l {
		return labels
	}
	out := make([]string, 0, len(labels)-1)
	out = append(out, labels[:i]...)
	return append(out, labels[i+1:]...)
}
