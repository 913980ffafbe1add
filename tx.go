package neograph

import (
	"neograph/internal/core"
	"neograph/internal/trace"
	"neograph/internal/value"
)

// Direction selects relationship orientation relative to a node.
type Direction = core.Direction

// Directions.
const (
	Outgoing = core.Outgoing
	Incoming = core.Incoming
	Both     = core.Both
)

// Node is an immutable snapshot of a node as seen by one transaction.
type Node = core.NodeSnapshot

// Relationship is an immutable snapshot of a relationship.
type Relationship = core.RelSnapshot

// Tx is a transaction handle. A Tx must be used by a single goroutine;
// different transactions run fully concurrently. Every Tx must end in
// exactly one Commit or Abort.
type Tx struct {
	t *core.Tx
}

// Core exposes the underlying engine transaction to in-module callers,
// as DB.Engine does for the engine (the server's two-phase-commit
// prepare path runs on it).
func (tx *Tx) Core() *core.Tx { return tx.t }

// Commit publishes the transaction's writes atomically. Under snapshot
// isolation it can fail with ErrWriteConflict (first-committer-wins) —
// the transaction is then already aborted and should be retried.
func (tx *Tx) Commit() error { return tx.t.Commit() }

// Abort discards the transaction's writes. Abort after Commit (e.g. in a
// defer) is a harmless ErrTxDone.
func (tx *Tx) Abort() error { return tx.t.Abort() }

// StartTS exposes the snapshot timestamp (0 under read committed).
func (tx *Tx) StartTS() uint64 { return tx.t.StartTS() }

// CommitLSN returns the end position of the commit's WAL record after a
// successful Commit (0 for read-only transactions or in-memory
// databases). It is the read-your-writes token: hand it to a replica's
// WaitApplied — or to WaitDurable — before reading.
func (tx *Tx) CommitLSN() uint64 { return tx.t.CommitLSN() }

// SetTraceSpan attaches a tracing span to the transaction: Commit's
// pipeline stages (per-stripe validation, WAL append, group fsync,
// quorum wait) record child spans under it, and the trace context rides
// the WAL to replicas. A nil span (the unsampled case) is free.
func (tx *Tx) SetTraceSpan(s *trace.Span) { tx.t.SetTraceSpan(s) }

// CreateNode creates a node with labels and properties, private to this
// transaction until commit.
func (tx *Tx) CreateNode(labels []string, props Props) (NodeID, error) {
	return tx.t.CreateNode(labels, value.Map(props))
}

// GetNode returns the node visible in this transaction's snapshot.
func (tx *Tx) GetNode(id NodeID) (Node, error) { return tx.t.GetNode(id) }

// NodeProp returns one property of the node visible in this snapshot
// without building the node's property map — the cheap way to test or
// read a single key (ok is false when the node lacks it).
func (tx *Tx) NodeProp(id NodeID, key string) (v Value, ok bool, err error) {
	return tx.t.NodeProp(id, key)
}

// NodeExists reports whether the node is visible.
func (tx *Tx) NodeExists(id NodeID) (bool, error) { return tx.t.NodeExists(id) }

// SetNodeProp sets one node property.
func (tx *Tx) SetNodeProp(id NodeID, key string, v Value) error {
	return tx.t.SetNodeProp(id, key, v)
}

// SetNodeProps applies several property changes; Null values remove keys.
func (tx *Tx) SetNodeProps(id NodeID, props Props) error {
	return tx.t.SetNodeProps(id, value.Map(props))
}

// RemoveNodeProp removes one node property.
func (tx *Tx) RemoveNodeProp(id NodeID, key string) error {
	return tx.t.RemoveNodeProp(id, key)
}

// AddLabel adds a label to a node.
func (tx *Tx) AddLabel(id NodeID, label string) error { return tx.t.AddLabel(id, label) }

// RemoveLabel removes a label from a node.
func (tx *Tx) RemoveLabel(id NodeID, label string) error { return tx.t.RemoveLabel(id, label) }

// HasLabel reports whether the node carries the label.
func (tx *Tx) HasLabel(id NodeID, label string) (bool, error) { return tx.t.HasLabel(id, label) }

// DeleteNode deletes a relationship-free node (ErrHasRels otherwise).
func (tx *Tx) DeleteNode(id NodeID) error { return tx.t.DeleteNode(id) }

// DetachDeleteNode deletes a node and all its visible relationships.
func (tx *Tx) DetachDeleteNode(id NodeID) error { return tx.t.DetachDeleteNode(id) }

// CreateRel creates a relationship of relType from start to end.
func (tx *Tx) CreateRel(relType string, start, end NodeID, props Props) (RelID, error) {
	return tx.t.CreateRel(relType, start, end, value.Map(props))
}

// GetRel returns the relationship visible in this snapshot.
func (tx *Tx) GetRel(id RelID) (Relationship, error) { return tx.t.GetRel(id) }

// SetRelProp sets one relationship property.
func (tx *Tx) SetRelProp(id RelID, key string, v Value) error {
	return tx.t.SetRelProp(id, key, v)
}

// RemoveRelProp removes one relationship property.
func (tx *Tx) RemoveRelProp(id RelID, key string) error { return tx.t.RemoveRelProp(id, key) }

// DeleteRel deletes a relationship.
func (tx *Tx) DeleteRel(id RelID) error { return tx.t.DeleteRel(id) }

// Relationships returns the node's visible relationships filtered by
// direction and optional types, sorted by ID.
func (tx *Tx) Relationships(node NodeID, dir Direction, relTypes ...string) ([]Relationship, error) {
	return tx.t.Relationships(node, dir, relTypes...)
}

// Degree counts the node's visible relationships.
func (tx *Tx) Degree(node NodeID, dir Direction, relTypes ...string) (int, error) {
	return tx.t.Degree(node, dir, relTypes...)
}

// Neighbors returns adjacent node IDs over visible relationships.
func (tx *Tx) Neighbors(node NodeID, dir Direction, relTypes ...string) ([]NodeID, error) {
	return tx.t.Neighbors(node, dir, relTypes...)
}

// ForEachNeighbor calls fn with the ID at the far end of each visible
// relationship on node — the allocation-free fast path under Neighbors
// (no per-call set or sort). fn may see the same neighbor more than once
// when parallel edges connect the pair; traversal loops dedup against
// the seen set they already carry.
func (tx *Tx) ForEachNeighbor(node NodeID, dir Direction, fn func(NodeID), relTypes ...string) error {
	return tx.t.ForEachNeighbor(node, dir, relTypes, fn)
}

// NodesByLabel returns the IDs of nodes carrying label (versioned label
// index merged with this transaction's writes).
func (tx *Tx) NodesByLabel(label string) ([]NodeID, error) { return tx.t.NodesByLabel(label) }

// NodesByProperty returns the IDs of nodes with property key == val.
func (tx *Tx) NodesByProperty(key string, val Value) ([]NodeID, error) {
	return tx.t.NodesByProperty(key, val)
}

// RelsByProperty returns the IDs of relationships with property key == val.
func (tx *Tx) RelsByProperty(key string, val Value) ([]RelID, error) {
	return tx.t.RelsByProperty(key, val)
}

// AllNodes returns every visible node ID (full scan).
func (tx *Tx) AllNodes() ([]NodeID, error) { return tx.t.AllNodes() }

// AllRels returns every visible relationship ID (full scan).
func (tx *Tx) AllRels() ([]RelID, error) { return tx.t.AllRels() }

// NodeIterator streams node snapshots.
type NodeIterator = core.NodeIterator

// IterateNodesByLabel returns an iterator over nodes with the label.
func (tx *Tx) IterateNodesByLabel(label string) (*NodeIterator, error) {
	return tx.t.IterateNodesByLabel(label)
}

// IterateAllNodes returns an iterator over every visible node.
func (tx *Tx) IterateAllNodes() (*NodeIterator, error) { return tx.t.IterateAllNodes() }
