package core

import (
	"slices"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/value"
)

// readTS returns the timestamp index lookups should use: the snapshot for
// SI; "latest" for read committed (which by definition sees the newest
// committed state and therefore phantoms).
func (t *Tx) readTS() mvcc.TS {
	if t.iso == ReadCommitted {
		// Strictly below the live-entry sentinel so "added and never
		// removed" entries satisfy added <= ts < removed.
		return ^mvcc.TS(0) - 1
	}
	return t.startTS
}

// NodesByLabel returns the IDs of nodes carrying label in this
// transaction's view: the versioned label index filtered to the snapshot,
// merged with the private write set (read-your-own-writes).
func (t *Tx) NodesByLabel(label string) ([]ids.ID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	var committed []uint64
	if tok, ok := t.e.tok.lookup(tokLabel, label); ok {
		committed = t.e.labelIdx.Lookup(tok, t.readTS())
	}
	return t.mergeNodeIDs(committed, func(st *NodeState) bool {
		return hasLabel(st.Labels, label)
	})
}

// NodesByProperty returns the IDs of nodes whose property key equals val
// in this transaction's view.
func (t *Tx) NodesByProperty(key string, val value.Value) ([]ids.ID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	committed := t.e.propLookup(t.e.nodeProps, key, val, t.readTS())
	return t.mergeNodeIDs(committed, func(st *NodeState) bool {
		v, ok := st.Props.Get(key)
		return ok && v.Equal(val)
	})
}

// RelsByProperty returns the IDs of relationships whose property key
// equals val in this transaction's view.
func (t *Tx) RelsByProperty(key string, val value.Value) ([]ids.ID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	committed := t.e.propLookup(t.e.relProps, key, val, t.readTS())
	match := func(st *RelState) bool {
		v, ok := st.Props.Get(key)
		return ok && v.Equal(val)
	}
	out := make([]ids.ID, 0, len(committed))
	for _, id := range committed {
		// Re-check through the transaction's view: a staged write may have
		// removed the property or deleted the relationship.
		st, ok, err := t.visibleRel(id)
		if err != nil {
			return nil, err
		}
		if ok && match(st) {
			out = append(out, id)
		}
	}
	for k, w := range t.writes {
		if k.kind != lock.KindRel || w.deleted || w.rel == nil || !match(w.rel) {
			continue
		}
		out = append(out, k.id)
	}
	return dedupeSorted(out), nil
}

// mergeNodeIDs applies the read-your-own-writes merge for node index
// lookups: committed hits are re-validated through the transaction view
// (staged updates may falsify them), then staged nodes matching the
// predicate are added.
func (t *Tx) mergeNodeIDs(committed []uint64, match func(*NodeState) bool) ([]ids.ID, error) {
	out := make([]ids.ID, 0, len(committed))
	for _, id := range committed {
		st, ok, err := t.visibleNode(id)
		if err != nil {
			return nil, err
		}
		if ok && match(st) {
			out = append(out, id)
		}
	}
	for k, w := range t.writes {
		if k.kind != lock.KindNode || w.deleted || w.node == nil || !match(w.node) {
			continue
		}
		out = append(out, k.id)
	}
	return dedupeSorted(out), nil
}

func dedupeSorted(in []ids.ID) []ids.ID {
	slices.Sort(in)
	return slices.Compact(in)
}

// AllNodes returns every node ID visible in this transaction's view,
// sorted. It scans the object cache (plus staged creations) — the
// full-scan baseline the versioned indexes beat in experiment E6.
func (t *Tx) AllNodes() ([]ids.ID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	cand := t.e.entityIDs(lock.KindNode)
	out := make([]ids.ID, 0, len(cand))
	for _, id := range cand {
		_, ok, err := t.visibleNode(id)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, id)
		}
	}
	for k, w := range t.writes {
		if k.kind == lock.KindNode && w.created && !w.deleted {
			out = append(out, k.id)
		}
	}
	return dedupeSorted(out), nil
}

// AllRels returns every relationship ID visible in this transaction's
// view, sorted.
func (t *Tx) AllRels() ([]ids.ID, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	cand := t.e.entityIDs(lock.KindRel)
	out := make([]ids.ID, 0, len(cand))
	for _, id := range cand {
		_, ok, err := t.visibleRel(id)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, id)
		}
	}
	for k, w := range t.writes {
		if k.kind == lock.KindRel && w.created && !w.deleted {
			out = append(out, k.id)
		}
	}
	return dedupeSorted(out), nil
}

// NodeIterator streams the nodes visible in a transaction's view without
// materialising all snapshots up front — the shape of Neo4j's enriched
// store iterator described in §4.
type NodeIterator struct {
	tx  *Tx
	ids []ids.ID
	pos int
	cur NodeSnapshot
	err error
}

// IterateNodesByLabel returns an iterator over nodes with the label.
func (t *Tx) IterateNodesByLabel(label string) (*NodeIterator, error) {
	ids, err := t.NodesByLabel(label)
	if err != nil {
		return nil, err
	}
	return &NodeIterator{tx: t, ids: ids}, nil
}

// IterateAllNodes returns an iterator over every visible node.
func (t *Tx) IterateAllNodes() (*NodeIterator, error) {
	ids, err := t.AllNodes()
	if err != nil {
		return nil, err
	}
	return &NodeIterator{tx: t, ids: ids}, nil
}

// Next advances to the next visible node, returning false at the end or
// on error (check Err).
func (it *NodeIterator) Next() bool {
	for it.pos < len(it.ids) {
		id := it.ids[it.pos]
		it.pos++
		snap, err := it.tx.GetNode(id)
		if err == nil {
			it.cur = snap
			return true
		}
		// A node deleted by this very transaction after the iterator was
		// created simply disappears from the stream.
	}
	return false
}

// Node returns the current node snapshot.
func (it *NodeIterator) Node() NodeSnapshot { return it.cur }

// Err returns the first iteration error, if any.
func (it *NodeIterator) Err() error { return it.err }
