package core

import (
	"fmt"
	"slices"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/value"
)

// Direction selects relationship orientation relative to a node.
type Direction uint8

// Directions.
const (
	Outgoing Direction = iota
	Incoming
	Both
)

func (d Direction) String() string {
	switch d {
	case Outgoing:
		return "outgoing"
	case Incoming:
		return "incoming"
	default:
		return "both"
	}
}

// lockEndpoint takes the long write lock on an endpoint node of a
// relationship being created or deleted, mirroring Neo4j, which locks
// both endpoint nodes to serialise relationship-chain updates. Endpoints
// created by this very transaction are private and need no lock. Under
// first-committer-wins no locks are taken during execution; endpoint
// liveness is re-validated at commit.
func (t *Tx) lockEndpoint(node ids.ID) error {
	k := entKey{lock.KindNode, node}
	if w, ok := t.writes[k]; ok && w.created {
		return nil
	}
	if t.fcw() {
		return nil
	}
	lk := lock.Key{Kind: lock.KindNode, ID: node}
	if t.iso == ReadCommitted {
		if err := t.e.locks.Acquire(t.id, lk, lock.Exclusive); err != nil {
			t.e.stats.deadlocks.Add(1)
			return err
		}
		return nil
	}
	if err := t.e.locks.TryAcquire(t.id, lk, lock.Exclusive); err != nil {
		t.e.stats.conflicts.Add(1)
		return fmt.Errorf("%w: endpoint node %d locked by concurrent transaction", ErrWriteConflict, node)
	}
	return nil
}

// CreateRel creates a relationship of the given type from start to end.
// Both endpoint nodes must be visible in this transaction's snapshot; both
// are write-locked (as in Neo4j) to serialise chain updates.
func (t *Tx) CreateRel(relType string, start, end ids.ID, props value.Map) (ids.ID, error) {
	return t.createRel(relType, start, end, props, false)
}

// CreateRelCrossPartition creates a relationship whose endpoints may
// live on other partitions. Locally-owned endpoints are validated and
// locked exactly as CreateRel does; remote endpoints are skipped here —
// the coordinator guards them through the owning partition's prepared
// validate set, so this must only be called on the two-phase-commit
// prepare path. The edge itself is stored on this (the source ID's
// owning) partition.
func (t *Tx) CreateRelCrossPartition(relType string, start, end ids.ID, props value.Map) (ids.ID, error) {
	return t.createRel(relType, start, end, props, true)
}

// createRel is both of the above; ownedOnly skips the endpoints this
// partition does not own.
func (t *Tx) createRel(relType string, start, end ids.ID, props value.Map, ownedOnly bool) (ids.ID, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	if relType == "" {
		return 0, fmt.Errorf("core: relationship type must not be empty")
	}
	ends := []ids.ID{start, end}
	if end == start {
		ends = ends[:1]
	}
	if ownedOnly {
		ends = slices.DeleteFunc(ends, func(n ids.ID) bool { return !t.e.OwnsID(n) })
	}
	for _, n := range ends {
		if _, ok, err := t.visibleNode(n); err != nil {
			return 0, err
		} else if !ok {
			return 0, fmt.Errorf("%w: endpoint node %d", ErrNotFound, n)
		}
	}
	for _, n := range ends {
		if err := t.lockEndpoint(n); err != nil {
			return 0, err
		}
	}
	id := t.e.allocRelID()
	k := entKey{lock.KindRel, id}
	t.writes[k] = &writeEntry{
		key:     k,
		created: true,
		rel:     &RelState{Type: relType, Start: start, End: end, Props: value.Pack(props)},
	}
	t.order = append(t.order, k)
	return id, nil
}

// GetRel returns the relationship visible in this transaction's snapshot.
func (t *Tx) GetRel(id ids.ID) (RelSnapshot, error) {
	if err := t.check(); err != nil {
		return RelSnapshot{}, err
	}
	st, ok, err := t.visibleRel(id)
	if err != nil {
		return RelSnapshot{}, err
	}
	if !ok {
		return RelSnapshot{}, fmt.Errorf("%w: rel %d", ErrNotFound, id)
	}
	return RelSnapshot{
		ID: id, Type: st.Type, Start: st.Start, End: st.End, Props: st.Props.ToMap(),
	}, nil
}

// SetRelProp sets one property on a relationship.
func (t *Tx) SetRelProp(id ids.ID, key string, v value.Value) error {
	if err := t.check(); err != nil {
		return err
	}
	w, err := t.stageRelWrite(id)
	if err != nil {
		return err
	}
	w.rel.Props = w.rel.Props.With(key, v)
	return nil
}

// RemoveRelProp removes a property from a relationship (no-op if absent).
func (t *Tx) RemoveRelProp(id ids.ID, key string) error {
	if err := t.check(); err != nil {
		return err
	}
	w, err := t.stageRelWrite(id)
	if err != nil {
		return err
	}
	w.rel.Props = w.rel.Props.With(key, value.Null)
	return nil
}

// DeleteRel deletes a relationship. Both endpoint nodes are write-locked
// (chain update, as in Neo4j).
func (t *Tx) DeleteRel(id ids.ID) error {
	if err := t.check(); err != nil {
		return err
	}
	k := entKey{lock.KindRel, id}
	if w, ok := t.writes[k]; ok && w.created {
		w.deleted = true // created and deleted in the same transaction
		st := w.rel
		w.rel = nil
		if st != nil {
			// Endpoints were locked at create; nothing to undo.
			_ = st
		}
		return nil
	}
	st, ok, err := t.visibleRel(id)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: rel %d", ErrNotFound, id)
	}
	if err := t.lockEndpoint(st.Start); err != nil {
		return err
	}
	if st.End != st.Start {
		if err := t.lockEndpoint(st.End); err != nil {
			return err
		}
	}
	w, err := t.stageRelWrite(id)
	if err != nil {
		return err
	}
	w.deleted = true
	return nil
}

// Relationships returns the relationships of node visible in this
// snapshot, filtered by direction and (optionally) type, sorted by ID.
//
// This is the paper's "enriched iterator" (§4): the candidate set comes
// from the committed adjacency structure plus the transaction's own
// staged creations; each candidate's visibility is decided by its version
// chain, and staged deletions are excluded — read-your-own-writes.
func (t *Tx) Relationships(node ids.ID, dir Direction, relTypes ...string) ([]RelSnapshot, error) {
	var out []RelSnapshot
	err := t.forEachVisibleRel(node, dir, relTypes, func(rid ids.ID, st *RelState) {
		out = append(out, RelSnapshot{
			ID: rid, Type: st.Type, Start: st.Start, End: st.End, Props: st.Props.ToMap(),
		})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// forEachVisibleRel drives the enriched iterator without materialising
// snapshots: fn receives each visible relationship, in ID order, with its
// state borrowed from the version chain — NOT cloned, valid only during
// the call. Traversals that only need endpoints (Neighbors, and through
// it every BFS frontier expansion) skip the per-relationship props clone
// that dominates adjacency cost on property-bearing graphs.
func (t *Tx) forEachVisibleRel(node ids.ID, dir Direction, relTypes []string, fn func(rid ids.ID, st *RelState)) error {
	if err := t.check(); err != nil {
		return err
	}
	if _, ok, err := t.visibleNode(node); err != nil {
		return err
	} else if !ok {
		return fmt.Errorf("%w: node %d", ErrNotFound, node)
	}
	var candidates []ids.ID
	if !t.adjBusy {
		t.adjBusy = true
		defer func() {
			t.adjBuf = candidates[:0]
			t.adjBusy = false
		}()
		candidates = t.e.adjacentRels(node, dir, t.adjBuf[:0])
	} else {
		candidates = t.e.adjacentRels(node, dir, nil)
	}
	// Merge staged creations touching this node. Their IDs are fresh, so
	// they cannot collide with installed candidates (dedup anyway in case
	// that invariant ever changes), but a recycled ID may sort below them.
	installed := len(candidates)
	for k, w := range t.writes {
		if k.kind != lock.KindRel || !w.created || w.deleted || w.rel == nil {
			continue
		}
		if w.rel.Start == node || w.rel.End == node {
			candidates = append(candidates, k.id)
		}
	}
	if len(candidates) > installed {
		slices.Sort(candidates)
		candidates = slices.Compact(candidates)
	}
	for _, rid := range candidates {
		st, ok, err := t.visibleRel(rid)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		if st.Start != node && st.End != node {
			continue
		}
		switch dir {
		case Outgoing:
			if st.Start != node {
				continue
			}
		case Incoming:
			if st.End != node {
				continue
			}
		}
		if len(relTypes) > 0 && !typeMatch(relTypes, st.Type) {
			continue
		}
		fn(rid, st)
	}
	return nil
}

// typeMatch reports whether rt is one of types. Type lists are one or
// two entries in practice, so a linear scan beats a per-call map.
func typeMatch(types []string, rt string) bool {
	for _, t := range types {
		if t == rt {
			return true
		}
	}
	return false
}

// Degree returns the number of visible relationships on node.
func (t *Tx) Degree(node ids.ID, dir Direction, relTypes ...string) (int, error) {
	n := 0
	err := t.forEachVisibleRel(node, dir, relTypes, func(ids.ID, *RelState) { n++ })
	if err != nil {
		return 0, err
	}
	return n, nil
}

// ForEachNeighbor streams the ID at the far end of each of node's
// visible relationships — the allocation-free path under Neighbors: no
// snapshot, no per-call set or sort. fn may see the same neighbor more
// than once (parallel edges); traversals dedup against the seen set they
// already carry.
func (t *Tx) ForEachNeighbor(node ids.ID, dir Direction, relTypes []string, fn func(ids.ID)) error {
	return t.forEachVisibleRel(node, dir, relTypes, func(_ ids.ID, st *RelState) {
		other := st.End
		if st.End == node && st.Start != node {
			other = st.Start
		} else if st.Start == node {
			other = st.End
		}
		fn(other)
	})
}

// Neighbors returns the IDs of nodes adjacent to node over visible
// relationships, deduplicated and sorted. It rides the enriched iterator
// directly — endpoints come from the borrowed relationship state, so no
// snapshot (and no props clone) is built per relationship.
func (t *Tx) Neighbors(node ids.ID, dir Direction, relTypes ...string) ([]ids.ID, error) {
	out := []ids.ID{}
	err := t.ForEachNeighbor(node, dir, relTypes, func(other ids.ID) { out = append(out, other) })
	if err != nil {
		return nil, err
	}
	slices.Sort(out)
	return slices.Compact(out), nil
}
