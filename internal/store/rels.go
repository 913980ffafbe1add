package store

import (
	"fmt"

	"neograph/internal/ids"
	"neograph/internal/record"
	"neograph/internal/value"
)

// RelData is the persisted image of one relationship: the newest committed
// version only.
type RelData struct {
	ID        ids.ID
	Type      string
	StartNode ids.ID
	EndNode   ids.ID
	Props     value.Packed
	CommitTS  uint64
	Tombstone bool
}

// AllocRelID hands out a fresh relationship ID.
func (s *Store) AllocRelID() ids.ID { return s.rels.alloc.Next() }

// ReleaseRelID is ReleaseNodeID for relationships.
func (s *Store) ReleaseRelID(id ids.ID) { s.rels.alloc.Release(id) }

// RelHighWater returns the lowest never-allocated relationship ID.
func (s *Store) RelHighWater() ids.ID { return s.rels.alloc.HighWater() }

// ReserveRelIDs is ReserveNodeIDs for relationships.
func (s *Store) ReserveRelIDs(taken []ids.ID) { s.rels.alloc.Reserve(taken) }

// PutRel persists a relationship image. On first write the record is
// linked into the relationship chains of its endpoint nodes — those this
// store owns, which must already be persisted; on rewrite the chain
// pointers are preserved and only type, properties, commit timestamp and
// tombstone flag change — unless the record belongs to an earlier owner of
// a recycled ID (other endpoints and an older commit timestamp), which is
// unlinked and replaced. Other endpoints at no newer a timestamp are
// refused.
func (s *Store) PutRel(r RelData) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	var buf [record.RelSize]byte
	if err := s.rels.read(r.ID, buf[:]); err != nil {
		return err
	}
	old, err := record.DecodeRel(buf[:])
	if err != nil {
		return err
	}

	tok, err := s.tokens.Get(TokenRelType, r.Type)
	if err != nil {
		return err
	}
	rec := record.RelRecord{
		InUse:     true,
		Tombstone: r.Tombstone,
		Type:      tok,
		StartNode: r.StartNode,
		EndNode:   r.EndNode,
		StartPrev: ids.NoID, StartNext: ids.NoID,
		EndPrev: ids.NoID, EndNext: ids.NoID,
	}

	link := !old.InUse
	if old.InUse {
		switch {
		case old.StartNode == r.StartNode && old.EndNode == r.EndNode:
			rec.StartPrev, rec.StartNext = old.StartPrev, old.StartNext
			rec.EndPrev, rec.EndNext = old.EndPrev, old.EndNext
		default:
			// Other endpoints: a relationship never changes its own, so the
			// record can only belong to an earlier owner of a recycled ID —
			// dead, its removal not yet in this file (it was collected, and
			// the ID re-used, after the last flush before a crash; or on a
			// replica, before its own collector got to it), and not even a
			// tombstone if the collector took it off the checkpoint queue
			// first. A later owner is newer than anything the earlier one
			// wrote; an image that is not is a caller's mistake.
			chains := s.newReader()
			_, oldTS, err := chains.propChain(old.FirstProp)
			chains.release()
			if err != nil {
				return err
			}
			if r.CommitTS <= oldTS {
				return fmt.Errorf("store: rel %d endpoints changed on rewrite", r.ID)
			}
			// Finish the removal and link the new owner afresh.
			if err := s.unlinkRelLocked(r.ID, &old); err != nil {
				return err
			}
			link = true
		}
		if err := s.freePropChain(old.FirstProp); err != nil {
			return err
		}
	}

	if rec.FirstProp, err = s.writePropChain(r.Props, r.CommitTS); err != nil {
		return err
	}

	if link {
		// Link at the head of the start node's chain, and (unless this is a
		// self-loop, which appears once) the end node's chain.
		if s.owns(r.StartNode) {
			if err := s.linkRelLocked(r.ID, &rec, r.StartNode, true); err != nil {
				return err
			}
		}
		if r.EndNode != r.StartNode && s.owns(r.EndNode) {
			if err := s.linkRelLocked(r.ID, &rec, r.EndNode, false); err != nil {
				return err
			}
		}
	}

	record.EncodeRel(buf[:], &rec)
	return s.rels.write(r.ID, buf[:])
}

// linkRelLocked pushes relationship relID to the head of node's chain,
// updating rec's pointers in place (rec is written by the caller).
func (s *Store) linkRelLocked(relID ids.ID, rec *record.RelRecord, node ids.ID, asStart bool) error {
	var nbuf [record.NodeSize]byte
	if err := s.nodes.read(node, nbuf[:]); err != nil {
		return err
	}
	nrec, err := record.DecodeNode(nbuf[:])
	if err != nil {
		return err
	}
	if !nrec.InUse {
		return fmt.Errorf("store: link rel %d to missing node %d", relID, node)
	}
	oldHead := nrec.FirstRel
	if oldHead != ids.NoID && !s.relLiveAtLocked(oldHead, node) {
		// The node page outlived a crashed checkpoint but its chain head
		// never reached the rel file: the pointer dangles. Start a fresh
		// chain — recovery re-puts every chained rel, relinking each.
		oldHead = ids.NoID
	}
	if asStart {
		rec.StartPrev, rec.StartNext = ids.NoID, oldHead
	} else {
		rec.EndPrev, rec.EndNext = ids.NoID, oldHead
	}
	if oldHead != ids.NoID {
		if err := s.setRelPrevLocked(oldHead, node, relID); err != nil {
			return err
		}
	}
	nrec.FirstRel = relID
	record.EncodeNode(nbuf[:], &nrec)
	return s.nodes.write(node, nbuf[:])
}

// relLiveAtLocked reports whether rel id is a live, decodable record
// attached to node — the guard chain surgery needs before following a
// pointer that may dangle after a torn checkpoint (the referencing node
// page was durable, the rel page was not).
func (s *Store) relLiveAtLocked(id, node ids.ID) bool {
	if id >= s.rels.alloc.HighWater() {
		return false
	}
	var buf [record.RelSize]byte
	if err := s.rels.read(id, buf[:]); err != nil {
		return false
	}
	rec, err := record.DecodeRel(buf[:])
	if err != nil || !rec.InUse {
		return false
	}
	return rec.StartNode == node || rec.EndNode == node
}

// setRelPrevLocked sets the prev pointer of rel id relative to node.
func (s *Store) setRelPrevLocked(id, node, prev ids.ID) error {
	var buf [record.RelSize]byte
	if err := s.rels.read(id, buf[:]); err != nil {
		return err
	}
	rec, err := record.DecodeRel(buf[:])
	if err != nil {
		return err
	}
	if rec.StartNode == node {
		rec.StartPrev = prev
	} else if rec.EndNode == node {
		rec.EndPrev = prev
	} else {
		return fmt.Errorf("store: rel %d not attached to node %d", id, node)
	}
	record.EncodeRel(buf[:], &rec)
	return s.rels.write(id, buf[:])
}

// setRelNextLocked sets the next pointer of rel id relative to node.
func (s *Store) setRelNextLocked(id, node, next ids.ID) error {
	var buf [record.RelSize]byte
	if err := s.rels.read(id, buf[:]); err != nil {
		return err
	}
	rec, err := record.DecodeRel(buf[:])
	if err != nil {
		return err
	}
	if rec.StartNode == node {
		rec.StartNext = next
	} else if rec.EndNode == node {
		rec.EndNext = next
	} else {
		return fmt.Errorf("store: rel %d not attached to node %d", id, node)
	}
	record.EncodeRel(buf[:], &rec)
	return s.rels.write(id, buf[:])
}

// GetRel loads the persisted image of relationship id.
func (s *Store) GetRel(id ids.ID) (RelData, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getRelLocked(id)
}

func (s *Store) getRelLocked(id ids.ID) (RelData, error) {
	if id >= s.rels.alloc.HighWater() {
		return RelData{}, fmt.Errorf("%w: rel %d", ErrNotFound, id)
	}
	var buf [record.RelSize]byte
	if err := s.rels.read(id, buf[:]); err != nil {
		return RelData{}, err
	}
	rec, err := record.DecodeRel(buf[:])
	if err != nil {
		return RelData{}, err
	}
	if !rec.InUse {
		return RelData{}, fmt.Errorf("%w: rel %d", ErrNotFound, id)
	}
	r := s.newReader()
	defer r.release()
	return r.rel(id, &rec)
}

// RemoveRel unlinks relationship id from both endpoint chains and erases
// its record. The ID stays taken, as with RemoveNode.
func (s *Store) RemoveRel(id ids.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eraseRelLocked(id)
}

// ForgetNodeRels erases every relationship record still chained to node id;
// their IDs stay taken. It is for the caller that
// knows node id and all its relationships to be dead, and finds RemoveNode
// refusing: a record still chained there is what is left of a relationship
// whose ID was handed out again before its removal reached this file, so
// the ID has an owner — just not this record.
func (s *Store) ForgetNodeRels(id ids.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var nbuf [record.NodeSize]byte
	for {
		if err := s.nodes.read(id, nbuf[:]); err != nil {
			return err
		}
		nrec, err := record.DecodeNode(nbuf[:])
		if err != nil {
			return err
		}
		if !nrec.InUse || nrec.FirstRel == ids.NoID {
			return nil
		}
		if !s.relLiveAtLocked(nrec.FirstRel, id) {
			// A pointer left dangling by a checkpoint torn before flushes were
			// atomic (journal.go): nothing is chained.
			nrec.FirstRel = ids.NoID
			record.EncodeNode(nbuf[:], &nrec)
			return s.nodes.write(id, nbuf[:])
		}
		if err := s.eraseRelLocked(nrec.FirstRel); err != nil { // moves the chain's head on
			return err
		}
	}
}

// eraseRelLocked unlinks relationship id from both endpoint chains and
// erases its record and properties.
func (s *Store) eraseRelLocked(id ids.ID) error {
	var buf [record.RelSize]byte
	if err := s.rels.read(id, buf[:]); err != nil {
		return err
	}
	rec, err := record.DecodeRel(buf[:])
	if err != nil {
		return err
	}
	if !rec.InUse {
		return fmt.Errorf("%w: rel %d", ErrNotFound, id)
	}

	if err := s.unlinkRelLocked(id, &rec); err != nil {
		return err
	}
	if err := s.freePropChain(rec.FirstProp); err != nil {
		return err
	}
	return s.rels.zero(id)
}

// unlinkRelLocked takes rel id out of the chains PutRel linked it into.
func (s *Store) unlinkRelLocked(id ids.ID, rec *record.RelRecord) error {
	if s.owns(rec.StartNode) {
		if err := s.unlinkLocked(id, rec.StartNode, rec.StartPrev, rec.StartNext); err != nil {
			return err
		}
	}
	if rec.EndNode != rec.StartNode && s.owns(rec.EndNode) {
		return s.unlinkLocked(id, rec.EndNode, rec.EndPrev, rec.EndNext)
	}
	return nil
}

// unlinkLocked removes rel id from node's chain given its prev/next there.
func (s *Store) unlinkLocked(id, node, prev, next ids.ID) error {
	if prev == ids.NoID {
		// id was the head: point the node at next.
		var nbuf [record.NodeSize]byte
		if err := s.nodes.read(node, nbuf[:]); err != nil {
			return err
		}
		nrec, err := record.DecodeNode(nbuf[:])
		if err != nil {
			return err
		}
		if nrec.FirstRel != id {
			return fmt.Errorf("store: chain corruption: node %d head %d != rel %d", node, nrec.FirstRel, id)
		}
		nrec.FirstRel = next
		record.EncodeNode(nbuf[:], &nrec)
		if err := s.nodes.write(node, nbuf[:]); err != nil {
			return err
		}
	} else {
		if err := s.setRelNextLocked(prev, node, next); err != nil {
			return err
		}
	}
	if next != ids.NoID {
		if err := s.setRelPrevLocked(next, node, prev); err != nil {
			return err
		}
	}
	return nil
}

// NodeRels returns the IDs of every relationship chained to node id, by
// walking the node's doubly-linked relationship chain.
func (s *Store) NodeRels(id ids.ID) ([]ids.ID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var nbuf [record.NodeSize]byte
	if err := s.nodes.read(id, nbuf[:]); err != nil {
		return nil, err
	}
	nrec, err := record.DecodeNode(nbuf[:])
	if err != nil {
		return nil, err
	}
	if !nrec.InUse {
		return nil, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	var out []ids.ID
	var buf [record.RelSize]byte
	for rid, hops := nrec.FirstRel, 0; rid != ids.NoID; hops++ {
		if hops > 1<<24 {
			return nil, fmt.Errorf("store: relationship chain cycle at node %d", id)
		}
		out = append(out, rid)
		if err := s.rels.read(rid, buf[:]); err != nil {
			return nil, err
		}
		rec, err := record.DecodeRel(buf[:])
		if err != nil {
			return nil, err
		}
		switch id {
		case rec.StartNode:
			rid = rec.StartNext
		case rec.EndNode:
			rid = rec.EndNext
		default:
			return nil, fmt.Errorf("store: rel %d in chain of node %d but not attached", rid, id)
		}
	}
	return out, nil
}

// ScanRels calls fn for every in-use relationship image, in ID order; see
// ScanNodes.
func (s *Store) ScanRels(fn func(RelData) error) error {
	return s.scan(s.rels, func(r *reader, id ids.ID, buf []byte) error {
		var rd RelData
		rec, err := record.DecodeRel(buf)
		if err == nil {
			rd, err = r.rel(id, &rec)
		}
		if err != nil {
			return fmt.Errorf("store: rel %d of %s: %w", id, s.rels.path, err)
		}
		return fn(rd)
	})
}
