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

// PutRel persists a relationship image, replacing any previous image at
// the same ID. Nothing but this record and its property chain is touched:
// the record names both endpoints — either may live in another partition's
// store — and no other record points at it.
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

	if old.InUse {
		if old.StartNode != r.StartNode || old.EndNode != r.EndNode {
			// Other endpoints: a relationship never changes its own, so the
			// record can only belong to an earlier owner of a recycled ID —
			// dead, its removal not yet in this file (it was collected, and
			// the ID re-used, after the last flush before a crash; or on a
			// replica, before its own collector got to it). A later owner is
			// newer than anything the earlier one wrote and replaces it; an
			// image that is not is a caller's mistake.
			if r.CommitTS <= old.CommitTS {
				return fmt.Errorf("store: rel %d endpoints changed on rewrite", r.ID)
			}
		}
		if err := s.freePropChain(old.FirstProp); err != nil {
			return err
		}
	}

	rec := record.RelRecord{
		InUse:     true,
		Tombstone: r.Tombstone,
		Type:      tok,
		StartNode: r.StartNode,
		EndNode:   r.EndNode,
		CommitTS:  r.CommitTS,
	}
	if rec.FirstProp, err = s.writePropChain(r.Props); err != nil {
		return err
	}
	record.EncodeRel(buf[:], &rec)
	return s.rels.write(r.ID, buf[:])
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

// RemoveRel erases the record and properties of relationship id. The ID
// stays taken, as with RemoveNode.
func (s *Store) RemoveRel(id ids.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	if err := s.freePropChain(rec.FirstProp); err != nil {
		return err
	}
	return s.rels.zero(id)
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
