package store

import (
	"encoding/binary"
	"fmt"

	"neograph/internal/ids"
	"neograph/internal/record"
	"neograph/internal/value"
)

// NodeData is the persisted image of one node: the newest committed
// version only. CommitTS, the timestamp the paper adds to every entity, is
// kept in the node's record, beside the heads of its chains.
type NodeData struct {
	ID        ids.ID
	Labels    []string
	Props     value.Packed
	CommitTS  uint64
	Tombstone bool
}

// AllocNodeID hands out a fresh node ID. The engine allocates IDs at node
// creation so cache IDs and store IDs coincide.
func (s *Store) AllocNodeID() ids.ID { return s.nodes.alloc.Next() }

// ReleaseNodeID returns an ID no node holds any more: its creating
// transaction aborted, or its record was removed.
func (s *Store) ReleaseNodeID(id ids.ID) { s.nodes.alloc.Release(id) }

// NodeHighWater returns the lowest never-allocated node ID.
func (s *Store) NodeHighWater() ids.ID { return s.nodes.alloc.HighWater() }

// ReserveNodeIDs takes the IDs of nodes that exist outside the record
// file (replayed from the WAL, applied from a replication stream) out of
// the allocator: none of them is handed out again until released.
func (s *Store) ReserveNodeIDs(taken []ids.ID) { s.nodes.alloc.Reserve(taken) }

// SetIDStride restricts BOTH entity allocators (nodes and relationships)
// to the congruence class id % stride == offset, so a partitioned
// deployment can compute any entity's owning partition from its ID. Must
// be called right after Open, before any allocation.
func (s *Store) SetIDStride(offset, stride ids.ID) {
	s.nodes.alloc.SetStride(offset, stride)
	s.rels.alloc.SetStride(offset, stride)
}

// PutNode persists a node image, replacing any previous image at the same
// ID.
func (s *Store) PutNode(n NodeData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putNodeLocked(n)
}

func (s *Store) putNodeLocked(n NodeData) error {
	var buf [record.NodeSize]byte
	if err := s.nodes.read(n.ID, buf[:]); err != nil {
		return err
	}
	old, err := record.DecodeNode(buf[:])
	if err != nil {
		return err
	}
	if old.InUse {
		if err := s.freePropChain(old.FirstProp); err != nil {
			return err
		}
		if err := s.freeDynChain(old.LabelRef); err != nil {
			return err
		}
	}

	propHead, err := s.writePropChain(n.Props)
	if err != nil {
		return err
	}
	labelRef, err := s.writeLabelChain(n.Labels)
	if err != nil {
		return err
	}
	rec := record.NodeRecord{
		InUse:     true,
		Tombstone: n.Tombstone,
		FirstProp: propHead,
		LabelRef:  labelRef,
		CommitTS:  n.CommitTS,
	}
	record.EncodeNode(buf[:], &rec)
	return s.nodes.write(n.ID, buf[:])
}

// GetNode loads the persisted image of node id. ErrNotFound if the record
// is not in use.
func (s *Store) GetNode(id ids.ID) (NodeData, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getNodeLocked(id)
}

func (s *Store) getNodeLocked(id ids.ID) (NodeData, error) {
	if id >= s.nodes.alloc.HighWater() {
		return NodeData{}, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	var buf [record.NodeSize]byte
	if err := s.nodes.read(id, buf[:]); err != nil {
		return NodeData{}, err
	}
	rec, err := record.DecodeNode(buf[:])
	if err != nil {
		return NodeData{}, err
	}
	if !rec.InUse {
		return NodeData{}, fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	r := s.newReader()
	defer r.release()
	return r.node(id, &rec)
}

// RemoveNode erases the persisted image of node id. The ID stays taken:
// ReleaseNodeID returns it, once the caller knows it has no next owner
// yet. Whether the node still has relationships is the engine's to know.
func (s *Store) RemoveNode(id ids.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf [record.NodeSize]byte
	if err := s.nodes.read(id, buf[:]); err != nil {
		return err
	}
	rec, err := record.DecodeNode(buf[:])
	if err != nil {
		return err
	}
	if !rec.InUse {
		return fmt.Errorf("%w: node %d", ErrNotFound, id)
	}
	if err := s.freePropChain(rec.FirstProp); err != nil {
		return err
	}
	if err := s.freeDynChain(rec.LabelRef); err != nil {
		return err
	}
	return s.nodes.zero(id)
}

// ScanNodes calls fn for every in-use node image, in ID order. fn errors
// abort the scan, and so does a node that cannot be read whole: the error
// names it. For a store that has no writer, as at Open.
func (s *Store) ScanNodes(fn func(NodeData) error) error {
	return s.scan(s.nodes, func(r *reader, id ids.ID, buf []byte) error {
		var n NodeData
		rec, err := record.DecodeNode(buf)
		if err == nil {
			n, err = r.node(id, &rec)
		}
		if err != nil {
			return fmt.Errorf("store: node %d of %s: %w", id, s.nodes.path, err)
		}
		return fn(n)
	})
}

// writeLabelChain persists a label set as a dynamic chain of uint32 label
// tokens. Caller holds s.mu.
func (s *Store) writeLabelChain(labels []string) (ids.ID, error) {
	if len(labels) == 0 {
		return ids.NoID, nil
	}
	buf := make([]byte, 0, 4*len(labels))
	for _, l := range labels {
		tok, err := s.tokens.Get(TokenLabel, l)
		if err != nil {
			return ids.NoID, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, tok)
	}
	return s.writeDynChain(buf)
}
