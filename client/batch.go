package client

import (
	"context"
	"fmt"

	"neograph"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// Batch accumulates operations for submission in ONE round trip. Each
// builder method returns the op's index; after Run, fetch that op's
// result from the BatchResults by the same index.
//
// The server executes the whole batch inside a single transaction: the
// session's explicit transaction if one is open, otherwise a
// transaction owned by the batch and committed when every op succeeds.
// Atomicity: the first failing op aborts the entire batch (and an
// enclosing explicit transaction) — Run then returns a *BatchError
// naming the failed op.
type Batch struct {
	reqs []wire.Request
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.reqs) }

// add queues a request and returns its index.
func (b *Batch) add(req wire.Request) int {
	b.reqs = append(b.reqs, req)
	return len(b.reqs) - 1
}

// CreateNode queues a node creation.
func (b *Batch) CreateNode(labels []string, props neograph.Props) int {
	return b.add(wire.Request{Op: wire.OpCreateNode, Labels: labels, Props: wire.Props(props)})
}

// GetNode queues a node fetch.
func (b *Batch) GetNode(id neograph.NodeID) int {
	return b.add(wire.Request{Op: wire.OpGetNode, ID: id})
}

// CreateRelRef queues a relationship creation whose endpoints are batch-
// local back references: startOp and endOp are the indexes (as returned
// by CreateNode) of EARLIER ops in this batch, and the relationship
// connects the nodes those ops created — so a node and its edges land in
// ONE round trip, no intermediate ID fetch. A reference to an op that is
// not earlier in the batch, or that did not create an entity, aborts the
// batch with a structured error naming the op.
func (b *Batch) CreateRelRef(relType string, startOp, endOp int, props neograph.Props) int {
	s, e := startOp, endOp
	return b.add(wire.Request{Op: wire.OpCreateRel, Type: relType, StartRef: &s, EndRef: &e, Props: wire.Props(props)})
}

// SetNodePropRef queues a property write on the node created by an
// earlier op of this batch (see CreateRelRef).
func (b *Batch) SetNodePropRef(op int, key string, v neograph.Value) int {
	o := op
	return b.add(wire.Request{Op: wire.OpSetNodeProp, IDRef: &o, Key: key, Value: value.EncodeValue(v)})
}

// AddLabelRef queues a label addition on the node created by an earlier
// op of this batch (see CreateRelRef).
func (b *Batch) AddLabelRef(op int, label string) int {
	o := op
	return b.add(wire.Request{Op: wire.OpAddLabel, IDRef: &o, Label: label})
}

// SetNodeProp queues a node property write.
func (b *Batch) SetNodeProp(id neograph.NodeID, key string, v neograph.Value) int {
	return b.add(wire.Request{Op: wire.OpSetNodeProp, ID: id, Key: key, Value: value.EncodeValue(v)})
}

// AddLabel queues a label addition.
func (b *Batch) AddLabel(id neograph.NodeID, label string) int {
	return b.add(wire.Request{Op: wire.OpAddLabel, ID: id, Label: label})
}

// RemoveLabel queues a label removal.
func (b *Batch) RemoveLabel(id neograph.NodeID, label string) int {
	return b.add(wire.Request{Op: wire.OpRemoveLabel, ID: id, Label: label})
}

// DeleteNode queues a node deletion.
func (b *Batch) DeleteNode(id neograph.NodeID) int {
	return b.add(wire.Request{Op: wire.OpDeleteNode, ID: id})
}

// DetachDeleteNode queues a node+relationships deletion.
func (b *Batch) DetachDeleteNode(id neograph.NodeID) int {
	return b.add(wire.Request{Op: wire.OpDetachDelete, ID: id})
}

// CreateRel queues a relationship creation.
func (b *Batch) CreateRel(relType string, start, end neograph.NodeID, props neograph.Props) int {
	return b.add(wire.Request{Op: wire.OpCreateRel, Type: relType, Start: start, End: end, Props: wire.Props(props)})
}

// GetRel queues a relationship fetch.
func (b *Batch) GetRel(id neograph.RelID) int {
	return b.add(wire.Request{Op: wire.OpGetRel, ID: id})
}

// SetRelProp queues a relationship property write.
func (b *Batch) SetRelProp(id neograph.RelID, key string, v neograph.Value) int {
	return b.add(wire.Request{Op: wire.OpSetRelProp, ID: id, Key: key, Value: value.EncodeValue(v)})
}

// DeleteRel queues a relationship deletion.
func (b *Batch) DeleteRel(id neograph.RelID) int {
	return b.add(wire.Request{Op: wire.OpDeleteRel, ID: id})
}

// Relationships queues a relationship listing.
func (b *Batch) Relationships(id neograph.NodeID, dir string, types ...string) int {
	return b.add(wire.Request{Op: wire.OpRels, ID: id, Dir: dir, Types: types})
}

// Neighbors queues an adjacency listing.
func (b *Batch) Neighbors(id neograph.NodeID, dir string, types ...string) int {
	return b.add(wire.Request{Op: wire.OpNeighbors, ID: id, Dir: dir, Types: types})
}

// BatchError reports which op aborted a batch — or, out of the call that
// flushed an explicit transaction, which of the calls deferred since the
// last flush aborted it (Index counts those calls in call order; the
// message says which of the two it is). Unwrap exposes the op's error,
// mapped to engine sentinels, so errors.Is works.
type BatchError struct {
	Index int
	Err   error
	// deferred is the op of the deferred call Index counts, empty for a
	// Batch's own op.
	deferred string
}

func (e *BatchError) Error() string {
	if e.deferred != "" {
		return fmt.Sprintf("deferred %s (call %d since the last flush): %v", e.deferred, e.Index, e.Err)
	}
	return fmt.Sprintf("batch op %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// BatchResults holds a successful batch's per-op responses.
type BatchResults struct {
	resps []wire.Response
	lsn   uint64
}

// Len returns the number of op results.
func (r *BatchResults) Len() int { return len(r.resps) }

// LSN returns the batch transaction's commit position — the token for
// read-your-writes gating on replicas. Zero when the batch ran inside a
// still-open explicit transaction (Commit returns the token then).
func (r *BatchResults) LSN() uint64 { return r.lsn }

// at bounds-checks an op index.
func (r *BatchResults) at(i int) (*wire.Response, error) {
	if i < 0 || i >= len(r.resps) {
		return nil, fmt.Errorf("client: batch result index %d out of range (%d ops)", i, len(r.resps))
	}
	return &r.resps[i], nil
}

// ID returns op i's created entity ID (CreateNode / CreateRel).
func (r *BatchResults) ID(i int) (uint64, error) {
	resp, err := r.at(i)
	if err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// Node returns op i's node snapshot (GetNode).
func (r *BatchResults) Node(i int) (neograph.Node, error) {
	resp, err := r.at(i)
	if err != nil {
		return neograph.Node{}, err
	}
	return decodeNode(resp.Node)
}

// Rel returns op i's relationship snapshot (GetRel).
func (r *BatchResults) Rel(i int) (neograph.Relationship, error) {
	resp, err := r.at(i)
	if err != nil {
		return neograph.Relationship{}, err
	}
	return decodeRel(resp.Rel)
}

// Rels returns op i's relationship list (Relationships).
func (r *BatchResults) Rels(i int) ([]neograph.Relationship, error) {
	resp, err := r.at(i)
	if err != nil {
		return nil, err
	}
	return decodeRels(resp.Rels)
}

// IDs returns op i's ID list (Neighbors).
func (r *BatchResults) IDs(i int) ([]uint64, error) {
	resp, err := r.at(i)
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// RunBatch submits the batch in one round trip — inside an explicit
// transaction, the same one that carries the calls deferred so far. On a
// server-side abort the returned error is a *BatchError naming the failed
// op; the engine sentinel it wraps is reachable through errors.Is.
func (c *Client) RunBatch(ctx context.Context, b *Batch) (*BatchResults, error) {
	if err := wire.ValidateBatch(&wire.Request{Op: wire.OpBatch, Batch: b.reqs}); err != nil {
		return nil, err
	}
	resp, at, err := c.flush(ctx, b.reqs, false)
	if err != nil {
		if resp != nil && resp.FailedOp != nil && *resp.FailedOp >= at {
			// One of the batch's own ops: its index, the frame's offset removed.
			return nil, &BatchError{Index: *resp.FailedOp - at, Err: err}
		}
		return nil, err
	}
	return &BatchResults{resps: resp.Results[at : at+len(b.reqs)], lsn: resp.LSN}, nil
}
