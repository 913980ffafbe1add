package partition

import (
	"fmt"

	"neograph/internal/wire"
)

// refField names which wire.Request field a cross-partition
// substitution fills once the referenced creation's ID is known.
type refField int

const (
	fieldID refField = iota
	fieldStart
	fieldEnd
)

// pendingSub is one cross-partition back reference: sub-op localIdx of
// partition part needs the entity ID created by global sub-op target.
type pendingSub struct {
	part     uint32
	localIdx int
	field    refField
	target   int
}

// opRoute locates one global sub-op inside the per-partition split.
type opRoute struct {
	part     uint32
	localIdx int
}

// batchPlan is a cross-partition batch split into per-partition
// sub-batches plus the bookkeeping to merge results back.
type batchPlan struct {
	// order is the prepare order: every partition whose sub-batch
	// references another partition's creation prepares after it.
	order []uint32
	sub   map[uint32][]wire.Request
	// validate lists pre-existing node IDs each partition must pin
	// alive (edge endpoints referenced from other partitions).
	validate map[uint32][]uint64
	route    []opRoute
	subs     []pendingSub
}

// planBatch splits a validated batch across partitions. self is the
// coordinating partition (creations without an anchor go there), count
// the partition count. Returns an error for the one shape coordination
// cannot express: circular cross-partition references.
func planBatch(batch []wire.Request, self uint32, count int) (*batchPlan, error) {
	p := &batchPlan{
		sub:      make(map[uint32][]wire.Request),
		validate: make(map[uint32][]uint64),
		route:    make([]opRoute, len(batch)),
	}
	// deps[a][b]: partition a's sub-batch references a creation on b,
	// so b must prepare first.
	deps := make(map[uint32]map[uint32]bool)
	addDep := func(after, before uint32) {
		if after == before {
			return
		}
		if deps[after] == nil {
			deps[after] = make(map[uint32]bool)
		}
		deps[after][before] = true
	}

	for i := range batch {
		op := batch[i] // copy: refs are rewritten per partition
		pl := wire.Place(&op)
		// Partition assignment: an unanchored op (create_node, ping) runs
		// on the coordinator; a back reference anchors the op to the
		// referenced creation's partition; an explicit ID to its owner.
		var part uint32
		switch {
		case pl.Anchor == wire.AnchorNone:
			part = self
		case pl.Home.Back != nil:
			part = p.route[*pl.Home.Back].part
		default:
			part = wire.OwnerOf(pl.Home.ID, count)
		}

		// Rewrite each back reference: same-partition references become
		// local indices; cross-partition ones are cleared and filled
		// with the concrete ID once the owning partition has prepared.
		localIdx := len(p.sub[part])
		rewrite := func(ref **int, field refField) {
			if *ref == nil {
				return
			}
			global := **ref
			tgt := p.route[global]
			if tgt.part == part {
				li := tgt.localIdx
				*ref = &li
				return
			}
			*ref = nil
			p.subs = append(p.subs, pendingSub{part: part, localIdx: localIdx, field: field, target: global})
			addDep(part, tgt.part)
		}
		rewrite(&op.IDRef, fieldID)
		rewrite(&op.StartRef, fieldStart)
		rewrite(&op.EndRef, fieldEnd)

		// A relationship's remote pre-existing end node is guarded by
		// the owning partition's prepare (liveness-validated and pinned
		// until the decision). The start node is always local — the
		// edge is assigned to its partition — and endpoints created
		// inside this batch are guarded by their creation's prepared
		// entry on whichever partition holds it.
		if pl.Anchor == wire.AnchorEnds && pl.Far.Back == nil {
			if far := wire.OwnerOf(pl.Far.ID, count); far != part {
				p.validate[far] = append(p.validate[far], pl.Far.ID)
			}
		}

		p.route[i] = opRoute{part: part, localIdx: localIdx}
		p.sub[part] = append(p.sub[part], op)
	}

	// The coordinator always participates — an empty local prepare
	// anchors the decision record even when it owns no sub-op.
	if _, ok := p.sub[self]; !ok && p.validate[self] == nil {
		p.sub[self] = nil
	}

	order, err := topoOrder(p.involved(), deps)
	if err != nil {
		return nil, err
	}
	p.order = order
	return p, nil
}

// involved returns every partition with a sub-batch or a validate set.
func (p *batchPlan) involved() []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	add := func(id uint32) {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	for id := range p.sub {
		add(id)
	}
	for id := range p.validate {
		add(id)
	}
	return out
}

// topoOrder orders the involved partitions so every referenced creation
// prepares before its referrer. A circular cross-partition reference
// chain cannot be prepared in any order — the client must split the
// batch.
func topoOrder(parts []uint32, deps map[uint32]map[uint32]bool) ([]uint32, error) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := make(map[uint32]int, len(parts))
	var order []uint32
	var visit func(uint32) error
	visit = func(p uint32) error {
		switch state[p] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("partition: circular cross-partition references (partition %d); split the batch", p)
		}
		state[p] = grey
		for q := range deps[p] {
			if err := visit(q); err != nil {
				return err
			}
		}
		state[p] = black
		order = append(order, p)
		return nil
	}
	for _, p := range parts {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// CrossPartition reports whether a batch touches more than one
// partition — i.e. needs coordinated commit rather than the local
// single-partition fast path on partition self of count. Back references
// stay within whatever partition their target landed on; only explicit
// IDs can point off-partition. A single-partition batch is deliberately
// not the one-participant case of planBatch: it would log a P and a D
// where the local commit logs one C (disk_bytes_per_write), and a prepare
// runs in a transaction of its own, never inside a session's open one.
func CrossPartition(batch []wire.Request, self uint32, count int) bool {
	if count <= 1 {
		return false
	}
	off := func(e wire.EntityRef) bool { return e.Back == nil && wire.OwnerOf(e.ID, count) != self }
	for i := range batch {
		pl := wire.Place(&batch[i])
		if pl.Anchor != wire.AnchorNone && (off(pl.Home) || pl.Anchor == wire.AnchorEnds && off(pl.Far)) {
			return true
		}
	}
	return false
}
