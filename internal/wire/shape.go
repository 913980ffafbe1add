package wire

// Anchor names the entity that ties an op to a place in a partitioned ID
// space.
type Anchor uint8

const (
	// AnchorNone: the op runs wherever it is sent (ping, create_node,
	// session control, admin).
	AnchorNone Anchor = iota
	// AnchorNode: Request.ID names a node; its owner executes the op.
	AnchorNode
	// AnchorRel: Request.ID names a relationship; its owner executes the op.
	AnchorRel
	// AnchorEnds: create_rel — the edge lives with Request.Start's owner
	// and also touches Request.End.
	AnchorEnds
)

// String is the anchor's entity kind as routing errors name it.
func (a Anchor) String() string {
	if a == AnchorRel {
		return "rel"
	}
	return "node"
}

// Shape is what routing, batching and replica redirection need to know
// about an op. Everything else that used to keep its own op list — the
// server's write set, the batch whitelist and the four ownership
// switches — reads this table.
type Shape struct {
	// Write: a read-only replica redirects the op to its primary.
	Write bool
	// Batchable: the op may appear anywhere inside a batch or a prepare.
	// Admin ops, abort and nested batches may not; begin and commit only
	// where First and Last say.
	Batchable bool
	// First / Last: session control that may bracket a batch (never a
	// prepare) — begin only as its first sub-op, opening the session's
	// explicit transaction for the sub-ops after it (and the frames after
	// the batch); commit only as its last, committing that transaction.
	First, Last bool
	// Anchor: the entity whose owner executes the op.
	Anchor Anchor
}

// shapes has one entry per Op* constant (a test parses the constants and
// checks).
var shapes = map[string]Shape{
	OpPing:         {Batchable: true},
	OpCreateNode:   {Write: true, Batchable: true},
	OpGetNode:      {Batchable: true, Anchor: AnchorNode},
	OpSetNodeProp:  {Write: true, Batchable: true, Anchor: AnchorNode},
	OpAddLabel:     {Write: true, Batchable: true, Anchor: AnchorNode},
	OpRemoveLabel:  {Write: true, Batchable: true, Anchor: AnchorNode},
	OpDeleteNode:   {Write: true, Batchable: true, Anchor: AnchorNode},
	OpDetachDelete: {Write: true, Batchable: true, Anchor: AnchorNode},
	OpCreateRel:    {Write: true, Batchable: true, Anchor: AnchorEnds},
	OpGetRel:       {Batchable: true, Anchor: AnchorRel},
	OpSetRelProp:   {Write: true, Batchable: true, Anchor: AnchorRel},
	OpDeleteRel:    {Write: true, Batchable: true, Anchor: AnchorRel},
	OpRels:         {Batchable: true, Anchor: AnchorNode},
	OpNeighbors:    {Batchable: true, Anchor: AnchorNode},

	OpBegin: {First: true}, OpCommit: {Last: true}, OpAbort: {},
	OpBatch: {}, OpQuery: {},
	OpStats: {}, OpGC: {}, OpCheckpoint: {},
	OpReplStatus: {}, OpClusterStatus: {}, OpPromote: {},
	OpPrepare: {}, OpDecide: {}, OpTxnStatus: {},
}

// ShapeOf returns op's shape; an unknown op has the zero shape (not a
// write, not batchable, unanchored).
func ShapeOf(op string) Shape { return shapes[op] }

// OwnerOf maps an entity ID to its partition among count (0 when
// unpartitioned): IDs are allocated strided, so ownership is computable
// from the ID alone.
func OwnerOf(id uint64, count int) uint32 {
	if count <= 1 {
		return 0
	}
	return uint32(id % uint64(count))
}

// EntityRef is one entity a request names: an explicit ID or, inside a
// batch, Back — the index of the earlier sub-op that creates it.
type EntityRef struct {
	ID   uint64
	Back *int
}

// Placement is an op's shape together with the entities that place it.
type Placement struct {
	Shape
	// Home is the entity whose owner executes the op (Anchor != AnchorNone).
	Home EntityRef
	// Far is a create_rel's end node (AnchorEnds only).
	Far EntityRef
}

// Place reads a request's placement off the shape table — the one function
// that turns an op and its fields into ownership facts. The server's
// misroute check, the cross-partition test, the batch planner and the
// client router's home-partition vote all decide from its result.
func Place(r *Request) Placement {
	p := Placement{Shape: shapes[r.Op]}
	switch p.Anchor {
	case AnchorNode, AnchorRel:
		p.Home = EntityRef{r.ID, r.IDRef}
	case AnchorEnds:
		p.Home = EntityRef{r.Start, r.StartRef}
		p.Far = EntityRef{r.End, r.EndRef}
	}
	return p
}
