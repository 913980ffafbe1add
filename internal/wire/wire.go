// Package wire defines the client/server protocol: newline-delimited JSON
// request/response pairs over TCP. Graph databases execute whole queries
// engine-side to avoid chatty client round trips (paper §1); accordingly
// the protocol exposes per-node traversal operations (relationships,
// neighbors) beside point reads, and every scan (by label, by property,
// of all nodes) is a query plan's seed, streamed in chunks.
//
// A property value or map travels as the bytes internal/value's binary
// codec writes for it — the bytes the WAL and the store hold — base64 in
// the JSON frame.
package wire

import (
	"encoding/json"
	"fmt"

	"neograph/internal/value"
)

// ProtocolVersion is the wire protocol generation this package speaks.
// Version 2 added the batch op and per-request deadlines; both ride in
// optional JSON fields, so v1 clients keep working against a v2 server
// unchanged (a v2 client can discover the server's generation from the
// ping response's proto field). Request correlation (seq) and trace
// propagation (trace) are likewise optional fields within v2. Version 3
// added no field, only a placement rule: begin may be a batch's first
// sub-op and commit its last (Shape.First / Shape.Last), so a session
// transaction's frames can carry its begin and its commit — a v2 server
// refuses such a batch whole, before running any of it. Version 4 carries
// values and property maps as internal/value's binary encoding instead of
// tagged JSON objects, and reads no other form: a v3 peer's tagged object
// fails the frame decode, and a v4 base64 string lands in a v3 peer's
// encoding/json fallback, which refuses it. Version 5 dropped the scan ops
// (nodes_by_label, nodes_by_prop, all_nodes): a scan is a query plan's seed.
const ProtocolVersion = 5

// MaxBatchOps bounds one batch request. A batch runs as a single
// server-side transaction; an unbounded one would let a client pin a
// transaction (and its memory) arbitrarily long.
const MaxBatchOps = 4096

// Op names.
const (
	OpPing         = "ping"
	OpBegin        = "begin"
	OpCommit       = "commit"
	OpAbort        = "abort"
	OpCreateNode   = "create_node"
	OpGetNode      = "get_node"
	OpSetNodeProp  = "set_node_prop"
	OpAddLabel     = "add_label"
	OpRemoveLabel  = "remove_label"
	OpDeleteNode   = "delete_node"
	OpDetachDelete = "detach_delete_node"
	OpCreateRel    = "create_rel"
	OpGetRel       = "get_rel"
	OpSetRelProp   = "set_rel_prop"
	OpDeleteRel    = "delete_rel"
	OpRels         = "relationships"
	OpNeighbors    = "neighbors"
	OpStats        = "stats"
	OpGC           = "gc"
	OpCheckpoint   = "checkpoint"
	OpReplStatus   = "repl_status"
	// OpClusterStatus reports the node's cluster-controller view (role,
	// epoch, log positions, known members) as a ClusterInfo in
	// Response.Info. Servers without a controller fail the op; callers
	// fall back to repl_status.
	OpClusterStatus = "cluster_status"
	// OpPromote turns a replica server into a writable primary (failover).
	// Request.Addr optionally names the replication address the promoted
	// node starts shipping on — typically the dead primary's.
	OpPromote = "promote"
	// OpBatch submits Request.Batch — many data ops — in ONE round trip.
	// The server executes the whole batch inside a single transaction
	// (the session's open one, or its own auto-committed one) and replies
	// with one Response carrying per-op Results. Atomic: the first failed
	// op aborts the entire batch (Response.FailedOp names it). The first
	// sub-op may be a begin — the transaction it opens outlives the batch —
	// and the last a commit, whose LSN the Response carries.
	OpBatch = "batch"
	// OpPrepare is phase one of a cross-partition commit: execute
	// Request.Batch in a fresh transaction and park it prepared under
	// global transaction ID Request.TxnID, holding its write guards until
	// the decision. Request.CoordPart names the coordinating partition
	// (where an in-doubt participant asks after a crash) and
	// Request.ValidateNodes lists locally-owned nodes that must stay alive
	// for the global transaction (remote edge endpoints). The response
	// carries per-op Results (created IDs) and the prepare record's LSN.
	OpPrepare = "prepare"
	// OpDecide is phase two: commit or abort (Request.Commit) the prepared
	// transaction Request.TxnID. On the coordinating partition itself,
	// Request.Participants lists the other partitions involved — its
	// durable decision record is the global commit point and the repush
	// obligation survives restart until every participant acknowledges.
	// A participant's OK response IS its acknowledgement.
	OpDecide = "decide"
	// OpTxnStatus asks a (coordinating) partition what became of global
	// transaction Request.TxnID: Response.State is "committed",
	// "aborted", "pending", or "unknown" (presumed abort). In-doubt
	// participants use it to resolve prepares orphaned by a crash.
	OpTxnStatus = "txn_status"
)

// Request is one client command.
type Request struct {
	Op        string   `json:"op"`
	Isolation string   `json:"iso,omitempty"` // "si" | "rc" for begin
	ID        uint64   `json:"id,omitempty"`
	Labels    []string `json:"labels,omitempty"`
	Label     string   `json:"label,omitempty"`
	Key       string   `json:"key,omitempty"`
	Value     []byte   `json:"value,omitempty"` // value.AppendValue bytes
	Props     []byte   `json:"props,omitempty"` // value.AppendMap bytes, absent when empty
	Type      string   `json:"type,omitempty"`
	Types     []string `json:"types,omitempty"`
	Start     uint64   `json:"start,omitempty"`
	End       uint64   `json:"end,omitempty"`
	Dir       string   `json:"dir,omitempty"` // "out" | "in" | "both"
	// IDRef / StartRef / EndRef are batch-local back references ("$n"):
	// inside a batch, the value is the INDEX of an earlier sub-op whose
	// created entity ID substitutes for ID / Start / End — so one round
	// trip can create a node and an edge to it without the client ever
	// seeing the node's ID. Only valid on batch sub-ops, only pointing
	// backwards, and only at sub-ops that created an entity.
	IDRef    *int `json:"id_ref,omitempty"`
	StartRef *int `json:"start_ref,omitempty"`
	EndRef   *int `json:"end_ref,omitempty"`
	// Plan is the query op's execution plan.
	Plan *QueryPlan `json:"plan,omitempty"`
	// Addr is the replication address a promoted node should ship on
	// (promote op only).
	Addr string `json:"addr,omitempty"`
	// WaitLSN gates a read on the log position: a replica waits until it
	// has applied the primary's log to this position (read-your-writes —
	// pass the LSN a write response returned); a primary waits until the
	// position is durable (opt-in gate against acting on unsynced
	// commits). Zero means no gating.
	WaitLSN uint64 `json:"wait_lsn,omitempty"`
	// DeadlineMS is the client's remaining time budget for this request
	// in milliseconds (relative, so clock skew is irrelevant). The server
	// bounds its own waits (WaitLSN gating, response writes) by it and
	// fails the request once the budget is spent. Zero means no deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Batch holds the sub-operations of an OpBatch request.
	Batch []Request `json:"batch,omitempty"`
	// Seq is an opaque client-chosen correlation number. The server
	// echoes it verbatim in the response frame — error and overload
	// frames included — so pipelined requests stay correlatable even
	// when a reply carries none of the request's entity fields. Zero
	// means the client did not ask for correlation.
	Seq uint64 `json:"seq,omitempty"`
	// Trace carries the request's distributed-tracing context; the
	// server opens its per-op span as a child of Trace.SpanID and echoes
	// Trace.TraceID in the response. Absent on unsampled requests.
	Trace *TraceContext `json:"trace,omitempty"`
	// TxnID is the global transaction ID of a prepare/decide/txn_status
	// request (coordinator partition in the high bits, per-coordinator
	// sequence below — unique cluster-wide without coordination).
	TxnID uint64 `json:"txn_id,omitempty"`
	// CoordPart names the coordinating partition of a prepare request.
	CoordPart uint32 `json:"coord_part,omitempty"`
	// Commit is the decide request's verdict (pointer: absent ≠ abort).
	Commit *bool `json:"commit,omitempty"`
	// ValidateNodes lists locally-owned node IDs a prepare must pin alive
	// until the decision (edge endpoints referenced from other partitions).
	ValidateNodes []uint64 `json:"validate_nodes,omitempty"`
	// Participants lists the non-coordinating partitions of a decide
	// request issued on the coordinating partition itself.
	Participants []uint32 `json:"participants,omitempty"`
}

// TraceContext is a trace's wire identity: which trace this request
// belongs to and which client span is the parent of the server's work.
type TraceContext struct {
	TraceID string `json:"tid"`
	SpanID  string `json:"sid,omitempty"`
}

// ValidateBatch checks the structural rules of an OpBatch request: it is
// a batch, it is non-empty, and its sub-ops pass ValidateOps — except that
// a begin may come first and a commit last.
func ValidateBatch(req *Request) error {
	if req.Op != OpBatch {
		return fmt.Errorf("wire: not a batch request (op %q)", req.Op)
	}
	if len(req.Batch) == 0 {
		return fmt.Errorf("wire: empty batch")
	}
	return validateOps(req.Batch, true)
}

// ValidateOps checks the sub-ops of a prepare (and, through ValidateBatch,
// of a batch): at most MaxBatchOps of them, every one batchable (no
// nesting, no session control), no per-sub-op WaitLSN/DeadlineMS (gating
// applies to the batch as a whole, on the outer request), and every
// batch-local back reference pointing strictly backwards.
func ValidateOps(ops []Request) error { return validateOps(ops, false) }

// validateOps is ValidateOps; with bracketed, a begin is also accepted as
// the first sub-op and a commit as the last.
func validateOps(ops []Request, bracketed bool) error {
	if len(ops) > MaxBatchOps {
		return fmt.Errorf("wire: batch of %d ops exceeds limit %d", len(ops), MaxBatchOps)
	}
	for i := range ops {
		sub := &ops[i]
		switch sh := ShapeOf(sub.Op); {
		case sh.Batchable:
		case bracketed && sh.First:
			if i != 0 {
				return fmt.Errorf("wire: %s may only be a batch's first sub-op (found at %d)", sub.Op, i)
			}
		case bracketed && sh.Last:
			if i != len(ops)-1 {
				return fmt.Errorf("wire: %s may only be a batch's last sub-op (found at %d of %d)", sub.Op, i, len(ops))
			}
		default:
			return fmt.Errorf("wire: op %q not allowed in a batch (sub-op %d)", sub.Op, i)
		}
		if sub.WaitLSN != 0 || sub.DeadlineMS != 0 {
			return fmt.Errorf("wire: wait_lsn/deadline_ms must be set on the batch, not sub-op %d", i)
		}
		for _, r := range []struct {
			name string
			ref  *int
		}{{"id_ref", sub.IDRef}, {"start_ref", sub.StartRef}, {"end_ref", sub.EndRef}} {
			if r.ref == nil {
				continue
			}
			if *r.ref < 0 || *r.ref >= i {
				return fmt.Errorf("wire: sub-op %d: %s %d out of range (must name an earlier op, 0..%d)", i, r.name, *r.ref, i-1)
			}
		}
	}
	return nil
}

// ClusterMember names one node of the cluster as the controller knows
// it: its client-facing address (what pools dial) and, when known, its
// replication address and node ID.
type ClusterMember struct {
	Addr     string `json:"addr"`
	ReplAddr string `json:"repl_addr,omitempty"`
	NodeID   uint64 `json:"node_id,omitempty"`
	// PartitionID is the hash partition this member serves. Members are
	// identified by (NodeID, PartitionID): the same node ID never serves
	// two partitions, but distinct partitions have overlapping node-ID
	// spaces, so dedup must use the pair.
	PartitionID uint32 `json:"partition_id,omitempty"`
}

// PartitionGroup is one partition's replication group in a PartitionMap:
// the partition ID and the client-facing addresses of its members (the
// pool probes them to find the group's current primary).
type PartitionGroup struct {
	ID    uint32   `json:"id"`
	Addrs []string `json:"addrs"`
}

// PartitionMap is the versioned partition topology served inside
// cluster_status: node IDs hash to partition id%Count, and Groups names
// each partition's replication group. Clients adopt the map with the
// highest Version they have seen.
type PartitionMap struct {
	Version uint64           `json:"version"`
	Count   int              `json:"count"`
	Groups  []PartitionGroup `json:"groups"`
}

// ClusterInfo is the cluster_status payload: one node's self-view plus
// the membership it announces. client.Pool merges Members into its host
// set so the fleet topology propagates without config pushes, and the
// cluster controllers use the role/epoch/LSN fields as election votes.
type ClusterInfo struct {
	NodeID uint64 `json:"node_id"`
	// Addr is this node's client-facing address; ReplAddr its WAL
	// shipping address (primaries) or the address it would ship on if
	// promoted (replicas).
	Addr     string `json:"addr,omitempty"`
	ReplAddr string `json:"repl_addr,omitempty"`
	// Role is "primary", "replica", or "standalone".
	Role       string `json:"role"`
	Epoch      uint64 `json:"epoch"`
	DurableLSN uint64 `json:"durable_lsn"`
	AppliedLSN uint64 `json:"applied_lsn"`
	// Connected reports a replica's live stream to its primary;
	// PrimaryReplAddr is the replication address it follows.
	Connected       bool   `json:"connected,omitempty"`
	PrimaryReplAddr string `json:"primary_repl_addr,omitempty"`
	// Reseeding is set while the node is rebuilding itself from a
	// snapshot (it votes in no election meanwhile).
	Reseeding bool `json:"reseeding,omitempty"`
	// Members is the full membership this node was configured with
	// (itself included).
	Members []ClusterMember `json:"members,omitempty"`
	// PartitionID is the hash partition this node serves (0 when
	// unpartitioned — the pair with Partitions disambiguates).
	PartitionID uint32 `json:"partition_id,omitempty"`
	// Partitions is the partition topology this node was configured
	// with; absent on unpartitioned deployments.
	Partitions *PartitionMap `json:"partitions,omitempty"`
}

// NodeJSON is a node snapshot on the wire.
type NodeJSON struct {
	ID     uint64   `json:"id"`
	Labels []string `json:"labels,omitempty"`
	Props  []byte   `json:"props,omitempty"`
}

// RelJSON is a relationship snapshot on the wire.
type RelJSON struct {
	ID    uint64 `json:"id"`
	Type  string `json:"type"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	Props []byte `json:"props,omitempty"`
}

// Props is m as a Props field carries it: value.AppendMap's bytes, or
// none — an absent field, which value.ParseMap reads as the empty map —
// when m is empty.
func Props(m value.Map) []byte {
	if len(m) == 0 {
		return nil
	}
	return value.AppendMap(nil, m)
}

// Response is the server's reply.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code classifies the failure (see the Code* constants): availability,
	// deadline, overload, or the engine sentinel the error wraps; empty for
	// errors with no class (bad arguments, unknown ops).
	Code string          `json:"code,omitempty"`
	ID   uint64          `json:"id,omitempty"`
	Node *NodeJSON       `json:"node,omitempty"`
	Rel  *RelJSON        `json:"rel,omitempty"`
	Rels []RelJSON       `json:"rels,omitempty"`
	IDs  []uint64        `json:"ids,omitempty"`
	Info json.RawMessage `json:"info,omitempty"` // stats / gc / repl reports
	// LSN is the commit record's end position, returned by commit and by
	// auto-committed writes — the token for read-your-writes gating
	// (Request.WaitLSN) on replicas and for durable-read gating.
	LSN uint64 `json:"lsn,omitempty"`
	// Proto is the server's wire protocol generation, reported on ping so
	// clients can detect feature support (batch needs >= 2, a begin or
	// commit inside one >= 3).
	Proto int `json:"proto,omitempty"`
	// Results holds the per-op responses of a successful batch, in
	// submission order.
	Results []Response `json:"results,omitempty"`
	// FailedOp names the sub-op whose failure aborted a batch (the
	// top-level Error is that op's error).
	FailedOp *int `json:"failed_op,omitempty"`
	// Seq echoes the request's correlation number — on every frame,
	// error and overload frames included, and on every chunk of a
	// streaming response.
	Seq uint64 `json:"seq,omitempty"`
	// More marks an intermediate frame of a streaming response (query
	// op): further frames for the same request follow on this session.
	// The stream's final frame has More unset — it may still carry
	// trailing rows — or is an error frame.
	More bool `json:"more,omitempty"`
	// Rows carries one chunk of a streaming query result (at most
	// QueryChunkRows per frame).
	Rows []QueryRow `json:"rows,omitempty"`
	// TraceID echoes the request's trace ID so a client can tie the
	// reply (and the server's /debug/traces entry) back to its span.
	TraceID string `json:"trace_id,omitempty"`
	// State answers a txn_status request: "committed", "aborted",
	// "pending", or "unknown" (presumed abort).
	State string `json:"state,omitempty"`
}
