// Package client is the public SDK for a neograph server fleet. It
// redesigns the remote surface around the paper's core argument — graph
// workloads die by round trips, so whole operations must be submitted to
// the engine, not dribbled over the network:
//
//   - every call takes a context.Context; deadlines propagate to the
//     server as a wire-level per-request time budget (deadline_ms) and
//     cancellation tears the call down locally,
//   - a Batch submits many operations in ONE round trip, executed
//     server-side inside a single transaction (atomic: any failed op
//     aborts the batch),
//   - an explicit transaction (Begin … Commit) is write-behind — see
//     below,
//   - OpenRouter is the one way to open a fleet: a Pool per replication
//     group — one group (Group) for an unpartitioned primary + replicas —
//     that routes reads to replicas (least-lag or round-robin) and writes
//     to the primary, carries read-your-writes tokens automatically, and
//     re-discovers the primary after a failover promotion; every session
//     to an address, here and in the server's own components, is borrowed
//     from a Sessions cache.
//
// # Explicit transactions
//
// A transaction's writes are private until it commits, and its snapshot
// may be any time before its first read (paper §3/§4: the start timestamp
// only has to precede what the transaction reads). So Begin sends
// nothing, and the calls that return no data — SetNodeProp, SetRelProp,
// AddLabel, RemoveLabel, DeleteNode, DetachDeleteNode, DeleteRel — are
// queued and return nil. The next call that needs an answer — a read,
// CreateNode, CreateRel, RunBatch, Commit, or Flush — sends the begin, the
// queue and itself as ONE batch frame (wire protocol generation 3 lets a
// begin be a batch's first sub-op and a commit its last): a transfer is
// [begin,get] · get · [set,set,set,commit], three round trips, not seven.
// A later snapshot is still the paper's snapshot: the server takes it when
// the begin arrives, with the first read. A Query streams and cannot be a
// batch sub-op; it flushes in a frame of its own first.
//
// When an error surfaces: a deferred call's failure comes out of the call
// that flushed it, as a *BatchError counting the calls deferred since the
// last flush in call order, its Unwrap keeping the engine's sentinel
// (errors.Is(err, neograph.ErrWriteConflict) is what a retry loop tests).
// The server has then aborted the whole transaction — as it has when the
// flushing call itself failed inside that frame (a GetNode of a missing
// node sent as [begin,get]; sent alone, as the frame of its own it is once
// the server holds the transaction and nothing is deferred, the same
// failure leaves the transaction open). So after an error ask InTx: false
// means nothing of the transaction can commit, and every further call is
// refused, unsent, until an Abort (which costs no frame), a Commit (which
// fails) or the next Begin acknowledges it — what was meant for the transaction never runs
// auto-committed outside it. An error that names no failed op
// (ErrOverloaded, a spent deadline) means the server ran nothing of the
// frame: transaction and queue are as they were and the call can be
// repeated. Flush is for a caller that needs a lock held, a snapshot taken
// or a conflict known now rather than at the next read.
//
// An explicit transaction is single-partition whatever it did first — the
// server refuses a cross-partition batch inside one; RunBatch outside a
// transaction is the cross-partition call.
//
// A Client is one server session (at most one open explicit transaction)
// and is not safe for concurrent use — open one per worker, or let a
// Router manage a fleet of them.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"neograph"
	"neograph/internal/trace"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// ErrBroken reports a client whose connection state is unknown — a call
// was torn down mid-frame (context cancellation or transport error), so
// request/response framing can no longer be trusted. Dial a fresh client.
var ErrBroken = errors.New("client: connection broken")

// ErrUnavailable reports a server-answered "cannot serve this right
// now" — the server is draining, or a gated wait timed out. Another
// replica (or a retry) may well serve the same request; the Pool treats
// it as a routing signal, not a final answer.
var ErrUnavailable = errors.New("client: server unavailable")

// ErrOverloaded reports a server-answered admission rejection: the
// server's in-flight or queued-bytes budget is exhausted. The request
// had no effect and the session survives — back off and retry (the Pool
// does both automatically).
var ErrOverloaded = errors.New("client: server overloaded")

// deadlineGrace is how long past a context deadline the connection stays
// readable, giving the server's clean deadline-error frame (flushed
// right at the budget) time to arrive so the session survives a timeout.
const deadlineGrace = 500 * time.Millisecond

// Client is a typed session with one neograph server.
type Client struct {
	conn net.Conn
	wc   *wire.Conn // frames over conn
	// lastLSN is the commit position of the newest write acknowledged on
	// this client — the token for read-your-writes against a replica.
	lastLSN uint64
	// readAfter, when set, is attached to every request as WaitLSN.
	readAfter uint64
	// proto is the server's protocol generation, learned from Ping.
	proto  int
	broken bool
	// tx is the session's explicit transaction (see tx.go). Pools refuse
	// to recycle a session mid-transaction — the next borrower's
	// "auto-committed" writes would silently stage into the leftover
	// transaction and never commit.
	tx txState
	// tracer, when set, head-samples a root span for every call whose
	// context does not already carry one (a Pool's spans do); sampled
	// calls ship their trace context in the request's trace field.
	tracer *trace.Tracer
	// seq numbers the requests of this session; the server echoes it in
	// every response frame, catching request/response mispairing.
	seq uint64
	// span, when set, is the parent every call on this session records
	// under. The Pool installs it for the duration of a borrow so a
	// routed operation's retries and failover land in one trace even
	// though fn closes over the caller's own context.
	span *trace.Span
	// home is the free-list a session borrowed from a Sessions cache goes
	// back to; nil for one dialled directly.
	home *sessionList
}

// Dial connects to a server. The context bounds the dial only; calls
// carry their own contexts.
func Dial(ctx context.Context, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, &transportError{"dial", err}
	}
	return NewConn(conn), nil
}

// NewConn wraps an established connection (custom transports, tests).
func NewConn(conn net.Conn) *Client {
	return &Client{conn: conn, wc: wire.NewConn(conn, 0)}
}

// Close closes the connection (aborting any open transaction server-side).
func (c *Client) Close() error { return c.conn.Close() }

// Broken reports whether the session died mid-call and must be redialed.
func (c *Client) Broken() bool { return c.broken }

// RemoteAddr returns the server's address.
func (c *Client) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// ServerProto returns the server's wire protocol generation (learned
// from the first Ping; zero before that, or for a pre-versioning server).
func (c *Client) ServerProto() int { return c.proto }

// LastCommitLSN returns the commit position of the newest write this
// client has had acknowledged (explicit commit or auto-committed write).
// Hand it to another client's ReadAfter to read your writes from a
// replica.
func (c *Client) LastCommitLSN() uint64 { return c.lastLSN }

// ReadAfter gates every subsequent request on the server having reached
// pos: a replica waits until it has applied the primary's log that far
// (read-your-writes), a primary until the position is durable. Zero
// clears the gate.
func (c *Client) ReadAfter(pos uint64) { c.readAfter = pos }

// SetTracer enables client-side tracing: calls are head-sampled at the
// tracer's rate, and a sampled call's trace context travels with the
// request so the server (and through it the engine, WAL and replicas)
// records spans under the same trace ID. Calls whose context already
// carries a span (see trace.ContextWith) join that trace instead of
// starting one.
func (c *Client) SetTracer(t *trace.Tracer) { c.tracer = t }

// call is one request in flight: its span, and the watcher that poisons
// the connection if the context is cancelled before the reply — or, for a
// query, the whole stream — has been read.
type call struct {
	span *trace.Span
	stop func() bool
	ran  chan struct{}
}

// end joins the cancellation watcher and finishes the span. The watcher is
// JOINED, not just stopped — left running past its call, it could observe
// the (by then routinely cancelled) context late and poison the connection
// mid-way through the NEXT call.
func (k *call) end() {
	if k.stop != nil && !k.stop() {
		<-k.ran
	}
	k.span.Finish()
}

// send stamps and writes one request under ctx — the send half every call
// shares: the read-your-writes gate, the correlation seq, the trace
// context, and the context's deadline as both the request's wire
// deadline_ms budget and the connection I/O deadline; cancellation
// poisons the connection (the client is Broken afterwards — framing is
// unrecoverable mid-call). On success the caller reads the reply and then
// ends the returned call.
func (c *Client) send(ctx context.Context, req *wire.Request) (call, error) {
	if c.broken {
		return call{}, ErrBroken
	}
	if err := ctx.Err(); err != nil {
		return call{}, fmt.Errorf("client: %w", err)
	}
	if req.WaitLSN == 0 {
		req.WaitLSN = c.readAfter
	}
	c.seq++
	req.Seq = c.seq
	// Tracing: join the span carried by ctx, else the session's
	// pool-installed one, else head-sample a new root. A nil span is
	// free and ships no context (nor is its name ever built).
	sp := trace.SpanFrom(ctx)
	if sp == nil {
		sp = c.span
	}
	if sp != nil {
		sp = sp.Child("client." + req.Op)
	} else if c.tracer != nil {
		sp = c.tracer.StartRoot("client." + req.Op)
	}
	if sp != nil {
		sc := sp.Context()
		req.Trace = &wire.TraceContext{TraceID: sc.TraceID, SpanID: sc.SpanID}
	}
	k := call{span: sp}
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			k.end()
			return call{}, fmt.Errorf("client: %w", context.DeadlineExceeded)
		}
		ms := rem.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.DeadlineMS = ms
		// The I/O deadline gets a grace past the context deadline: the
		// server fails the request AT the budget and flushes a clean
		// deadline-error frame moments later — receiving it keeps the
		// session usable (and still surfaces context.DeadlineExceeded),
		// where expiring the conn at exactly dl would break the session
		// on every timeout.
		c.conn.SetDeadline(dl.Add(deadlineGrace))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	// Cancellation support: expire the I/O deadline when the context is
	// cancelled, failing the blocked read/write immediately. A deadline
	// expiry also fires Done, but the conn deadline already covers it
	// (with grace, so the server's clean error frame can still land).
	if ctx.Done() != nil {
		ran := make(chan struct{})
		k.ran = ran
		k.stop = context.AfterFunc(ctx, func() {
			defer close(ran)
			if errors.Is(ctx.Err(), context.Canceled) {
				c.conn.SetDeadline(time.Unix(1, 0))
			}
		})
	}
	if err := c.wc.WriteRequest(req); err != nil {
		c.broken = true
		sp.Set("error", "send failed")
		k.end()
		return call{}, c.callErr(ctx, "send", err)
	}
	return k, nil
}

// recv reads the next response frame of the call that sent seq (sp is its
// span), enforcing the seq echo (wire v2; a mismatch means the session's
// framing slipped — treated like any mid-frame tear). The response is
// returned even on a server-reported error so callers can inspect its
// details.
func (c *Client) recv(ctx context.Context, sp *trace.Span, seq uint64) (*wire.Response, error) {
	var resp wire.Response
	if err := c.wc.ReadResponse(&resp); err != nil {
		c.broken = true
		sp.Set("error", "recv failed")
		return nil, c.callErr(ctx, "recv", err)
	}
	if resp.Seq != 0 && resp.Seq != seq {
		c.broken = true
		return nil, fmt.Errorf("client: response seq %d for request seq %d: %w", resp.Seq, seq, ErrBroken)
	}
	if !resp.OK {
		return &resp, remoteError(resp.Code, resp.Error)
	}
	return &resp, nil
}

// Do sends one raw request and reads its one response under ctx. The
// response is returned even on a server-reported error — mapped to its
// sentinel — so callers can inspect the details (a batch's failed index,
// the error code). Every typed call is a Do; it is exported for in-tree
// components that speak ops the typed SDK does not cover (the 2PC
// coordinator's prepare, decide and txn_status): the argument types are
// internal.
func (c *Client) Do(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	k, err := c.send(ctx, req)
	if err != nil {
		return nil, err
	}
	defer k.end()
	resp, err := c.recv(ctx, k.span, req.Seq)
	if err == nil && resp.LSN != 0 {
		c.lastLSN = resp.LSN
	}
	return resp, err
}

// transportError is a connection-level failure (dial refused, reset, EOF,
// a deadline or cancellation tearing the call down mid-frame) as opposed
// to a server-answered error.
type transportError struct {
	stage string // "dial", "send", "recv"
	err   error
}

func (e *transportError) Error() string { return "client: " + e.stage + ": " + e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// callErr attributes a transport failure to the context when the context
// ended — the deadline/cancel is the cause, the I/O error the symptom.
func (c *Client) callErr(ctx context.Context, stage string, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		err = cerr
	} else if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		// The connection deadline can fire a beat before the context's own
		// timer goroutine marks it done; attribute by clock, not by that
		// timer race.
		err = context.DeadlineExceeded
	}
	return &transportError{stage, err}
}

// remoteError maps a server-answered failure back to its sentinel by the
// response's code, so errors.Is works across the wire. An error without a
// code (bad arguments, unknown ops) stays plain text.
func remoteError(code, msg string) error {
	var sentinel error
	switch code {
	case wire.CodeDeadline:
		sentinel = context.DeadlineExceeded
	case wire.CodeUnavailable:
		sentinel = ErrUnavailable
	case wire.CodeOverloaded:
		sentinel = ErrOverloaded
	default:
		sentinel = wire.Sentinel(code)
	}
	if sentinel == nil {
		return errors.New(msg)
	}
	return fmt.Errorf("%w (remote: %s)", sentinel, msg)
}

// decodeNode converts a wire node snapshot.
func decodeNode(n *wire.NodeJSON) (neograph.Node, error) {
	if n == nil {
		return neograph.Node{}, errors.New("client: response missing node")
	}
	props, err := value.ParseMap(n.Props)
	if err != nil {
		return neograph.Node{}, err
	}
	return neograph.Node{ID: n.ID, Labels: n.Labels, Props: props}, nil
}

// decodeRel converts a wire relationship snapshot.
func decodeRel(r *wire.RelJSON) (neograph.Relationship, error) {
	if r == nil {
		return neograph.Relationship{}, errors.New("client: response missing rel")
	}
	props, err := value.ParseMap(r.Props)
	if err != nil {
		return neograph.Relationship{}, err
	}
	return neograph.Relationship{
		ID: r.ID, Type: r.Type, Start: r.Start, End: r.End, Props: props,
	}, nil
}

// decodeRels converts a wire relationship list.
func decodeRels(rs []wire.RelJSON) ([]neograph.Relationship, error) {
	out := make([]neograph.Relationship, 0, len(rs))
	for i := range rs {
		rel, err := decodeRel(&rs[i])
		if err != nil {
			return nil, err
		}
		out = append(out, rel)
	}
	return out, nil
}

// Ping checks liveness and learns the server's protocol generation.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.Do(ctx, &wire.Request{Op: wire.OpPing})
	if err != nil {
		return err
	}
	c.proto = resp.Proto
	return nil
}

// CreateNode creates a node and returns its ID.
func (c *Client) CreateNode(ctx context.Context, labels []string, props neograph.Props) (neograph.NodeID, error) {
	resp, err := c.ask(ctx, &wire.Request{Op: wire.OpCreateNode, Labels: labels, Props: wire.Props(props)})
	if err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// GetNode fetches a node snapshot.
func (c *Client) GetNode(ctx context.Context, id neograph.NodeID) (neograph.Node, error) {
	resp, err := c.ask(ctx, &wire.Request{Op: wire.OpGetNode, ID: id})
	if err != nil {
		return neograph.Node{}, err
	}
	return decodeNode(resp.Node)
}

// SetNodeProp sets one node property.
func (c *Client) SetNodeProp(ctx context.Context, id neograph.NodeID, key string, v neograph.Value) error {
	return c.later(ctx, &wire.Request{Op: wire.OpSetNodeProp, ID: id, Key: key, Value: value.EncodeValue(v)})
}

// AddLabel adds a label to a node.
func (c *Client) AddLabel(ctx context.Context, id neograph.NodeID, label string) error {
	return c.later(ctx, &wire.Request{Op: wire.OpAddLabel, ID: id, Label: label})
}

// RemoveLabel removes a label from a node.
func (c *Client) RemoveLabel(ctx context.Context, id neograph.NodeID, label string) error {
	return c.later(ctx, &wire.Request{Op: wire.OpRemoveLabel, ID: id, Label: label})
}

// DeleteNode deletes a relationship-free node.
func (c *Client) DeleteNode(ctx context.Context, id neograph.NodeID) error {
	return c.later(ctx, &wire.Request{Op: wire.OpDeleteNode, ID: id})
}

// DetachDeleteNode deletes a node and its relationships.
func (c *Client) DetachDeleteNode(ctx context.Context, id neograph.NodeID) error {
	return c.later(ctx, &wire.Request{Op: wire.OpDetachDelete, ID: id})
}

// CreateRel creates a relationship and returns its ID.
func (c *Client) CreateRel(ctx context.Context, relType string, start, end neograph.NodeID, props neograph.Props) (neograph.RelID, error) {
	resp, err := c.ask(ctx, &wire.Request{Op: wire.OpCreateRel, Type: relType, Start: start, End: end, Props: wire.Props(props)})
	if err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// GetRel fetches a relationship snapshot.
func (c *Client) GetRel(ctx context.Context, id neograph.RelID) (neograph.Relationship, error) {
	resp, err := c.ask(ctx, &wire.Request{Op: wire.OpGetRel, ID: id})
	if err != nil {
		return neograph.Relationship{}, err
	}
	return decodeRel(resp.Rel)
}

// SetRelProp sets one relationship property.
func (c *Client) SetRelProp(ctx context.Context, id neograph.RelID, key string, v neograph.Value) error {
	return c.later(ctx, &wire.Request{Op: wire.OpSetRelProp, ID: id, Key: key, Value: value.EncodeValue(v)})
}

// DeleteRel deletes a relationship.
func (c *Client) DeleteRel(ctx context.Context, id neograph.RelID) error {
	return c.later(ctx, &wire.Request{Op: wire.OpDeleteRel, ID: id})
}

// Relationships lists a node's relationships ("out", "in", "both").
func (c *Client) Relationships(ctx context.Context, id neograph.NodeID, dir string, types ...string) ([]neograph.Relationship, error) {
	resp, err := c.ask(ctx, &wire.Request{Op: wire.OpRels, ID: id, Dir: dir, Types: types})
	if err != nil {
		return nil, err
	}
	return decodeRels(resp.Rels)
}

// Neighbors lists adjacent node IDs.
func (c *Client) Neighbors(ctx context.Context, id neograph.NodeID, dir string, types ...string) ([]neograph.NodeID, error) {
	resp, err := c.ask(ctx, &wire.Request{Op: wire.OpNeighbors, ID: id, Dir: dir, Types: types})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// NodesByLabel lists node IDs carrying a label.
func (c *Client) NodesByLabel(ctx context.Context, label string) ([]neograph.NodeID, error) {
	return c.scan(ctx, SeedLabel(label))
}

// NodesByProperty lists node IDs whose property key equals v.
func (c *Client) NodesByProperty(ctx context.Context, key string, v neograph.Value) ([]neograph.NodeID, error) {
	return c.scan(ctx, SeedProperty(key, v))
}

// AllNodes lists every visible node ID.
func (c *Client) AllNodes(ctx context.Context) ([]neograph.NodeID, error) {
	return c.scan(ctx, SeedAll())
}

// scan runs a seed-only plan and collects its node IDs. A scan is a query:
// its result streams in chunks, and inside an explicit transaction it runs
// in it, after a flush of what the transaction has deferred.
func (c *Client) scan(ctx context.Context, q *Query) ([]neograph.NodeID, error) {
	st, err := c.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var ids []neograph.NodeID
	for st.Next() {
		ids = append(ids, st.Row().ID)
	}
	return ids, st.Err()
}

// info runs an admin op and returns its JSON report, decoded into v when
// v is non-nil.
func (c *Client) info(ctx context.Context, req *wire.Request, v any) (json.RawMessage, error) {
	resp, err := c.Do(ctx, req)
	if err != nil {
		return nil, err
	}
	if v != nil {
		if err := json.Unmarshal(resp.Info, v); err != nil {
			return nil, fmt.Errorf("client: %s report: %w", req.Op, err)
		}
	}
	return resp.Info, nil
}

// Stats returns the server's engine counters as raw JSON.
func (c *Client) Stats(ctx context.Context) (json.RawMessage, error) {
	return c.info(ctx, &wire.Request{Op: wire.OpStats}, nil)
}

// GC triggers a garbage collection cycle, returning the report as JSON.
func (c *Client) GC(ctx context.Context) (json.RawMessage, error) {
	return c.info(ctx, &wire.Request{Op: wire.OpGC}, nil)
}

// Checkpoint triggers a checkpoint.
func (c *Client) Checkpoint(ctx context.Context) error {
	_, err := c.Do(ctx, &wire.Request{Op: wire.OpCheckpoint})
	return err
}

// ReplStatus returns the server's replication role and progress — the
// topology probe the Pool routes by.
func (c *Client) ReplStatus(ctx context.Context) (st neograph.ReplStatus, err error) {
	_, err = c.info(ctx, &wire.Request{Op: wire.OpReplStatus}, &st)
	return st, err
}

// ClusterStatus returns the node's cluster self-view: role, epoch, log
// positions, and the membership its controller announces. Servers
// without a cluster controller fail the op — callers fall back to
// ReplStatus.
func (c *Client) ClusterStatus(ctx context.Context) (ci wire.ClusterInfo, err error) {
	_, err = c.info(ctx, &wire.Request{Op: wire.OpClusterStatus}, &ci)
	return ci, err
}

// Promote asks a replica server to promote itself to a writable primary
// (failover), optionally starting a WAL shipper on addr so surviving
// replicas can re-point. Returns the post-promotion replication status.
func (c *Client) Promote(ctx context.Context, addr string) (st neograph.ReplStatus, err error) {
	_, err = c.info(ctx, &wire.Request{Op: wire.OpPromote, Addr: addr}, &st)
	return st, err
}
