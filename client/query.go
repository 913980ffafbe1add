package client

import (
	"context"
	"time"

	"neograph"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// Query builds a server-side query plan: a seed set and a pipeline of
// stages the server executes against ONE MVCC snapshot, streaming the
// result back in chunks. Build with a Seed* constructor, chain stages,
// then run with Client.Query or Pool.Query:
//
//	q := client.SeedLabel("Person").KHop("out", 3).Limit(100)
//	st, err := c.Query(ctx, q)
//	for st.Next() { use(st.Row()) }
//	err = st.Err()
//
// Plan construction never fails eagerly; an invalid combination surfaces
// from Query.
type Query struct {
	plan wire.QueryPlan
}

// SeedIDs starts a plan from explicit node IDs.
func SeedIDs(ids ...neograph.NodeID) *Query {
	return &Query{plan: wire.QueryPlan{Seed: wire.QuerySeed{IDs: ids}}}
}

// SeedLabel starts a plan from every node carrying label.
func SeedLabel(label string) *Query {
	return &Query{plan: wire.QueryPlan{Seed: wire.QuerySeed{Label: label}}}
}

// SeedProperty starts a plan from every node whose property key equals v.
func SeedProperty(key string, v neograph.Value) *Query {
	return &Query{plan: wire.QueryPlan{Seed: wire.QuerySeed{Key: key, Value: value.EncodeValue(v)}}}
}

// SeedAll starts a plan from every visible node.
func SeedAll() *Query {
	return &Query{plan: wire.QueryPlan{Seed: wire.QuerySeed{All: true}}}
}

func (q *Query) stage(st wire.QueryStage) *Query {
	q.plan.Stages = append(q.plan.Stages, st)
	return q
}

// Expand replaces the row set with its deduplicated one-hop neighborhood
// ("out", "in", "both"; empty = both), optionally restricted to
// relationship types.
func (q *Query) Expand(dir string, types ...string) *Query {
	return q.stage(wire.QueryStage{Op: wire.StageExpand, Dir: dir, Types: types})
}

// KHop streams the breadth-first neighborhood within depth hops of the
// seed rows — every node once, with its discovery depth (seeds at 0).
func (q *Query) KHop(dir string, depth int, types ...string) *Query {
	return q.stage(wire.QueryStage{Op: wire.StageKHop, Dir: dir, Depth: depth, Types: types})
}

// ShortestPath emits a minimum-hop path from the plan's single seed node
// to end, in order; each row carries the relationship that reached it.
// Must be the plan's only stage.
func (q *Query) ShortestPath(end neograph.NodeID, dir string, types ...string) *Query {
	return q.stage(wire.QueryStage{Op: wire.StageShortestPath, End: end, Dir: dir, Types: types})
}

// PageRank ranks the whole visible graph and emits the top n rows (0 =
// all) with their scores. Zero damping/iterations select the server
// defaults. Must be the plan's only stage (seed with SeedAll).
func (q *Query) PageRank(damping float64, iterations, n int, types ...string) *Query {
	return q.stage(wire.QueryStage{Op: wire.StagePageRank,
		Damping: damping, Iterations: iterations, N: n, Types: types})
}

// FilterLabel keeps rows whose node carries label.
func (q *Query) FilterLabel(label string) *Query {
	return q.stage(wire.QueryStage{Op: wire.StageFilterLabel, Label: label})
}

// WhereEq keeps rows whose node property key equals v.
func (q *Query) WhereEq(key string, v neograph.Value) *Query {
	return q.stage(wire.QueryStage{Op: wire.StageFilterEq, Key: key, Value: value.EncodeValue(v)})
}

// WhereLt keeps rows whose node property key is strictly less than v.
func (q *Query) WhereLt(key string, v neograph.Value) *Query {
	return q.stage(wire.QueryStage{Op: wire.StageFilterLt, Key: key, Value: value.EncodeValue(v)})
}

// Limit stops the stream after n rows.
func (q *Query) Limit(n int) *Query {
	return q.stage(wire.QueryStage{Op: wire.StageLimit, N: n})
}

// Count reduces the stream to one row carrying the row count. Must be
// the last stage.
func (q *Query) Count() *Query {
	return q.stage(wire.QueryStage{Op: wire.StageCount})
}

// QueryRow is one streamed result row. Which fields are meaningful
// depends on the plan's last stage: traversals fill Depth, shortest-path
// rows carry the relationship that reached the node, PageRank fills
// Score, Count() fills only Count.
type QueryRow struct {
	ID    neograph.NodeID
	Depth int
	Rel   neograph.RelID
	Score float64
	Count uint64
}

// QueryStream iterates a streaming query result:
//
//	for st.Next() { use(st.Row()) }
//	if err := st.Err(); err != nil { ... }
//
// Rows arrive in server chunks, so iteration overlaps the server's own
// traversal — a million-row result costs chunk-sized memory on both
// ends. The stream must be fully consumed or Closed; abandoning it
// mid-way leaves frames in flight, so Close then marks the session
// broken (a Pool redials transparently). Cancelling the call's context
// tears the stream down the same way it does a unary call.
type QueryStream struct {
	c   *Client
	ctx context.Context
	seq uint64
	// call is the in-flight request: its cancellation watcher lives until
	// the stream ends, not just until the first frame.
	call call

	rows  []wire.QueryRow
	pos   int
	cur   QueryRow
	final bool // final frame (More unset) received; no more I/O
	done  bool // transport released (watcher joined, span finished)
	err   error
}

// Query submits a plan for server-side execution and returns the result
// stream. Plan validation errors surface here (the server rejects the
// plan in its first — and only — frame); execution errors surface from
// the stream's Err. The session serves one stream at a time: finish or
// Close the stream before the next call on this client. Inside an explicit
// transaction the query runs in it, after a flush of what it has deferred.
//
// The context governs the WHOLE stream: its deadline becomes the wire
// budget and the connection I/O deadline, and cancellation poisons the
// connection exactly as for a unary call.
func (c *Client) Query(ctx context.Context, q *Query) (*QueryStream, error) {
	// A stream is not a batch sub-op: what the transaction has deferred
	// goes first, in a frame of its own, so the query reads it.
	if err := c.Flush(ctx); err != nil {
		return nil, err
	}
	req := &wire.Request{Op: wire.OpQuery, Plan: &q.plan}
	k, err := c.send(ctx, req)
	if err != nil {
		return nil, err
	}
	st := &QueryStream{c: c, ctx: ctx, seq: req.Seq, call: k}
	// Decode the first frame eagerly so a rejected plan fails the call
	// itself, not the first Next.
	if err := st.fetchFrame(); err != nil {
		return nil, err
	}
	return st, nil
}

// fetchFrame reads one response frame into the row buffer; an error frame
// (mapped to its sentinel) or a transport failure ends the stream.
func (st *QueryStream) fetchFrame() error {
	resp, err := st.c.recv(st.ctx, st.call.span, st.seq)
	if err != nil {
		st.fail(err)
		return err
	}
	st.rows, st.pos = resp.Rows, 0
	if !resp.More {
		st.final = true
		st.release() // last frame read: the connection is quiet again
	}
	return nil
}

// fail records the stream's terminal error and releases the transport.
func (st *QueryStream) fail(err error) {
	st.err = err
	st.final = true
	st.release()
}

// release joins the cancellation watcher, restores the connection
// deadline and finishes the span. Idempotent.
func (st *QueryStream) release() {
	if st.done {
		return
	}
	st.done = true
	st.call.end()
	if !st.c.broken {
		st.c.conn.SetDeadline(time.Time{})
	}
}

// Next advances to the next row, fetching frames as needed. It returns
// false at the end of the stream or on error — check Err afterwards.
func (st *QueryStream) Next() bool {
	for {
		if st.err != nil {
			return false
		}
		if st.pos < len(st.rows) {
			r := st.rows[st.pos]
			st.pos++
			st.cur = QueryRow{ID: r.ID, Depth: r.Depth, Rel: r.Rel, Score: r.Score, Count: r.Count}
			return true
		}
		if st.final {
			return false
		}
		if st.fetchFrame() != nil {
			return false
		}
	}
}

// Row returns the row Next advanced to.
func (st *QueryStream) Row() QueryRow { return st.cur }

// Err returns the stream's terminal error: nil after a complete,
// successful stream.
func (st *QueryStream) Err() error { return st.err }

// Close releases the stream. Closing before the final frame arrived
// abandons frames in flight, so the session is marked broken (framing
// can no longer be trusted); a fully consumed stream closes for free.
func (st *QueryStream) Close() error {
	if !st.final {
		st.c.broken = true
	}
	st.release()
	return st.err
}

// Query runs a streaming query on the replica fleet: the plan is
// read-only, so it routes like any read — the causality token's newest
// commit LSN gates the chosen replica (read-your-writes), a replica that
// dies mid-stream breaks that session and the pool retries fn with a
// fresh stream on the next candidate, the primary last. fn must
// therefore be restartable: it may observe a partial stream, then run
// again from the top on another host.
func (p *Pool) Query(ctx context.Context, token string, q *Query, fn func(*QueryStream) error) error {
	return p.Read(ctx, token, func(c *Client) error {
		st, err := c.Query(ctx, q)
		if err != nil {
			return err
		}
		defer st.Close()
		if err := fn(st); err != nil {
			return err
		}
		return st.Err()
	})
}
