package server

import (
	"fmt"
	"net"
	"time"

	"neograph"
	"neograph/internal/query"
	"neograph/internal/wire"
)

// streamQuery executes a query plan and streams its result as chunked
// response frames. The whole plan runs inside ONE transaction — the
// session's open one, or a read transaction owned by the query — so
// every stage sees a single MVCC snapshot (the paper's §1 argument: a
// path that exists when the traversal starts cannot vanish under it).
//
// Streaming contract (wire.OpQuery): at most wire.QueryChunkRows rows
// buffer server-side before a chunk frame (OK, More set) flushes, so a
// million-row result costs chunk-sized memory on both ends; the final
// frame has More unset and may carry trailing rows. Pipeline errors,
// spent deadlines, and server drain all end the stream with a clean,
// complete error frame — never a torn chunk. Every frame echoes the
// request's Seq and TraceID (session.writeFrame). serve owns the request's
// span and deadline; the returned error is a frame-write failure.
func (sess *session) streamQuery(conn net.Conn, wc *wire.Conn, req *wire.Request) error {
	s := sess.srv
	writeFrame := func(resp *wire.Response) error { return sess.writeFrame(conn, wc, req, resp) }
	// failStream ends the stream with a final error frame; the client has
	// a frame boundary and a structured code, not a torn chunk.
	failStream := func(err error) error {
		resp := fail(err)
		sess.span.Set("error", resp.Error)
		return writeFrame(resp)
	}

	if err := sess.checkDeadline(); err != nil {
		return failStream(err)
	}
	if req.WaitLSN > 0 {
		if err := sess.waitGate(req.WaitLSN); err != nil {
			return failStream(err)
		}
	}

	tx := sess.tx
	if tx == nil {
		tx = sess.db.Begin()
		tx.SetTraceSpan(sess.span)
		defer tx.Abort()
	}
	p, err := query.Compile(tx, req.Plan)
	if err != nil {
		return failStream(err)
	}

	buf := make([]wire.QueryRow, 0, wire.QueryChunkRows)
	var rows, chunks int
	for {
		row, ok, err := p.Next()
		if err != nil {
			return failStream(err)
		}
		if !ok {
			break
		}
		buf = append(buf, row.WireRow())
		rows++
		if len(buf) < wire.QueryChunkRows {
			continue
		}
		// Chunk boundary: the stream's cancellation points. A spent
		// deadline or a drain past its shed point ends the stream with a
		// clean error frame mid-result rather than running to completion.
		if err := sess.checkDeadline(); err != nil {
			return failStream(err)
		}
		if shedAt, draining := s.shedDeadline(); draining && !time.Now().Before(shedAt) {
			return failStream(errShuttingDown)
		}
		if err := writeFrame(&wire.Response{OK: true, More: true, Rows: buf}); err != nil {
			return err
		}
		chunks++
		buf = buf[:0]
	}
	sess.span.Set("rows", fmt.Sprint(rows))
	sess.span.Set("chunks", fmt.Sprint(chunks+1))
	return writeFrame(&wire.Response{OK: true, Rows: buf})
}

// resolveBatchRefs substitutes a sub-op's $n back references with the
// IDs created by earlier sub-ops of the same batch. ValidateOps has
// already bounded the indexes; what remains is the execution-time rule
// that the referenced op actually created an entity. Returns the request
// to dispatch (a resolved shallow copy when refs are present).
func resolveBatchRefs(sub *wire.Request, i int, ids []neograph.NodeID, hasID []bool) (*wire.Request, error) {
	if sub.IDRef == nil && sub.StartRef == nil && sub.EndRef == nil {
		return sub, nil
	}
	r := *sub
	for _, ref := range []struct {
		name string
		src  *int
		dst  *uint64
	}{
		{"id_ref", sub.IDRef, &r.ID},
		{"start_ref", sub.StartRef, &r.Start},
		{"end_ref", sub.EndRef, &r.End},
	} {
		if ref.src == nil {
			continue
		}
		j := *ref.src
		if j < 0 || j >= i || !hasID[j] {
			return nil, fmt.Errorf("server: %s $%d: op %d did not create an entity", ref.name, j, j)
		}
		*ref.dst = ids[j]
	}
	return &r, nil
}
