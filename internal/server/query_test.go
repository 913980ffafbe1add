package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"neograph"
	"neograph/internal/wire"
)

// startServerWithDB is startServer with the DB handle exposed, for tests
// that populate the graph embedded (fast) and query it over the wire.
func startServerWithDB(t *testing.T) (*neograph.DB, *Server) {
	t.Helper()
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(db, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	return db, srv
}

// seedNodes creates n labeled nodes embedded and returns their IDs.
func seedNodes(t *testing.T, db *neograph.DB, n int) []neograph.NodeID {
	t.Helper()
	ids := make([]neograph.NodeID, n)
	err := db.Update(0, func(tx *neograph.Tx) error {
		for i := range ids {
			var err error
			ids[i], err = tx.CreateNode([]string{"S"}, nil)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestQueryStreamFrames drives a multi-chunk stream at the wire level:
// full chunks with More set, a final frame with the remainder and More
// unset, every frame echoing the request's seq — and the session stays
// usable afterwards.
func TestQueryStreamFrames(t *testing.T) {
	db, srv := startServerWithDB(t)
	const n = wire.QueryChunkRows*2 + 76
	seedNodes(t, db, n)

	conn := rawConn(t, srv)
	if _, err := conn.Write([]byte(`{"op":"query","seq":7,"plan":{"seed":{"all":true}}}` + "\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	dec := json.NewDecoder(conn)
	total, frames := 0, 0
	for {
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		frames++
		if !resp.OK {
			t.Fatalf("frame %d error: %s", frames, resp.Error)
		}
		if resp.Seq != 7 {
			t.Fatalf("frame %d seq = %d, want 7", frames, resp.Seq)
		}
		total += len(resp.Rows)
		if !resp.More {
			if len(resp.Rows) != 76 {
				t.Errorf("final frame carried %d rows, want the remainder 76", len(resp.Rows))
			}
			break
		}
		if len(resp.Rows) != wire.QueryChunkRows {
			t.Errorf("chunk frame %d carried %d rows, want %d", frames, len(resp.Rows), wire.QueryChunkRows)
		}
	}
	if total != n || frames != 3 {
		t.Fatalf("stream = %d rows in %d frames, want %d in 3", total, frames, n)
	}
	// The stream ended on a frame boundary: the session serves the next
	// request normally.
	if resp := sendRaw(t, conn, `{"op":"ping","seq":8}`); !resp.OK || resp.Seq != 8 {
		t.Fatalf("session unusable after stream: %+v", resp)
	}
}

// TestQueryStreamRejectsBadPlan checks an invalid plan costs exactly one
// complete error frame (a valid zero-chunk stream) and the session
// survives.
func TestQueryStreamRejectsBadPlan(t *testing.T) {
	_, srv := startServerWithDB(t)
	conn := rawConn(t, srv)
	resp := sendRaw(t, conn, `{"op":"query","seq":3,"plan":{"seed":{"ids":[1]},"stages":[{"op":"khop","depth":0}]}}`)
	if resp.OK || resp.More || resp.Seq != 3 || !strings.Contains(resp.Error, "depth") {
		t.Fatalf("bad plan response: %+v", resp)
	}
	if resp := sendRaw(t, conn, `{"op":"ping","seq":4}`); !resp.OK {
		t.Fatalf("session dead after rejected plan: %+v", resp)
	}
}

// TestQueryStreamDrainCleanFrame is the streaming arm of the PR 5
// torn-response regression: a drain that expires while a query stream is
// in flight must terminate it with a complete, structured error frame —
// never a torn chunk. net.Pipe makes the sequencing deterministic: the
// handler blocks writing chunk 1, the test starts the drain past its
// shed point, and the next frame on the wire must be the clean error.
func TestQueryStreamDrainCleanFrame(t *testing.T) {
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	seedNodes(t, db, wire.QueryChunkRows*3)

	srv := &Server{db: db}
	sess := &session{db: db, srv: srv}
	cl, sv := net.Pipe()
	t.Cleanup(func() { cl.Close(); sv.Close() })
	done := make(chan error, 1)
	go func() {
		done <- sess.serve(sv, wire.NewConn(sv, 0), &wire.Request{
			Op: wire.OpQuery, Seq: 9,
			Plan: &wire.QueryPlan{Seed: wire.QuerySeed{All: true}},
		})
	}()

	// Wait until the handler is demonstrably mid-write of chunk 1: the
	// pipe is unbuffered, so the first byte arriving means the chunk was
	// composed and its Write is in flight. THEN expire the drain: chunk 1
	// must still arrive whole (it is the in-flight response the drain
	// grace protects), and the next chunk boundary must shed with the
	// clean error instead of emitting chunk 2.
	cl.SetReadDeadline(time.Now().Add(10 * time.Second))
	first := make([]byte, 1)
	if _, err := io.ReadFull(cl, first); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	srv.shedAt = time.Now().Add(-time.Millisecond)
	srv.mu.Unlock()
	srv.draining.Store(true)

	dec := json.NewDecoder(io.MultiReader(bytes.NewReader(first), cl))
	var chunk wire.Response
	if err := dec.Decode(&chunk); err != nil {
		t.Fatalf("chunk 1: %v", err)
	}
	if !chunk.OK || !chunk.More || len(chunk.Rows) != wire.QueryChunkRows || chunk.Seq != 9 {
		t.Fatalf("chunk 1 = ok=%v more=%v rows=%d seq=%d", chunk.OK, chunk.More, len(chunk.Rows), chunk.Seq)
	}
	var final wire.Response
	if err := dec.Decode(&final); err != nil {
		t.Fatalf("final frame torn: %v", err)
	}
	if final.OK || final.More || final.Code != wire.CodeUnavailable || final.Seq != 9 {
		t.Fatalf("final frame = ok=%v more=%v code=%q seq=%d, want clean unavailable error",
			final.OK, final.More, final.Code, final.Seq)
	}
	if err := <-done; err != nil {
		t.Fatalf("streamQuery write error: %v", err)
	}
}

// TestQueryStreamDeadlineCleanFrame: a deadline_ms budget that expires
// mid-stream ends it with a structured deadline error frame.
func TestQueryStreamDeadlineCleanFrame(t *testing.T) {
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	seedNodes(t, db, wire.QueryChunkRows*2)

	sess := &session{db: db, srv: &Server{db: db}}
	cl, sv := net.Pipe()
	t.Cleanup(func() { cl.Close(); sv.Close() })
	done := make(chan error, 1)
	go func() {
		done <- sess.serve(sv, wire.NewConn(sv, 0), &wire.Request{
			Op: wire.OpQuery, Seq: 1, DeadlineMS: 30,
			Plan: &wire.QueryPlan{Seed: wire.QuerySeed{All: true}},
		})
	}()
	// Stall past the budget while the handler blocks on chunk 1; the
	// boundary check before chunk 2 must fail the stream cleanly.
	time.Sleep(60 * time.Millisecond)
	cl.SetReadDeadline(time.Now().Add(10 * time.Second))
	dec := json.NewDecoder(cl)
	var chunk, final wire.Response
	if err := dec.Decode(&chunk); err != nil || !chunk.OK {
		t.Fatalf("chunk 1: %v %+v", err, chunk)
	}
	if err := dec.Decode(&final); err != nil {
		t.Fatalf("final frame torn: %v", err)
	}
	if final.OK || final.Code != wire.CodeDeadline {
		t.Fatalf("final frame = ok=%v code=%q, want deadline error", final.OK, final.Code)
	}
	<-done
}

// TestQueryBatchRefsServer is the batch back-reference regression: a
// node and an edge to it created in ONE batch round trip, and the
// structured abort when a reference names an op that created nothing.
func TestQueryBatchRefsServer(t *testing.T) {
	_, srv := startServerWithDB(t)
	conn := rawConn(t, srv)

	resp := sendRaw(t, conn, `{"op":"batch","seq":1,"batch":[`+
		`{"op":"create_node","labels":["A"]},`+
		`{"op":"create_node","labels":["B"]},`+
		`{"op":"create_rel","type":"KNOWS","start_ref":0,"end_ref":1},`+
		`{"op":"set_node_prop","id_ref":0,"key":"k","value":"Ag4="}]}`)
	if !resp.OK {
		t.Fatalf("ref batch failed: %s", resp.Error)
	}
	a, b, rel := resp.Results[0].ID, resp.Results[1].ID, resp.Results[2].ID
	// The edge really connects the two batch-created nodes.
	check := sendRaw(t, conn, fmt.Sprintf(`{"op":"get_rel","seq":2,"id":%d}`, rel))
	if !check.OK || check.Rel.Start != a || check.Rel.End != b {
		t.Fatalf("rel = %+v, want %d->%d", check.Rel, a, b)
	}

	// A reference to an op that created no entity aborts the batch with
	// the failing op named.
	resp = sendRaw(t, conn, `{"op":"batch","seq":3,"batch":[`+
		`{"op":"ping"},`+
		`{"op":"set_node_prop","id_ref":0,"key":"k","value":"AgI="}]}`)
	if resp.OK || resp.FailedOp == nil || *resp.FailedOp != 1 ||
		!strings.Contains(resp.Error, "did not create an entity") {
		t.Fatalf("non-creating ref response: %+v", resp)
	}

	// Out-of-range references are rejected at validation, before any op
	// runs.
	resp = sendRaw(t, conn, `{"op":"batch","seq":4,"batch":[`+
		`{"op":"create_rel","type":"R","start_ref":0,"end_ref":0}]}`)
	if resp.OK || !strings.Contains(resp.Error, "out of range") {
		t.Fatalf("self-ref response: %+v", resp)
	}

	// Refs outside a batch are meaningless and rejected.
	resp = sendRaw(t, conn, `{"op":"set_node_prop","seq":5,"id_ref":0,"key":"k","value":"AgI="}`)
	if resp.OK || !strings.Contains(resp.Error, "inside a batch") {
		t.Fatalf("top-level ref response: %+v", resp)
	}
}

// TestQueryReplicaServes checks the query op is replica-eligible: a
// read-only plan streams from a replica session, gated on the primary's
// commit LSN (read-your-writes).
func TestQueryReplicaServes(t *testing.T) {
	primary, replica, _, _ := startReplicatedPair(t)
	if _, err := primary.CreateNode(ctx, []string{"Q"}, nil); err != nil {
		t.Fatal(err)
	}
	token := primary.LastCommitLSN()

	conn := rawConnAddr(t, replica.RemoteAddr().String())
	resp := sendRaw(t, conn, fmt.Sprintf(
		`{"op":"query","seq":1,"wait_lsn":%d,"plan":{"seed":{"label":"Q"},"stages":[{"op":"count"}]}}`, token))
	if !resp.OK || resp.More {
		t.Fatalf("replica query: %+v", resp)
	}
	if len(resp.Rows) != 1 || resp.Rows[0].Count != 1 {
		t.Fatalf("replica query rows = %+v, want one count row of 1", resp.Rows)
	}
}
