package server

import (
	"encoding/json"
	"testing"

	"neograph"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// frameJSON renders a request as one raw wire frame.
func frameJSON(t *testing.T, req wire.Request) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFrameOwnsItsTransaction: an op sent outside begin … commit is one
// transaction its frame owns — committed when the op succeeds, reads
// included, whether sent alone, in a batch or as a query, and aborted when
// it fails — while an op inside an explicit transaction leaves that
// transaction to its own commit or abort, failed op or not.
func TestFrameOwnsItsTransaction(t *testing.T) {
	// On disk: an in-memory database has no log, so no commit LSN.
	db, err := neograph.Open(neograph.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(db, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	id := seedNodes(t, db, 1)[0]
	conn := rawConn(t, srv)
	const missing = 1 << 40
	step := func(what string, req wire.Request, wantOK bool, committed, aborted uint64) *wire.Response {
		t.Helper()
		before := db.Stats()
		resp := sendRaw(t, conn, frameJSON(t, req))
		after := db.Stats()
		if resp.OK != wantOK {
			t.Fatalf("%s: ok=%v (%s), want ok=%v", what, resp.OK, resp.Error, wantOK)
		}
		if c, a := after.Committed-before.Committed, after.Aborted-before.Aborted; c != committed || a != aborted {
			t.Errorf("%s: +%d committed, +%d aborted; want +%d, +%d", what, c, a, committed, aborted)
		}
		return resp
	}

	step("a lone get_node", wire.Request{Op: wire.OpGetNode, ID: id}, true, 1, 0)
	step("a batch get_node", wire.Request{Op: wire.OpBatch, Batch: []wire.Request{{Op: wire.OpGetNode, ID: id}}}, true, 1, 0)
	step("a query", wire.Request{Op: wire.OpQuery, Plan: &wire.QueryPlan{Seed: wire.QuerySeed{All: true}}}, true, 1, 0)
	if resp := step("an auto-committed create_node", wire.Request{Op: wire.OpCreateNode}, true, 1, 0); resp.LSN == 0 {
		t.Error("an auto-committed create_node answered no commit LSN")
	}
	set := wire.Request{Op: wire.OpSetNodeProp, ID: missing, Key: "k", Value: value.EncodeValue(neograph.Int(1))}
	step("a failing auto-committed set_node_prop", set, false, 0, 1)
	// It left no transaction open: a begin succeeds.
	step("begin", wire.Request{Op: wire.OpBegin}, true, 0, 0)
	step("a failing get_node inside the transaction", wire.Request{Op: wire.OpGetNode, ID: missing}, false, 0, 0)
	step("commit", wire.Request{Op: wire.OpCommit}, true, 1, 0)
}
