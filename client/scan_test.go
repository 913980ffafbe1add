package client_test

import (
	"context"
	"net"
	"reflect"
	"strings"
	"testing"

	"neograph"
	. "neograph/client"
	"neograph/internal/wire"
)

// TestScansStreamAsQueries: a scan is a query plan's seed. It goes out as
// one request frame and comes back in QueryChunkRows chunks, with the IDs
// an embedded read of the same scan returns, in its order; the fully read
// stream leaves the session usable.
func TestScansStreamAsQueries(t *testing.T) {
	db, srv, _ := startServer(t)
	const n = 1300 // three chunks of wire.QueryChunkRows
	if err := db.Update(0, func(tx *neograph.Tx) error {
		for i := 0; i < n; i++ {
			if _, err := tx.CreateNode([]string{"Bulk"}, nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cc := &frameCountingConn{Conn: raw}
	cl := NewConn(cc)
	defer cl.Close()
	ctx := context.Background()

	for _, sc := range []struct {
		name     string
		remote   func() ([]neograph.NodeID, error)
		embedded func(tx *neograph.Tx) ([]neograph.NodeID, error)
	}{
		{"AllNodes", func() ([]neograph.NodeID, error) { return cl.AllNodes(ctx) }, (*neograph.Tx).AllNodes},
		{"NodesByLabel", func() ([]neograph.NodeID, error) { return cl.NodesByLabel(ctx, "Bulk") },
			func(tx *neograph.Tx) ([]neograph.NodeID, error) { return tx.NodesByLabel("Bulk") }},
	} {
		var want []neograph.NodeID
		if err := db.View(func(tx *neograph.Tx) (err error) {
			want, err = sc.embedded(tx)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		cc.framesOut.Store(0)
		cc.framesIn.Store(0)
		got, err := sc.remote()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if len(got) != n || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d IDs, want the embedded scan's %d in its order", sc.name, len(got), len(want))
		}
		if out, in := cc.framesOut.Load(), cc.framesIn.Load(); out != 1 || in < 3 {
			t.Errorf("%s: %d request and %d response frames, want 1 and at least 3", sc.name, out, in)
		}
		if cl.Broken() {
			t.Fatalf("%s: the session is broken after a fully read scan", sc.name)
		}
	}
}

// TestScanInTxReadsItsOwnWrites: inside an explicit transaction a scan runs
// in it, after a flush of the deferred calls — two request frames, the
// flush and then the query — and sees the transaction's uncommitted node.
func TestScanInTxReadsItsOwnWrites(t *testing.T) {
	_, srv, other := startServer(t)
	cl, rec := dialRecorded(t, srv)
	ctx := context.Background()
	if err := cl.Begin(ctx, ""); err != nil {
		t.Fatal(err)
	}
	// A creation answers with its ID, so it is sent at once; the label on
	// it is deferred.
	id, err := cl.CreateNode(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AddLabel(ctx, id, "Fresh"); err != nil {
		t.Fatal(err)
	}
	rec.take()
	ids, err := cl.NodesByLabel(ctx, "Fresh")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Errorf("NodesByLabel in the transaction = %v, want its own uncommitted [%d]", ids, id)
	}
	if got, want := rec.take(), []string{"[add_label]", "query"}; !reflect.DeepEqual(got, want) {
		t.Errorf("request frames %v, want %v", got, want)
	}
	if ids, err := other.NodesByLabel(ctx, "Fresh"); err != nil || len(ids) != 0 {
		t.Errorf("another session sees %v, %v before the commit", ids, err)
	}
	if err := cl.Abort(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestScanOpRefusedInBatch: the scan ops are gone from the wire, so a raw
// batch that names one is refused whole by wire.ValidateBatch — no sub-op
// runs, the failure names none, and the session survives.
func TestScanOpRefusedInBatch(t *testing.T) {
	_, _, cl := startServer(t)
	ctx := context.Background()
	resp, err := cl.Do(ctx, &wire.Request{Op: wire.OpBatch, Batch: []wire.Request{
		{Op: wire.OpCreateNode, Labels: []string{"Never"}},
		{Op: "nodes_by_label", Label: "Never"},
	}})
	if err == nil || !strings.Contains(err.Error(), `op "nodes_by_label" not allowed in a batch`) {
		t.Fatalf("batch naming nodes_by_label: %v, want the validation refusal", err)
	}
	if resp == nil || resp.FailedOp != nil {
		t.Fatalf("the refusal names a failed sub-op: %+v", resp)
	}
	if ids, err := cl.NodesByLabel(ctx, "Never"); err != nil || len(ids) != 0 {
		t.Fatalf("the refused batch's create_node ran: %v, %v", ids, err)
	}
}
