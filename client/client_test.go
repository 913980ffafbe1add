// Package client_test lives outside the client package: internal/server
// (started in-process by these tests) itself imports neograph/client for
// its deprecated shim, so an internal test package would be a cycle.
package client_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"neograph"
	. "neograph/client"
	"neograph/internal/server"
)

// startServer spins up a persistent DB (real WAL, so commit LSN tokens
// and durability gates behave like production) + server and returns a
// connected client.
func startServer(t *testing.T) (*neograph.DB, *server.Server, *Client) {
	t.Helper()
	db, err := neograph.Open(neograph.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithConfig(db, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	cl, err := Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return db, srv, cl
}

func TestPingReportsProto(t *testing.T) {
	_, _, cl := startServer(t)
	if err := cl.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cl.ServerProto() < 2 {
		t.Fatalf("server proto = %d, want >= 2", cl.ServerProto())
	}
}

// frameCountingConn counts newline-delimited frames crossing the wire in
// each direction — the round-trip meter for the batching claim.
type frameCountingConn struct {
	net.Conn
	framesOut, framesIn atomic.Int64
}

func (c *frameCountingConn) Write(p []byte) (int, error) {
	c.framesOut.Add(int64(bytes.Count(p, []byte{'\n'})))
	return c.Conn.Write(p)
}

func (c *frameCountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.framesIn.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

// TestBatchOneRoundTrip is the acceptance check: a batch of N >= 8 mixed
// ops crosses the connection as exactly ONE request frame and ONE
// response frame.
func TestBatchOneRoundTrip(t *testing.T) {
	_, srv, _ := startServer(t)
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cc := &frameCountingConn{Conn: raw}
	cl := NewConn(cc)
	defer cl.Close()

	ctx := context.Background()
	// Pre-make the two nodes the mixed batch will reference.
	pre := &Batch{}
	a := pre.CreateNode([]string{"Person"}, neograph.Props{"name": neograph.String("ada")})
	bb := pre.CreateNode([]string{"Person"}, neograph.Props{"name": neograph.String("bob")})
	preRes, err := cl.RunBatch(ctx, pre)
	if err != nil {
		t.Fatal(err)
	}
	ida, _ := preRes.ID(a)
	idb, _ := preRes.ID(bb)

	cc.framesOut.Store(0)
	cc.framesIn.Store(0)
	mixed := &Batch{}
	mixed.SetNodeProp(ida, "age", neograph.Int(36))
	mixed.AddLabel(ida, "Admin")
	rel := mixed.CreateRel("KNOWS", ida, idb, neograph.Props{"since": neograph.Int(2016)})
	mixed.GetNode(ida)
	mixed.GetNode(idb)
	mixed.Neighbors(ida, "out")
	mixed.Relationships(ida, "both")
	mixed.SetNodeProp(idb, "age", neograph.Int(41))
	if mixed.Len() < 8 {
		t.Fatalf("want >= 8 mixed ops, have %d", mixed.Len())
	}
	res, err := cl.RunBatch(ctx, mixed)
	if err != nil {
		t.Fatal(err)
	}
	if got := cc.framesOut.Load(); got != 1 {
		t.Errorf("batch of %d ops used %d request frames, want 1", mixed.Len(), got)
	}
	if got := cc.framesIn.Load(); got != 1 {
		t.Errorf("batch of %d ops used %d response frames, want 1", mixed.Len(), got)
	}
	if res.Len() != mixed.Len() {
		t.Fatalf("results = %d, want %d", res.Len(), mixed.Len())
	}
	relID, err := res.ID(rel)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := cl.GetRel(ctx, relID); err != nil || r.Type != "KNOWS" {
		t.Errorf("CreateRel in batch: rel %d = %+v, %v", relID, r, err)
	}
	node, err := res.Node(3)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := node.Props["age"].AsInt(); v != 36 {
		t.Errorf("batch snapshot age = %v (ops in one batch see earlier ops)", node.Props["age"])
	}
	if res.LSN() == 0 {
		t.Error("committed batch returned no LSN token")
	}
	ids, _ := res.IDs(5)
	if len(ids) != 1 || ids[0] != idb {
		t.Errorf("Neighbors inside batch = %v, want the edge the batch created [%d]", ids, idb)
	}

	// A k-hop plan is one request too: however many hops the server walks,
	// a result that fits one chunk crosses as one frame each way.
	cc.framesOut.Store(0)
	cc.framesIn.Store(0)
	st, err := cl.Query(ctx, SeedIDs(ida).KHop("out", 2))
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for st.Next() {
		rows++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != 2 {
		t.Errorf("2-hop plan from ada streamed %d rows, want 2 (ada, bob)", rows)
	}
	if out, in := cc.framesOut.Load(), cc.framesIn.Load(); out != 1 || in != 1 {
		t.Errorf("2-hop plan used %d request and %d response frames, want 1 and 1", out, in)
	}
}

func TestBatchMidFailureAbortsAtomically(t *testing.T) {
	_, _, cl := startServer(t)
	ctx := context.Background()

	pre := &Batch{}
	pre.CreateNode([]string{"Seed"}, nil)
	preRes, err := cl.RunBatch(ctx, pre)
	if err != nil {
		t.Fatal(err)
	}
	seed, _ := preRes.ID(0)

	b := &Batch{}
	b.SetNodeProp(seed, "a", neograph.Int(1))
	b.CreateNode([]string{"Orphan"}, nil)
	b.GetNode(999999) // fails: not found
	b.SetNodeProp(seed, "b", neograph.Int(2))
	_, err = cl.RunBatch(ctx, b)
	if err == nil {
		t.Fatal("mid-batch failure did not error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a BatchError", err)
	}
	if be.Index != 2 {
		t.Errorf("failed op index = %d, want 2", be.Index)
	}
	if !errors.Is(err, neograph.ErrNotFound) {
		t.Errorf("sentinel lost across batch abort: %v", err)
	}

	// Atomicity: nothing from the batch is visible.
	n, err := cl.GetNode(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Props["a"]; ok {
		t.Error("aborted batch's first write is visible")
	}
	ids, _ := cl.NodesByLabel(ctx, "Orphan")
	if len(ids) != 0 {
		t.Errorf("aborted batch's created node visible: %v", ids)
	}
}

func TestBatchInsideExplicitTxAbortsWholeTx(t *testing.T) {
	_, _, cl := startServer(t)
	ctx := context.Background()
	if err := cl.Begin(ctx, ""); err != nil {
		t.Fatal(err)
	}
	id, err := cl.CreateNode(ctx, []string{"InTx"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{}
	b.SetNodeProp(id, "x", neograph.Int(1))
	b.GetNode(424242) // fails
	if _, err := cl.RunBatch(ctx, b); err == nil {
		t.Fatal("batch failure inside explicit tx did not error")
	}
	// The explicit transaction is gone (atomic abort): commit now fails.
	if err := cl.Commit(ctx); err == nil {
		t.Fatal("commit succeeded after batch aborted the transaction")
	}
	if _, err := cl.GetNode(ctx, id); !errors.Is(err, neograph.ErrNotFound) {
		t.Fatalf("pre-batch write of aborted tx still visible: %v", err)
	}
}

func TestBatchInsideExplicitTxStagesUntilCommit(t *testing.T) {
	_, _, cl := startServer(t)
	ctx := context.Background()
	if err := cl.Begin(ctx, ""); err != nil {
		t.Fatal(err)
	}
	b := &Batch{}
	i := b.CreateNode([]string{"Staged"}, nil)
	res, err := cl.RunBatch(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN() != 0 {
		t.Error("batch inside open tx returned a commit LSN before commit")
	}
	id, _ := res.ID(i)
	// Not yet visible to another session.
	other, err := Dial(ctx, cl.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.GetNode(ctx, id); !errors.Is(err, neograph.ErrNotFound) {
		t.Fatalf("staged batch visible before commit: %v", err)
	}
	if err := cl.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if cl.LastCommitLSN() == 0 {
		t.Error("commit returned no LSN")
	}
	if _, err := other.GetNode(ctx, id); err != nil {
		t.Fatalf("committed batch invisible: %v", err)
	}
}

func TestBatchValidation(t *testing.T) {
	_, _, cl := startServer(t)
	ctx := context.Background()
	if _, err := cl.RunBatch(ctx, &Batch{}); err == nil {
		t.Error("empty batch accepted")
	}
	b := &Batch{}
	b.SetNodeProp(1, "k", neograph.Value{}) // null value is fine to encode
	b.GetNode(1)
	// Client-side validation rejects oversized batches without a round trip.
	big := &Batch{}
	for i := 0; i < 5000; i++ {
		big.GetNode(1)
	}
	if _, err := cl.RunBatch(ctx, big); err == nil {
		t.Error("oversized batch accepted")
	}
}

// TestCancelAfterCallDoesNotPoisonNextCall is the regression test for a
// scheduling race: every CLI/pool call runs under its own context that
// is cancelled as soon as the call returns. The call's cancellation
// watcher must not observe that routine cancellation late and expire the
// connection deadline in the middle of the NEXT call (symptom: instant
// spurious "i/o timeout", a broken session, and — through the pool's
// failover retry — duplicated writes).
func TestCancelAfterCallDoesNotPoisonNextCall(t *testing.T) {
	_, _, cl := startServer(t)
	for i := 0; i < 500; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := cl.Ping(ctx)
		cancel() // immediately, like a per-command defer cancel()
		if err != nil {
			t.Fatalf("call %d failed after a routine post-call cancel: %v", i, err)
		}
		if cl.Broken() {
			t.Fatalf("session broken after %d routinely-cancelled calls", i)
		}
	}
}

// startLaggingReplica returns a client to a replica that can never catch
// up to the returned gate position (its primary is already gone), so a
// gated read blocks server-side until a deadline fires.
func startLaggingReplica(t *testing.T) (cl *Client, gate uint64) {
	t.Helper()
	ctx := context.Background()
	primary, err := neograph.Open(neograph.Options{Dir: t.TempDir(), ReplicationAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := primary.Update(0, func(tx *neograph.Tx) error {
		_, err := tx.CreateNode([]string{"Seed"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	replica, err := neograph.Open(neograph.Options{Dir: t.TempDir(), ReplicaOf: primary.ReplicationAddress()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	if err := replica.WaitApplied(primary.DurableLSN(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	gate = primary.DurableLSN() + 1 // one byte past anything shipped, ever
	primary.Close()                 // the stream is dead; the gate stays unreachable

	rsrv, err := server.NewWithConfig(replica, "127.0.0.1:0", server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The deliberately-stuck gated handler should not hold test cleanup
	// for the full default drain grace.
	rsrv.DrainGrace = 300 * time.Millisecond
	t.Cleanup(func() { rsrv.Close() })
	cl, err = Dial(ctx, rsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, gate
}

func TestContextDeadlinePropagates(t *testing.T) {
	cl, gate := startLaggingReplica(t)
	// Gate a read past anything the replica will ever apply: the server
	// blocks in WaitLSN until the request's wire deadline_ms expires
	// (well before the 10s server-side WaitLSN cap).
	cl.ReadAfter(gate)
	short, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := cl.AllNodes(short)
	if err == nil {
		t.Fatal("gated read beyond horizon succeeded")
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("deadline not propagated: read took %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v, want context.DeadlineExceeded", err)
	}
	// The server answered with a clean deadline-error frame (the conn
	// deadline carries a grace past the context deadline), so the
	// session survives the timeout.
	if cl.Broken() {
		t.Error("session broken by a server-answered deadline expiry")
	}
	cl.ReadAfter(0)
	if _, err := cl.AllNodes(context.Background()); err != nil {
		t.Errorf("session unusable after deadline expiry: %v", err)
	}
}

func TestContextCancelBreaksCall(t *testing.T) {
	cl, gate := startLaggingReplica(t)
	cl.ReadAfter(gate)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err := cl.AllNodes(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v, want context.Canceled", err)
	}
	// Mid-call cancellation leaves framing unknown: the session is broken.
	if !cl.Broken() {
		t.Error("client not marked broken after mid-call cancel")
	}
	if _, err := cl.AllNodes(context.Background()); !errors.Is(err, ErrBroken) {
		t.Errorf("broken client accepted a call: %v", err)
	}
}
