package server

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/wire"
)

// ---- graceful drain (Close must never tear a response mid-frame) ----

// TestCloseDrainsInFlightResponse is the torn-response regression test:
// a handler blocked in WaitLSN gating when Close begins must still
// deliver its complete, successful response once the gate opens — the
// old Close hard-closed the connection and cut the frame.
func TestCloseDrainsInFlightResponse(t *testing.T) {
	pdb, err := neograph.Open(neograph.Options{Dir: t.TempDir(), ReplicationAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer pdb.Close()
	if err := pdb.Update(0, func(tx *neograph.Tx) error {
		_, err := tx.CreateNode([]string{"Seed"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rdb, err := neograph.Open(neograph.Options{Dir: t.TempDir(), ReplicaOf: pdb.ReplicationAddress()})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.WaitApplied(pdb.DurableLSN(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	rsrv, err := NewWithConfig(rdb, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()

	// Gate one byte past the replicated horizon: unreachable until the
	// primary commits again.
	gate := pdb.DurableLSN() + 1
	cl, err := client.Dial(ctx, rsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.ReadAfter(gate)

	type result struct {
		ids []neograph.NodeID
		err error
	}
	resc := make(chan result, 1)
	go func() {
		ids, err := cl.AllNodes(ctx) // blocks server-side on the gate
		resc <- result{ids, err}
	}()
	time.Sleep(150 * time.Millisecond) // handler is now parked in the gate

	closed := make(chan error, 1)
	go func() { closed <- rsrv.Close() }()
	time.Sleep(150 * time.Millisecond) // drain has begun, handler still parked

	// Open the gate: the commit replicates, the handler finishes and must
	// flush its full response even though the server is draining.
	if err := pdb.Update(0, func(tx *neograph.Tx) error {
		_, err := tx.CreateNode([]string{"Late"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-resc:
		if r.err != nil {
			t.Fatalf("in-flight response torn by Close: %v", r.err)
		}
		if len(r.ids) != 2 {
			t.Fatalf("in-flight response ids = %v, want 2 nodes", r.ids)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight response never arrived")
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after handlers drained")
	}
}

// TestCloseShedsGatedWaiters: a handler parked on an unreachable gate
// must not hold Close for the full WaitLSN timeout — the drain-aware
// gate sheds it promptly with a complete error response.
func TestCloseShedsGatedWaiters(t *testing.T) {
	pdb, err := neograph.Open(neograph.Options{Dir: t.TempDir(), ReplicationAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := pdb.Update(0, func(tx *neograph.Tx) error {
		_, err := tx.CreateNode(nil, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rdb, err := neograph.Open(neograph.Options{Dir: t.TempDir(), ReplicaOf: pdb.ReplicationAddress()})
	if err != nil {
		t.Fatal(err)
	}
	defer rdb.Close()
	if err := rdb.WaitApplied(pdb.DurableLSN(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	gate := pdb.DurableLSN() + 1
	pdb.Close() // gate is now unreachable forever

	rsrv, err := NewWithConfig(rdb, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	rsrv.DrainGrace = 500 * time.Millisecond
	cl, err := client.Dial(ctx, rsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.ReadAfter(gate)
	errc := make(chan error, 1)
	go func() {
		_, err := cl.AllNodes(ctx)
		errc <- err
	}()
	time.Sleep(150 * time.Millisecond)

	t0 := time.Now()
	if err := rsrv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > 3*time.Second {
		t.Fatalf("Close held %v by a gated waiter (want prompt shed)", elapsed)
	}
	// The shed waiter received a complete error response, not a torn frame.
	err = <-errc
	if err == nil {
		t.Fatal("gated read succeeded past an unreachable gate")
	}
	if !strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("shed waiter got %v, want a well-formed shutting-down error", err)
	}
}

// TestCloseHardClosesAfterGrace: a handler stuck past DrainGrace (a
// session mid-request that never completes) must not block Close forever.
func TestCloseHardClosesAfterGrace(t *testing.T) {
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := NewWithConfig(db, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.DrainGrace = 300 * time.Millisecond
	// A half-written request parks the decoder mid-frame; the session is
	// neither idle nor producing a response.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"op":"pi`)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("Close blocked %v on a wedged session", elapsed)
	}
}

// ---- batch wire op: protocol-level error paths ----

// sendRaw writes one raw JSON frame and decodes one response.
func sendRaw(t *testing.T, conn net.Conn, frame string) *wire.Response {
	t.Helper()
	if _, err := conn.Write([]byte(frame + "\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	dec := json.NewDecoder(conn)
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("decode response to %q: %v", frame, err)
	}
	return &resp
}

func TestBatchMalformedRejectedSessionSurvives(t *testing.T) {
	srv, _ := startServer(t)
	conn := rawConn(t, srv)

	for _, bad := range []struct{ name, frame string }{
		{"empty", `{"op":"batch"}`},
		{"nested", `{"op":"batch","batch":[{"op":"batch","batch":[{"op":"ping"}]}]}`},
		{"session-control", `{"op":"batch","batch":[{"op":"abort"}]}`},
		{"begin-not-first", `{"op":"batch","batch":[{"op":"ping"},{"op":"begin"}]}`},
		{"commit-not-last", `{"op":"batch","batch":[{"op":"commit"},{"op":"ping"}]}`},
		{"admin", `{"op":"batch","batch":[{"op":"promote"}]}`},
		{"per-op-gate", `{"op":"batch","batch":[{"op":"ping","wait_lsn":5}]}`},
		{"unknown-sub-op", `{"op":"batch","batch":[{"op":"no_such_op"}]}`},
	} {
		resp := sendRaw(t, conn, bad.frame)
		if resp.OK {
			t.Errorf("%s batch accepted", bad.name)
		}
	}
	// The same session still serves good requests — a bad batch is an
	// error response, not a hangup.
	if resp := sendRaw(t, conn, `{"op":"ping"}`); !resp.OK {
		t.Fatalf("session dead after rejected batches: %s", resp.Error)
	}
}

func TestBatchOversizedRejected(t *testing.T) {
	srv, _ := startServer(t)
	conn := rawConn(t, srv)
	var sb strings.Builder
	sb.WriteString(`{"op":"batch","batch":[`)
	for i := 0; i <= wire.MaxBatchOps; i++ { // one past the limit
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"op":"ping"}`)
	}
	sb.WriteString(`]}`)
	resp := sendRaw(t, conn, sb.String())
	if resp.OK {
		t.Fatal("oversized batch accepted")
	}
	if !strings.Contains(resp.Error, "exceeds limit") {
		t.Errorf("oversized batch error = %q", resp.Error)
	}
	if resp := sendRaw(t, conn, `{"op":"ping"}`); !resp.OK {
		t.Fatalf("session dead after oversized batch: %s", resp.Error)
	}
}

// rawConnAddr dials an address directly for protocol-level abuse when
// only a client (not the *Server) is in hand.
func rawConnAddr(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestBatchOnReplicaRejectsWrites(t *testing.T) {
	_, replica, _, _ := startReplicatedPair(t)
	conn := rawConnAddr(t, replica.RemoteAddr().String())
	resp := sendRaw(t, conn,
		`{"op":"batch","batch":[{"op":"get_node","id":0},{"op":"create_node"}]}`)
	if resp.OK {
		t.Fatal("replica accepted a batch containing a write")
	}
	if !strings.Contains(resp.Error, "read-only") && !strings.Contains(resp.Error, "primary") {
		t.Errorf("replica batch rejection = %q, want a redirect error", resp.Error)
	}
}

// TestBatchCommitLSNGatesReplicaRead: the single LSN a committed batch
// returns is a valid read-your-writes token on a replica.
func TestBatchCommitLSNGatesReplicaRead(t *testing.T) {
	primary, replica, _, _ := startReplicatedPair(t)
	conn := rawConnAddr(t, primary.RemoteAddr().String())
	resp := sendRaw(t, conn,
		`{"op":"batch","batch":[{"op":"create_node","labels":["B"]},{"op":"create_node","labels":["B"]}]}`)
	if !resp.OK {
		t.Fatalf("batch failed: %s", resp.Error)
	}
	if resp.LSN == 0 {
		t.Fatal("batch returned no commit LSN")
	}
	if len(resp.Results) != 2 {
		t.Fatalf("batch results = %d", len(resp.Results))
	}
	replica.ReadAfter(resp.LSN)
	ids, err := replica.NodesByLabel(ctx, "B")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("replica saw %d batch nodes, want 2", len(ids))
	}
}
