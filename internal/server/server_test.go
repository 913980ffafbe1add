package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"neograph"
	"neograph/client"
)

// ctx is the context every SDK call in this package's tests runs under.
var ctx = context.Background()

// startServer spins up an in-memory DB + server and returns a connected
// client.
func startServer(t *testing.T) (*Server, *client.Client) {
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
	cl, err := client.Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestPing(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

// kinds holds a value of every kind, and the edges of each: what a
// property must survive bit for bit from the client through the frame, the
// server and the engine and back.
var kinds = neograph.Props{
	"min":       neograph.Int(math.MinInt64),
	"max":       neograph.Int(math.MaxInt64),
	"2^53+1":    neograph.Int(1<<53 + 1),
	"nan":       neograph.Float(math.Float64frombits(0x7ff8000000000001)),
	"-0":        neograph.Float(math.Copysign(0, -1)),
	"+inf":      neograph.Float(math.Inf(1)),
	"-inf":      neograph.Float(math.Inf(-1)),
	"temp":      neograph.Float(36.6),
	"name":      neograph.String("héllo"),
	"not utf-8": neograph.String("\xff\xfe"),
	"nil bytes": neograph.Bytes(nil),
	"raw":       neograph.Bytes([]byte{0, 255}),
	"tags":      neograph.List(neograph.Int(1), neograph.List(neograph.String("x"), neograph.Null)),
	"yes":       neograph.Bool(true),
	"no":        neograph.Bool(false),
}

// sameProps fails unless got holds exactly want's keys, each with the same
// bits.
func sameProps(t *testing.T, what string, got, want neograph.Props) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d properties, want %d: %v", what, len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %q = %v, want %v", what, k, got[k], v)
		}
	}
}

func TestAutoCommitCRUD(t *testing.T) {
	_, cl := startServer(t)
	props := kinds.Clone()
	props["age"] = neograph.Int(36)
	id, err := cl.CreateNode(ctx, []string{"Person"}, props)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cl.GetNode(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.Labels, []string{"Person"}) {
		t.Errorf("labels = %v", n.Labels)
	}
	sameProps(t, "created node", n.Props, props)

	// Every kind set one property at a time, then found by its value:
	// through the property lookup, a query seeded by it and a filter_eq.
	other, err := cl.CreateNode(ctx, nil, neograph.Props{})
	if err != nil {
		t.Fatal(err)
	}
	count := func(q *client.Query) uint64 {
		t.Helper()
		st, err := cl.Query(ctx, q.Count())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if !st.Next() {
			t.Fatalf("no count row: %v", st.Err())
		}
		return st.Row().Count
	}
	for k, v := range kinds {
		if err := cl.SetNodeProp(ctx, other, k, v); err != nil {
			t.Fatal(err)
		}
		ids, err := cl.NodesByProperty(ctx, k, v)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(ids)
		if !slices.Equal(ids, []neograph.NodeID{id, other}) {
			t.Errorf("NodesByProperty(%q, %v) = %v, want [%d %d]", k, v, ids, id, other)
		}
		if c := count(client.SeedProperty(k, v)); c != 2 {
			t.Errorf("a query seeded by %q = %v counts %d rows, want 2", k, v, c)
		}
		if c := count(client.SeedIDs(id, other).WhereEq(k, v)); c != 2 {
			t.Errorf("filter_eq %q = %v keeps %d rows, want 2", k, v, c)
		}
	}
	n, err = cl.GetNode(ctx, other)
	if err != nil {
		t.Fatal(err)
	}
	sameProps(t, "SetNodeProp", n.Props, kinds)

	rel, err := cl.CreateRel(ctx, "R", id, other, kinds)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cl.GetRel(ctx, rel)
	if err != nil {
		t.Fatal(err)
	}
	sameProps(t, "relationship", r.Props, kinds)
	rels, err := cl.Relationships(ctx, id, "out")
	if err != nil || len(rels) != 1 {
		t.Fatalf("relationships = %v, %v", rels, err)
	}
	sameProps(t, "listed relationship", rels[0].Props, kinds)
	if err := cl.DetachDeleteNode(ctx, other); err != nil {
		t.Fatal(err)
	}

	// An empty map is no properties at all.
	bare, err := cl.CreateNode(ctx, nil, neograph.Props{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cl.GetNode(ctx, bare); err != nil || len(n.Props) != 0 {
		t.Errorf("a node created with an empty map = %v, %v", n.Props, err)
	}

	if err := cl.SetNodeProp(ctx, id, "age", neograph.Int(37)); err != nil {
		t.Fatal(err)
	}
	n, _ = cl.GetNode(ctx, id)
	if v, _ := n.Props["age"].AsInt(); v != 37 {
		t.Errorf("age after set = %v", n.Props["age"])
	}
	if err := cl.AddLabel(ctx, id, "Admin"); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveLabel(ctx, id, "Person"); err != nil {
		t.Fatal(err)
	}
	n, _ = cl.GetNode(ctx, id)
	if !reflect.DeepEqual(n.Labels, []string{"Admin"}) {
		t.Errorf("labels = %v", n.Labels)
	}
	if err := cl.DeleteNode(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetNode(ctx, id); !errors.Is(err, neograph.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound across the wire", err)
	}
}

func TestRelationshipOps(t *testing.T) {
	_, cl := startServer(t)
	a, _ := cl.CreateNode(ctx, nil, nil)
	b, _ := cl.CreateNode(ctx, nil, nil)
	r, err := cl.CreateRel(ctx, "KNOWS", a, b, neograph.Props{"w": neograph.Float(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetRel(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "KNOWS" || got.Start != a || got.End != b {
		t.Fatalf("rel = %+v", got)
	}
	rels, err := cl.Relationships(ctx, a, "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0].ID != r {
		t.Fatalf("rels = %+v", rels)
	}
	nbrs, _ := cl.Neighbors(ctx, a, "both")
	if !reflect.DeepEqual(nbrs, []neograph.NodeID{b}) {
		t.Fatalf("neighbors = %v", nbrs)
	}
	if err := cl.SetRelProp(ctx, r, "w", neograph.Float(0.9)); err != nil {
		t.Fatal(err)
	}
	if err := cl.DeleteRel(ctx, r); err != nil {
		t.Fatal(err)
	}
	if err := cl.DetachDeleteNode(ctx, a); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitTransaction(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Begin(ctx, "si"); err != nil {
		t.Fatal(err)
	}
	id, err := cl.CreateNode(ctx, []string{"Tx"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Another session must not see the uncommitted node.
	cl2, err := client.Dial(ctx, mustAddr(t, cl))
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if _, err := cl2.GetNode(ctx, id); !errors.Is(err, neograph.ErrNotFound) {
		t.Fatalf("uncommitted node leaked: %v", err)
	}
	if err := cl.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.GetNode(ctx, id); err != nil {
		t.Fatalf("committed node invisible: %v", err)
	}
}

// mustAddr digs the server address back out of a client's connection.
func mustAddr(t *testing.T, cl *client.Client) string {
	t.Helper()
	return cl.RemoteAddr().String()
}

func TestAbortDiscardsAcrossWire(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Begin(ctx, ""); err != nil {
		t.Fatal(err)
	}
	id, _ := cl.CreateNode(ctx, nil, nil)
	if err := cl.Abort(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetNode(ctx, id); !errors.Is(err, neograph.ErrNotFound) {
		t.Fatalf("aborted node visible: %v", err)
	}
}

func TestSnapshotAcrossSessions(t *testing.T) {
	_, cl := startServer(t)
	id, _ := cl.CreateNode(ctx, nil, neograph.Props{"v": neograph.Int(1)})

	reader, err := client.Dial(ctx, mustAddr(t, cl))
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if err := reader.Begin(ctx, "si"); err != nil {
		t.Fatal(err)
	}
	n1, err := reader.GetNode(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent write through the other session.
	if err := cl.SetNodeProp(ctx, id, "v", neograph.Int(2)); err != nil {
		t.Fatal(err)
	}
	n2, err := reader.GetNode(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := n1.Props["v"].AsInt()
	v2, _ := n2.Props["v"].AsInt()
	if v1 != v2 {
		t.Fatalf("unrepeatable read across the wire: %d -> %d", v1, v2)
	}
	reader.Abort(ctx)
}

func TestWriteConflictOverWire(t *testing.T) {
	_, cl := startServer(t)
	id, _ := cl.CreateNode(ctx, nil, neograph.Props{"v": neograph.Int(0)})

	cl2, err := client.Dial(ctx, mustAddr(t, cl))
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if err := cl.Begin(ctx, "si"); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetNodeProp(ctx, id, "v", neograph.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil { // the write's lock is held from here
		t.Fatal(err)
	}
	if err := cl2.Begin(ctx, "si"); err != nil {
		t.Fatal(err)
	}
	if err := cl2.SetNodeProp(ctx, id, "v", neograph.Int(2)); err != nil {
		t.Fatalf("a deferred write answered %v before it was sent", err)
	}
	err = cl2.Flush(ctx)
	if !errors.Is(err, neograph.ErrWriteConflict) {
		t.Fatalf("err = %v, want ErrWriteConflict across the wire", err)
	}
	if cl2.InTx() {
		t.Fatal("the loser's transaction outlived the flush that aborted it")
	}
	cl2.Abort(ctx)
	if err := cl.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestLookupsAndAdmin(t *testing.T) {
	_, cl := startServer(t)
	var want []neograph.NodeID
	for i := 0; i < 3; i++ {
		id, _ := cl.CreateNode(ctx, []string{"L"}, neograph.Props{"k": neograph.Int(7)})
		want = append(want, id)
	}
	ids, err := cl.NodesByLabel(ctx, "L")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("by label = %v, want %v", ids, want)
	}
	ids, err = cl.NodesByProperty(ctx, "k", neograph.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("by prop = %v", ids)
	}
	all, _ := cl.AllNodes(ctx)
	if len(all) != 3 {
		t.Fatalf("all = %v", all)
	}
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GC(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	srv, cl := startServer(t)
	seed, _ := cl.CreateNode(ctx, nil, neograph.Props{"n": neograph.Int(0)})
	_ = seed
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(ctx, srv.Addr())
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				id, err := c.CreateNode(ctx, []string{"W"}, neograph.Props{"i": neograph.Int(int64(j))})
				if err != nil {
					errs[i] = err
					return
				}
				if _, err := c.GetNode(ctx, id); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	ids, _ := cl.NodesByLabel(ctx, "W")
	if len(ids) != 8*20 {
		t.Fatalf("created = %d, want 160", len(ids))
	}
}

func TestProtocolErrors(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Commit(ctx); err == nil {
		t.Fatal("commit without begin should fail")
	}
	if err := cl.Begin(ctx, "banana"); err == nil {
		t.Fatal("bad isolation accepted")
	}
	if err := cl.Begin(ctx, "si"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Begin(ctx, "si"); err == nil {
		t.Fatal("double begin accepted")
	}
	cl.Abort(ctx)
	if _, err := cl.Relationships(ctx, 1, "sideways"); err == nil {
		t.Fatal("bad direction accepted")
	}
}

// ---- replication over the wire ----

// startReplicatedPair spins up a persistent primary shipping its WAL and
// a replica server streaming it, returning clients for both.
func startReplicatedPair(t *testing.T) (primary, replica *client.Client, pdb, rdb *neograph.DB) {
	t.Helper()
	pdb, err := neograph.Open(neograph.Options{Dir: t.TempDir(), ReplicationAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	psrv, err := NewWithConfig(pdb, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { psrv.Close(); pdb.Close() })
	rdb, err = neograph.Open(neograph.Options{Dir: t.TempDir(), ReplicaOf: pdb.ReplicationAddress()})
	if err != nil {
		t.Fatal(err)
	}
	rsrv, err := NewWithConfig(rdb, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rsrv.Close(); rdb.Close() })
	primary, err = client.Dial(ctx, psrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { primary.Close() })
	replica, err = client.Dial(ctx, rsrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replica.Close() })
	return primary, replica, pdb, rdb
}

func TestReplicaRedirectsWrites(t *testing.T) {
	_, replica, _, _ := startReplicatedPair(t)
	_, err := replica.CreateNode(ctx, []string{"X"}, nil)
	if !errors.Is(err, neograph.ErrReadOnlyReplica) {
		t.Fatalf("err = %v, want ErrReadOnlyReplica", err)
	}
	if !strings.Contains(err.Error(), "primary at") {
		t.Fatalf("redirect error does not name the primary: %v", err)
	}
	// Write ops inside an explicit transaction are rejected too.
	if err := replica.Begin(ctx, "si"); err != nil {
		t.Fatal(err)
	}
	if err := replica.SetNodeProp(ctx, 1, "k", neograph.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := replica.Flush(ctx); !errors.Is(err, neograph.ErrReadOnlyReplica) {
		t.Fatalf("staged write err = %v, want ErrReadOnlyReplica", err)
	}
	if err := replica.Abort(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestReadYourWritesAcrossReplica(t *testing.T) {
	primary, replica, _, _ := startReplicatedPair(t)
	id, err := primary.CreateNode(ctx, []string{"RYW"}, neograph.Props{"v": neograph.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	token := primary.LastCommitLSN()
	if token == 0 {
		t.Fatal("write response carried no LSN token")
	}
	// Gate replica reads on the token: the read must observe the write.
	replica.ReadAfter(token)
	n, err := replica.GetNode(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Props["v"].AsInt(); v != 7 {
		t.Fatalf("replica read v=%v", n.Props["v"])
	}
}

func TestExplicitCommitReturnsLSN(t *testing.T) {
	primary, replica, _, _ := startReplicatedPair(t)
	if err := primary.Begin(ctx, "si"); err != nil {
		t.Fatal(err)
	}
	id, err := primary.CreateNode(ctx, nil, neograph.Props{"v": neograph.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	before := primary.LastCommitLSN()
	if err := primary.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	token := primary.LastCommitLSN()
	if token == 0 || token == before {
		t.Fatalf("commit token = %d (before %d)", token, before)
	}
	replica.ReadAfter(token)
	if _, err := replica.GetNode(ctx, id); err != nil {
		t.Fatal(err)
	}
}

func TestReplStatusOp(t *testing.T) {
	primary, replica, _, _ := startReplicatedPair(t)
	// Commit something so positions are non-zero, then gate a replica
	// read to ensure it is connected and caught up before asserting.
	if _, err := primary.CreateNode(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	replica.ReadAfter(primary.LastCommitLSN())
	if _, err := replica.AllNodes(ctx); err != nil {
		t.Fatal(err)
	}
	pst, err := primary.ReplStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rst, err := replica.ReplStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pst.Role != "primary" || len(pst.Replicas) != 1 {
		t.Fatalf("primary status = %+v", pst)
	}
	if rst.Role != "replica" || !rst.Connected || rst.AppliedLSN < pst.DurableLSN {
		t.Fatalf("replica status = %+v (primary durable %d)", rst, pst.DurableLSN)
	}
}

// TestPromoteOverWire drives failover through the wire protocol: the
// primary dies, the replica server is promoted via the promote op, and
// the same session that was being redirected a moment ago now commits
// writes directly.
func TestPromoteOverWire(t *testing.T) {
	primary, replica, pdb, _ := startReplicatedPair(t)

	id, err := primary.CreateNode(ctx, []string{"Pre"}, neograph.Props{"v": neograph.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	replica.ReadAfter(primary.LastCommitLSN())
	if _, err := replica.GetNode(ctx, id); err != nil {
		t.Fatal(err)
	}
	replica.ReadAfter(0)
	// Still a replica: writes are redirected.
	if _, err := replica.CreateNode(ctx, []string{"X"}, nil); !errors.Is(err, neograph.ErrReadOnlyReplica) {
		t.Fatalf("pre-promotion write err = %v, want ErrReadOnlyReplica", err)
	}

	// Primary dies; promote the replica over the wire.
	if err := pdb.Crash(); err != nil {
		t.Fatal(err)
	}
	st, err := replica.Promote(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("promote op: %v", err)
	}
	if st.Role != "primary" || st.Epoch != 2 {
		t.Fatalf("post-promotion status = %+v, want primary at epoch 2", st)
	}
	// A second promote must fail cleanly.
	if _, err := replica.Promote(ctx, ""); err == nil {
		t.Fatal("second promote succeeded")
	}

	// The promoted server now takes writes; history is intact.
	nid, err := replica.CreateNode(ctx, []string{"Post"}, neograph.Props{"v": neograph.Int(2)})
	if err != nil {
		t.Fatalf("post-promotion write: %v", err)
	}
	if _, err := replica.GetNode(ctx, nid); err != nil {
		t.Fatal(err)
	}
	if _, err := replica.GetNode(ctx, id); err != nil {
		t.Fatalf("pre-failover data lost: %v", err)
	}
}

func TestPromoteNonReplicaFails(t *testing.T) {
	_, cl := startServer(t)
	if _, err := cl.Promote(ctx, ""); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Fatalf("promote on standalone err = %v, want 'not a replica'", err)
	}
}

func TestWaitLSNBogusTokenFails(t *testing.T) {
	_, cl := startServerPersistent(t)
	if _, err := cl.CreateNode(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	// A token far beyond the log end must error, not hang or spin.
	cl.ReadAfter(1 << 40)
	if _, err := cl.AllNodes(ctx); err == nil {
		t.Fatal("bogus WaitLSN token succeeded")
	}
	cl.ReadAfter(0)
	if _, err := cl.AllNodes(ctx); err != nil {
		t.Fatal(err)
	}
}

// startServerPersistent is startServer with a durable store (WaitLSN
// gating needs a WAL).
func startServerPersistent(t *testing.T) (*Server, *client.Client) {
	t.Helper()
	db, err := neograph.Open(neograph.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(db, "127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	cl, err := client.Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

// ---- wire-protocol error paths (the server must shed broken sessions
// without wedging) ----

// rawConn dials the server for protocol-level abuse.
func rawConn(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// expectClosed asserts the server hangs up on the connection.
func expectClosed(t *testing.T, conn net.Conn) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatal("server kept the session open")
			}
			return
		}
	}
}

// expectAlive asserts the server still accepts and serves new sessions.
func expectAlive(t *testing.T, srv *Server) {
	t.Helper()
	cl, err := client.Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(ctx); err != nil {
		t.Fatalf("server wedged: %v", err)
	}
}

func TestMalformedFrameClosesSessionOnly(t *testing.T) {
	srv, _ := startServer(t)
	conn := rawConn(t, srv)
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn)
	expectAlive(t, srv)
}

// TestValuesFromTheWireDecodedStrictly: a value or props field that is not
// exactly what the encoder writes — a list nested deeper than 10 000, a
// trailing byte, a key given twice, a patch's removal mark — is refused,
// the session survives and nothing is written; a generation-3 frame, its
// value a tagged object, is refused too (the session closes) and the
// property is unchanged.
func TestValuesFromTheWireDecodedStrictly(t *testing.T) {
	srv, cl := startServer(t)
	id, err := cl.CreateNode(ctx, nil, neograph.Props{"k": neograph.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(when string) {
		t.Helper()
		n, err := cl.GetNode(ctx, id)
		if err != nil || n.Props["k"] != neograph.Int(0) {
			t.Fatalf("%s: k is a %v, %v", when, n.Props["k"].Kind(), err)
		}
		if ids, err := cl.AllNodes(ctx); err != nil || len(ids) != 1 {
			t.Fatalf("%s: nodes %v, %v", when, ids, err)
		}
	}

	old := rawConn(t, srv)
	if _, err := fmt.Fprintf(old, `{"op":"set_node_prop","id":%d,"key":"k","value":{"i":"1"}}`+"\n", id); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, old)
	unchanged("a generation-3 frame")

	b64 := base64.StdEncoding.EncodeToString
	nested := func(depth int) []byte { return append(bytes.Repeat([]byte{byte(neograph.KindList), 1}, depth), 0) }
	setK := func(v []byte) string {
		return fmt.Sprintf(`{"op":"set_node_prop","id":%d,"key":"k","value":%q}`, id, b64(v))
	}
	create := func(props []byte) string { return fmt.Sprintf(`{"op":"create_node","props":%q}`, b64(props)) }
	conn := rawConn(t, srv)
	for name, frame := range map[string]string{
		"nested 10 001 deep": setK(nested(10001)),
		"removal mark":       setK([]byte{0xFF}),
		"trailing bytes":     create([]byte{1, 1, 'a', byte(neograph.KindInt), 2, 0}),
		"a key twice":        create([]byte{2, 1, 'a', 0, 1, 'a', 0}),
	} {
		if resp := sendRaw(t, conn, frame); resp.OK {
			t.Errorf("%s: accepted", name)
		}
	}
	unchanged("refused values")
	if resp := sendRaw(t, conn, setK(nested(10000))); !resp.OK {
		t.Fatalf("a list nested 10 000 deep: %s", resp.Error)
	}
	if n, err := cl.GetNode(ctx, id); err != nil || n.Props["k"].Kind() != neograph.KindList {
		t.Fatalf("k = %v, %v", n.Props["k"], err)
	}
}

func TestOversizedPayloadClosesSessionOnly(t *testing.T) {
	srv, _ := startServer(t)
	conn := rawConn(t, srv)
	// Stream a single request frame larger than maxRequestBytes. The
	// server must cut it off rather than buffer it all.
	w := bufio.NewWriterSize(conn, 1<<16)
	w.WriteString(`{"op":"ping","key":"`)
	chunk := strings.Repeat("x", 1<<16)
	written := 0
	for written < maxRequestBytes+(1<<20) {
		if _, err := w.WriteString(chunk); err != nil {
			break // server already hung up mid-stream: exactly the point
		}
		written += len(chunk)
	}
	w.WriteString(`"}`)
	w.Flush()
	expectClosed(t, conn)
	expectAlive(t, srv)
}

func TestMidRequestDisconnectDoesNotWedge(t *testing.T) {
	srv, _ := startServer(t)
	conn := rawConn(t, srv)
	// Half a JSON object, then vanish.
	if _, err := conn.Write([]byte(`{"op":"create_node","labels":["Per`)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	expectAlive(t, srv)
}

func TestOpenTxAbortedOnDisconnect(t *testing.T) {
	srv, cl := startServer(t)
	if err := cl.Begin(ctx, "si"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CreateNode(ctx, []string{"Orphan"}, nil); err != nil {
		t.Fatal(err)
	}
	cl.Close() // mid-transaction disconnect
	// The staged write must not leak into committed state.
	cl2, err := client.Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	ids, err := cl2.NodesByLabel(ctx, "Orphan")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("disconnected transaction committed %d nodes", len(ids))
	}
}
