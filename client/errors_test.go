package client_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"neograph"
	. "neograph/client"
	"neograph/internal/fleet"
	"neograph/internal/server"
)

// errFixture is what the errors.Is matrix runs against: a 2-partition
// fleet (primary + replica each) under the default first-updater-wins
// policy, a first-committer-wins server for commit-time conflicts, and a
// tightly budgeted server for overload.
type errFixture struct {
	t          *testing.T
	ctx        context.Context
	fl         *fleet.Fleet
	a0, b0     neograph.NodeID // on partition 0, unrelated
	a1, c1     neograph.NodeID // on partition 1, a1 -[E]-> c1
	gone0      neograph.NodeID // owned by partition 0, never created
	gone1      neograph.NodeID // owned by partition 1, never created
	fcw, tight *server.Server
	fcwDB      *neograph.DB
}

func (f *errFixture) dial(addr string) *Client {
	f.t.Helper()
	c, err := Dial(f.ctx, addr)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { c.Close() })
	return c
}

func (f *errFixture) primary(part int) *Client { return f.dial(f.fl.Groups[part][0].Addr()) }

func newErrFixture(t *testing.T) *errFixture {
	t.Helper()
	f := &errFixture{t: t, ctx: context.Background(), gone0: 1_000_000, gone1: 1_000_001}
	var err error
	if f.fl, err = fleet.Start(fleet.Spec{Partitions: 2, Replicas: 1, DB: neograph.Options{Dir: t.TempDir()}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.fl.Close() })
	// Partition 1's resolver would presume-abort the prepare the
	// prepared-key scenario parks there; halt the loops (explicit passes
	// are not needed here).
	f.fl.Groups[1][0].Coord.Close()

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	p0, p1 := f.primary(0), f.primary(1)
	f.a0, err = p0.CreateNode(f.ctx, nil, nil)
	must(err)
	f.b0, err = p0.CreateNode(f.ctx, nil, nil)
	must(err)
	f.a1, err = p1.CreateNode(f.ctx, nil, nil)
	must(err)
	f.c1, err = p1.CreateNode(f.ctx, nil, nil)
	must(err)
	_, err = p1.CreateRel(f.ctx, "E", f.a1, f.c1, nil)
	must(err)
	for _, g := range f.fl.Groups {
		must(g[1].DB.WaitApplied(g[0].DB.DurableLSN(), 10*time.Second))
	}

	f.fcwDB, err = neograph.Open(neograph.Options{Conflict: neograph.FirstCommitterWins})
	must(err)
	f.fcw, err = server.NewWithConfig(f.fcwDB, "127.0.0.1:0", server.Config{})
	must(err)
	t.Cleanup(func() { f.fcw.Close(); f.fcwDB.Close() })
	f.tight = startTightServer(t)
	return f
}

// cross builds a batch spanning both partitions whose partition-1 half is
// build(b): sent to partition 0, it commits through the coordinator, and
// the failing sub-op's error crosses participant -> coordinator -> client.
func (f *errFixture) cross(build func(b *Batch) int) (*Batch, int) {
	var b Batch
	b.SetNodeProp(f.a0, "x", neograph.Int(1))
	return &b, build(&b)
}

// wantBatchErr asserts err is a *BatchError naming op idx.
func wantBatchErr(t *testing.T, err error, idx int) {
	t.Helper()
	var be *BatchError
	if !errors.As(err, &be) || be.Index != idx {
		t.Errorf("want a BatchError naming op %d, got %v", idx, err)
	}
}

// TestErrorsIsAcrossTheWire is the errors.Is matrix of the wire's error
// codes: every sentinel, on every path that can produce it — a single op,
// a batch sub-op, an explicit transaction's commit, a cross-partition
// batch through the coordinator — still matches client-side. Cells that
// cannot occur say why.
func TestErrorsIsAcrossTheWire(t *testing.T) {
	f := newErrFixture(t)
	ctx := f.ctx
	type cell struct {
		path string
		run  func(t *testing.T) error // nil: see why
		why  string
	}
	matrix := []struct {
		name     string
		sentinel error
		cells    []cell
	}{
		{"ErrNotFound", neograph.ErrNotFound, []cell{
			{"single", func(t *testing.T) error {
				_, err := f.primary(0).GetNode(ctx, f.gone0)
				return err
			}, ""},
			{"batch", func(t *testing.T) error {
				var b Batch
				b.GetNode(f.a0)
				b.GetNode(f.gone0)
				_, err := f.primary(0).RunBatch(ctx, &b)
				wantBatchErr(t, err, 1)
				return err
			}, ""},
			{"commit", nil, "a missing entity fails the op that names it, before commit"},
			{"cross", func(t *testing.T) error {
				b, idx := f.cross(func(b *Batch) int { return b.SetNodeProp(f.gone1, "x", neograph.Int(1)) })
				_, err := f.primary(0).RunBatch(ctx, b)
				wantBatchErr(t, err, idx)
				return err
			}, ""},
		}},
		{"ErrWriteConflict", neograph.ErrWriteConflict, []cell{
			{"single", func(t *testing.T) error {
				holder := f.primary(0)
				if err := holder.Begin(ctx, "si"); err != nil {
					t.Fatal(err)
				}
				defer holder.Abort(ctx)
				if err := holder.SetNodeProp(ctx, f.b0, "v", neograph.Int(1)); err != nil {
					t.Fatal(err)
				}
				if err := holder.Flush(ctx); err != nil { // the rival must find the lock held
					t.Fatal(err)
				}
				return f.primary(0).SetNodeProp(ctx, f.b0, "v", neograph.Int(2))
			}, ""},
			{"batch", func(t *testing.T) error {
				holder := f.primary(0)
				if err := holder.Begin(ctx, "si"); err != nil {
					t.Fatal(err)
				}
				defer holder.Abort(ctx)
				if err := holder.SetNodeProp(ctx, f.b0, "v", neograph.Int(1)); err != nil {
					t.Fatal(err)
				}
				if err := holder.Flush(ctx); err != nil { // the rival must find the lock held
					t.Fatal(err)
				}
				var b Batch
				b.GetNode(f.a0)
				b.SetNodeProp(f.b0, "v", neograph.Int(2))
				_, err := f.primary(0).RunBatch(ctx, &b)
				wantBatchErr(t, err, 1)
				return err
			}, ""},
			{"commit", func(t *testing.T) error {
				// First-committer-wins validates at commit; the key is held
				// by a prepared (undecided) two-phase transaction. Both frames a
				// commit ends: the last of a transaction the server holds, and —
				// every call deferred — the only one, begin included.
				cl := f.dial(f.fcw.Addr())
				id, err := cl.CreateNode(ctx, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				tx := f.fcwDB.Begin()
				if err := tx.SetNodeProp(id, "v", neograph.Int(1)); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Core().Prepare(77, 0, nil); err != nil {
					t.Fatal(err)
				}
				defer f.fcwDB.Engine().DecideTxn(77, false, nil)
				for _, readFirst := range []bool{true, false} {
					if err := cl.Begin(ctx, "si"); err != nil {
						t.Fatal(err)
					}
					if readFirst {
						if _, err := cl.GetNode(ctx, id); err != nil {
							t.Fatal(err)
						}
					}
					if err := cl.SetNodeProp(ctx, id, "v", neograph.Int(2)); err != nil {
						t.Fatal(err)
					}
					err = cl.Commit(ctx)
					if err == nil || !strings.Contains(err.Error(), "held by prepared transaction") || !errors.Is(err, neograph.ErrWriteConflict) {
						t.Errorf("commit over a prepared key (read first: %v): %v", readFirst, err)
					}
					var be *BatchError
					if errors.As(err, &be) {
						t.Errorf("a commit's own failure came back as a deferred call's: %v", err)
					}
					if cl.InTx() {
						t.Errorf("a failed commit (read first: %v) left the transaction open", readFirst)
					}
				}
				return err
			}, ""},
			{"cross", func(t *testing.T) error {
				// A 2PC abort on a prepared key, as fleet_batch's driver
				// must recognise it.
				db1 := f.fl.Groups[1][0].DB
				tx := db1.Begin()
				if err := tx.SetNodeProp(f.c1, "v", neograph.Int(1)); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Core().Prepare(1<<48|999, 1, nil); err != nil {
					t.Fatal(err)
				}
				defer db1.Engine().DecideTxn(1<<48|999, false, nil)
				b, idx := f.cross(func(b *Batch) int { return b.SetNodeProp(f.c1, "v", neograph.Int(2)) })
				_, err := f.primary(0).RunBatch(ctx, b)
				wantBatchErr(t, err, idx)
				return err
			}, ""},
		}},
		{"ErrDeadlock", neograph.ErrDeadlock, []cell{
			{"single", func(t *testing.T) error { return f.deadlock(t, false) }, ""},
			{"batch", func(t *testing.T) error { return f.deadlock(t, true) }, ""},
			{"commit", nil, "locks are taken by the writes; commit waits for none"},
			{"cross", nil, "a prepare only try-locks: contention there is a conflict, never a wait"},
		}},
		{"ErrTxDone", neograph.ErrTxDone, []cell{
			{"single", nil, "a session drops its transaction when it commits, aborts or a batch fails in it — " +
				"it never holds a finished one to use again (the code itself: wire TestErrorCodeTable, server TestFailSetsEveryCode)"},
			{"batch", nil, "as single"},
			{"commit", nil, "as single"},
			{"cross", nil, "a cross-partition batch is refused inside an explicit transaction"},
		}},
		{"ErrHasRels", neograph.ErrHasRels, []cell{
			{"single", func(t *testing.T) error { return f.primary(1).DeleteNode(ctx, f.a1) }, ""},
			{"batch", func(t *testing.T) error {
				var b Batch
				b.GetNode(f.c1)
				b.DeleteNode(f.a1)
				_, err := f.primary(1).RunBatch(ctx, &b)
				wantBatchErr(t, err, 1)
				return err
			}, ""},
			{"commit", nil, "the delete itself fails, before commit"},
			{"cross", func(t *testing.T) error {
				b, idx := f.cross(func(b *Batch) int { return b.DeleteNode(f.a1) })
				_, err := f.primary(0).RunBatch(ctx, b)
				wantBatchErr(t, err, idx)
				return err
			}, ""},
		}},
		{"ErrReadOnlyReplica", neograph.ErrReadOnlyReplica, []cell{
			{"single", func(t *testing.T) error {
				return f.replica0().SetNodeProp(ctx, f.a0, "v", neograph.Int(1))
			}, ""},
			{"batch", func(t *testing.T) error {
				var b Batch
				b.SetNodeProp(f.a0, "v", neograph.Int(1))
				_, err := f.replica0().RunBatch(ctx, &b)
				return err
			}, ""},
			{"commit", nil, "a replica refuses the writes, so its transactions commit nothing"},
			{"cross", func(t *testing.T) error {
				b, _ := f.cross(func(b *Batch) int { return b.SetNodeProp(f.a1, "v", neograph.Int(1)) })
				_, err := f.replica0().RunBatch(ctx, b)
				return err
			}, ""},
		}},
		// A replica gates a read on a log position it never reaches, until
		// the request's own budget ends.
		{"deadline", context.DeadlineExceeded, []cell{
			{"single", func(t *testing.T) error {
				return f.gated(t, f.replica0(), func(cl *Client, sctx context.Context) error {
					_, err := cl.GetNode(sctx, f.a0)
					return err
				})
			}, ""},
			{"batch", func(t *testing.T) error {
				return f.gated(t, f.replica0(), func(cl *Client, sctx context.Context) error {
					var b Batch
					b.GetNode(f.a0)
					_, err := cl.RunBatch(sctx, &b)
					return err
				})
			}, ""},
			{"commit", func(t *testing.T) error {
				cl := f.replica0()
				if err := cl.Begin(ctx, "si"); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.GetNode(ctx, f.a0); err != nil { // else there is nothing to commit, and no frame
					t.Fatal(err)
				}
				err := f.gated(t, cl, func(cl *Client, sctx context.Context) error { return cl.Commit(sctx) })
				// The server refused the frame without running it: the
				// transaction is still there to commit or abort.
				if !cl.InTx() {
					t.Error("a commit refused at the gate closed the transaction")
				}
				cl.ReadAfter(0)
				if err := cl.Abort(ctx); err != nil || cl.InTx() {
					t.Errorf("abort after the refused commit: %v (in tx: %v)", err, cl.InTx())
				}
				return err
			}, ""},
			{"cross", nil, "the gate is checked before a batch is split; a participant that cannot answer within the budget is 'unavailable'"},
		}},
		{"overloaded", ErrOverloaded, []cell{
			{"single", func(t *testing.T) error {
				_, err := f.dial(f.tight.Addr()).CreateNode(ctx, nil, bigProps())
				return err
			}, ""},
			{"batch", func(t *testing.T) error {
				var b Batch
				b.CreateNode(nil, bigProps())
				_, err := f.dial(f.tight.Addr()).RunBatch(ctx, &b)
				return err
			}, ""},
			{"commit", nil, "admission charges the frame, and a commit frame is a few bytes"},
			{"cross", nil, "rejected at admission, before the batch is looked at"},
		}},
		// Last: it takes partition 1 down.
		{"unavailable", ErrUnavailable, []cell{
			{"single", nil, "a draining server shedding a gated read: internal/server's drain tests pin the code"},
			{"batch", nil, "as single"},
			{"commit", nil, "as single"},
			{"cross", func(t *testing.T) error {
				for _, n := range f.fl.Groups[1] {
					n.Crash()
				}
				b, _ := f.cross(func(b *Batch) int { return b.SetNodeProp(f.a1, "v", neograph.Int(1)) })
				_, err := f.primary(0).RunBatch(ctx, b)
				return err
			}, ""},
		}},
	}
	for _, row := range matrix {
		if len(row.cells) != 4 {
			t.Fatalf("%s: %d paths, want single, batch, commit, cross", row.name, len(row.cells))
		}
		for _, c := range row.cells {
			if c.run == nil {
				t.Logf("%s / %s: cannot occur — %s", row.name, c.path, c.why)
				continue
			}
			t.Run(row.name+"/"+c.path, func(t *testing.T) {
				err := c.run(t)
				if !errors.Is(err, row.sentinel) {
					t.Fatalf("got %v, want errors.Is %v", err, row.sentinel)
				}
				// Exactly that class: no other sentinel matches.
				for _, other := range matrix {
					if other.sentinel != row.sentinel && errors.Is(err, other.sentinel) {
						t.Errorf("%v also matches %s", err, other.name)
					}
				}
			})
		}
	}
}

// deadlock runs two read-committed writers over a0 and b0 in opposite
// order; the one whose wait closes the cycle is aborted with ErrDeadlock.
// With asBatch its second write travels as a batch sub-op.
func (f *errFixture) deadlock(t *testing.T, asBatch bool) error {
	ctx := f.ctx
	one, two := f.primary(0), f.primary(0)
	for _, c := range []*Client{one, two} {
		if err := c.Begin(ctx, "rc"); err != nil {
			t.Fatal(err)
		}
		defer c.Abort(ctx)
	}
	// write is a write whose lock is taken now, not at the next flush.
	write := func(c *Client, id neograph.NodeID, v int64) error {
		if err := c.SetNodeProp(ctx, id, "d", neograph.Int(v)); err != nil {
			return err
		}
		return c.Flush(ctx)
	}
	if err := write(one, f.a0, 1); err != nil {
		t.Fatal(err)
	}
	if err := write(two, f.b0, 2); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- write(one, f.b0, 1) }()
	time.Sleep(50 * time.Millisecond) // let one queue up behind two's lock
	var err error
	if asBatch {
		var b Batch
		b.SetNodeProp(f.a0, "d", neograph.Int(2))
		_, err = two.RunBatch(ctx, &b)
	} else {
		err = write(two, f.a0, 2)
	}
	if err == nil {
		// one was the victim instead; two holds both locks until it ends.
		two.Abort(ctx)
		return <-blocked
	}
	wantBatchErr(t, err, 0) // the batch's only op, or the only call deferred
	if two.InTx() {
		t.Error("the deadlock victim's transaction is still open")
	}
	two.Abort(ctx) // (already aborted, which is what released one: no frame)
	<-blocked
	return err
}

func (f *errFixture) replica0() *Client { return f.dial(f.fl.Groups[0][1].Addr()) }

// gated runs call on cl — a session to a replica — with every request
// waiting for a log position no server reaches, under a short deadline:
// the server must answer with its deadline frame, leaving the session
// usable.
func (f *errFixture) gated(t *testing.T, cl *Client, call func(cl *Client, sctx context.Context) error) error {
	sctx, cancel := context.WithTimeout(f.ctx, 150*time.Millisecond)
	defer cancel()
	cl.ReadAfter(1 << 40)
	err := call(cl, sctx)
	if cl.Broken() {
		t.Error("the server's deadline frame did not arrive: session broken")
	}
	return err
}

// TestErrorTextIsNotRouted: what the substring tables got wrong. An error
// whose text merely contains a sentinel's message is not that sentinel.
func TestErrorTextIsNotRouted(t *testing.T) {
	srv := startTightServer(t)
	ctx := context.Background()
	cl, err := Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, text := range []string{
		neograph.ErrWriteConflict.Error(), neograph.ErrNotFound.Error(),
		"deadline exceeded", "shutting down", "EOF", "connection refused",
	} {
		_, err := cl.Neighbors(ctx, 0, text) // "wire: bad direction <text>", from the server
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Fatalf("neighbors with direction %q: %v", text, err)
		}
		for _, sentinel := range []error{
			neograph.ErrWriteConflict, neograph.ErrNotFound, neograph.ErrDeadlock, neograph.ErrTxDone,
			neograph.ErrHasRels, neograph.ErrReadOnlyReplica, context.DeadlineExceeded,
			ErrUnavailable, ErrOverloaded, ErrBroken,
		} {
			if errors.Is(err, sentinel) {
				t.Errorf("direction %q surfaced as %v", text, sentinel)
			}
		}
		if cl.Broken() {
			t.Fatal("a refused call broke the session")
		}
	}
	// ...and a pool does not take such a server-answered error for a dead
	// primary: no failover, the error comes straight back.
	p, err := openPool(ctx, RouterConfig{Partitions: Group(srv.Addr())})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	calls := 0
	err = p.Write(ctx, "", func(c *Client) error {
		calls++
		_, err := c.Neighbors(ctx, 0, "connection refused")
		return err
	})
	if err == nil || calls != 1 {
		t.Fatalf("pool write ran fn %d times (err %v), want once: the server answered", calls, err)
	}
}

// TestDeferredErrorContract is what a caller of an explicit transaction may
// rely on now that its writes are sent with the next call that needs an
// answer:
//
//   - a deferred call's failure comes out of the call that flushed it as a
//     *BatchError whose Index counts the calls deferred since the last
//     flush, in call order, and whose Unwrap keeps the engine's sentinel;
//   - a Batch run inside the transaction still reports its own indices;
//   - either way the transaction is over: InTx is false, nothing of it
//     committed, and the Abort a careful caller still issues costs nothing;
//   - a transaction the server never saw costs no frame to abort or commit.
func TestDeferredErrorContract(t *testing.T) {
	db, srv, _ := startServer(t)
	cl, rec := dialRecorded(t, srv)
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	a, err := cl.CreateNode(ctx, nil, neograph.Props{"v": neograph.Int(0)})
	must(err)
	b, err := cl.CreateNode(ctx, nil, neograph.Props{"v": neograph.Int(0)})
	must(err)
	const missing = neograph.NodeID(1 << 40)
	set := func(id neograph.NodeID, v int64) { t.Helper(); must(cl.SetNodeProp(ctx, id, "v", neograph.Int(v))) }
	// over asserts the transaction is finished and left nothing behind.
	over := func(what string) {
		t.Helper()
		if cl.InTx() || cl.Broken() {
			t.Fatalf("%s: in tx=%v broken=%v, want neither", what, cl.InTx(), cl.Broken())
		}
		rec.take()
		if err, sent := cl.Abort(ctx), rec.take(); err != nil || len(sent) != 0 {
			t.Errorf("%s: abort of the already-aborted transaction: %v, frames %v; want nil and none", what, err, sent)
		}
		for _, id := range []neograph.NodeID{a, b} {
			n, err := cl.GetNode(ctx, id)
			must(err)
			if n.Props["v"] != neograph.Int(0) || len(n.Labels) != 0 {
				t.Errorf("%s: node %d is %v %v: a write of the aborted transaction committed", what, id, n.Labels, n.Props)
			}
		}
	}
	deferredErr := func(what string, err error, idx int, sentinel error) {
		t.Helper()
		var be *BatchError
		if !errors.As(err, &be) || be.Index != idx || !errors.Is(err, sentinel) || !strings.Contains(err.Error(), "deferred set_node_prop") {
			t.Errorf("%s: got %v, want a BatchError for deferred set_node_prop %d wrapping %v", what, err, idx, sentinel)
		}
	}

	// The failing call is the second of three deferred; a read flushes them.
	must(cl.Begin(ctx, ""))
	set(a, 1)
	set(missing, 1)
	set(b, 1)
	_, err = cl.GetNode(ctx, a)
	deferredErr("flushed by a read", err, 1, neograph.ErrNotFound)
	over("flushed by a read")

	// Index counts from the last flush, and the commit can be what flushes.
	must(cl.Begin(ctx, ""))
	set(a, 1)
	must(cl.Flush(ctx))
	must(cl.AddLabel(ctx, b, "L"))
	set(missing, 1)
	deferredErr("flushed by the commit", cl.Commit(ctx), 1, neograph.ErrNotFound)
	over("flushed by the commit")

	// A Batch inside the transaction: a deferred call before it fails as a
	// deferred call, one of its own ops under its own index.
	var batch Batch
	batch.GetNode(a)
	batch.GetNode(missing)
	must(cl.Begin(ctx, ""))
	set(missing, 1)
	_, err = cl.RunBatch(ctx, &batch)
	deferredErr("flushed by a batch", err, 0, neograph.ErrNotFound)
	over("flushed by a batch")
	must(cl.Begin(ctx, ""))
	set(a, 1)
	set(b, 1)
	_, err = cl.RunBatch(ctx, &batch)
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 || !errors.Is(err, neograph.ErrNotFound) || strings.Contains(err.Error(), "deferred") {
		t.Errorf("a batch's own op failing behind two deferred calls: %v, want BatchError op 1", err)
	}
	over("a batch's own op")

	// The flushing call's own failure is just its error.
	must(cl.Begin(ctx, ""))
	set(a, 1)
	_, err = cl.GetNode(ctx, missing)
	if errors.As(err, &be) || !errors.Is(err, neograph.ErrNotFound) {
		t.Errorf("the flushing read's own failure: %v, want a plain ErrNotFound", err)
	}
	over("the flushing call's own failure")

	// A transaction the server aborted under its caller stays ended until the
	// caller ends it: what was meant for it is refused without a frame, not
	// run auto-committed one call at a time.
	for _, again := range []string{"abort", "begin", "commit"} {
		must(cl.Begin(ctx, ""))
		if _, err = cl.GetNode(ctx, missing); !errors.Is(err, neograph.ErrNotFound) || cl.InTx() {
			t.Fatalf("[begin,get] of a missing node: %v, in tx=%v", err, cl.InTx())
		}
		rec.take()
		_, createErr := cl.CreateNode(ctx, []string{"Stray"}, nil)
		_, getErr := cl.GetNode(ctx, a)
		_, batchErr := cl.RunBatch(ctx, &batch)
		_, queryErr := cl.Query(ctx, SeedLabel("Stray"))
		for what, err := range map[string]error{
			"create": createErr, "get": getErr, "batch": batchErr, "query": queryErr, "set": cl.SetNodeProp(ctx, a, "v", neograph.Int(1)),
			"label": cl.AddLabel(ctx, a, "L"), "flush": cl.Flush(ctx),
		} {
			if err == nil || !strings.Contains(err.Error(), "aborted by an earlier error") {
				t.Errorf("%s after the transaction was aborted: %v, want it refused", what, err)
			}
		}
		if sent := rec.take(); len(sent) != 0 || cl.InTx() {
			t.Errorf("calls after the abort sent %v (in tx=%v), want nothing", sent, cl.InTx())
		}
		switch again {
		case "begin": // a retry loop's next attempt acknowledges it as well
			must(cl.Begin(ctx, ""))
			set(a, 1)
			must(cl.Abort(ctx))
		case "commit": // so does a commit, which must not claim it committed
			if err := cl.Commit(ctx); err == nil || !strings.Contains(err.Error(), "aborted by an earlier error") {
				t.Errorf("commit of the aborted transaction: %v", err)
			}
			rec.take()
		}
		over("refused until " + again)
	}
	if ids, err := cl.NodesByLabel(ctx, "Stray"); err != nil || len(ids) != 0 {
		t.Errorf("nodes created outside the aborted transaction: %v, %v", ids, err)
	}

	// The sentinel a retry loop looks for survives: a rival holds b.
	rival := db.Begin()
	must(rival.SetNodeProp(b, "v", neograph.Int(9)))
	must(cl.Begin(ctx, ""))
	set(a, 1)
	set(b, 1)
	err = cl.Commit(ctx)
	deferredErr("a rival holds the key", err, 1, neograph.ErrWriteConflict)
	must(rival.Abort())
	over("a rival holds the key")

	// What the server never saw costs nothing to end; what it did, one frame.
	frames := func(what string, want ...string) {
		t.Helper()
		if got := rec.take(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: frames %v, want %v", what, got, want)
		}
	}
	rec.take()
	must(cl.Abort(ctx)) // none open
	must(cl.Begin(ctx, ""))
	must(cl.Abort(ctx))
	must(cl.Begin(ctx, "rc"))
	set(a, 1)
	must(cl.Abort(ctx))
	must(cl.Begin(ctx, ""))
	must(cl.Commit(ctx))
	must(cl.Flush(ctx)) // none open
	frames("transactions the server never saw")
	if err := cl.Commit(ctx); err == nil {
		t.Error("commit with no transaction open succeeded")
	}
	if err := cl.Begin(ctx, "serializable"); err == nil || cl.InTx() {
		t.Errorf("begin with an unknown isolation: %v", err)
	}
	must(cl.Begin(ctx, ""))
	if err := cl.Begin(ctx, ""); err == nil {
		t.Error("begin inside a transaction succeeded")
	}
	must(cl.Flush(ctx))
	must(cl.Flush(ctx)) // nothing new to send
	set(a, 1)
	must(cl.Abort(ctx))
	frames("begun, then aborted with a write still deferred", "[begin]", "abort")
	over("aborted with a write still deferred")

	// Back references inside a Batch follow it to wherever the flush puts it,
	// a query reads what was deferred before it, and a queue longer than one
	// frame may be is sent in more.
	var refs Batch
	made := refs.CreateNode([]string{"Made"}, nil)
	refs.CreateRelRef("R", made, made, nil)
	refs.SetNodePropRef(made, "v", neograph.Int(7))
	get := refs.GetNode(a)
	must(cl.Begin(ctx, ""))
	set(a, 5)
	must(cl.AddLabel(ctx, a, "Seen"))
	res, err := cl.RunBatch(ctx, &refs)
	must(err)
	id, _ := res.ID(made)
	if n, err := res.Node(get); err != nil || n.Props["v"] != neograph.Int(5) || res.Len() != refs.Len() {
		t.Errorf("a batch behind deferred calls: %d results, read %v %v", res.Len(), n.Props, err)
	}
	must(cl.SetNodeProp(ctx, id, "w", neograph.Int(8)))
	st, err := cl.Query(ctx, SeedLabel("Seen"))
	must(err)
	var seen []neograph.NodeID
	for st.Next() {
		seen = append(seen, st.Row().ID)
	}
	must(st.Err())
	if !reflect.DeepEqual(seen, []neograph.NodeID{a}) {
		t.Errorf("a query inside the transaction sees %v, want the deferred label on %d", seen, a)
	}
	rec.take()
	for i := 0; i < 5000; i++ {
		set(b, int64(i))
	}
	must(cl.Commit(ctx))
	if got := len(rec.take()); got != 2 {
		t.Errorf("5000 deferred writes and a commit went out in %d frames, want 2", got)
	}
	n, err := cl.GetNode(ctx, id)
	must(err)
	rels, err := cl.Relationships(ctx, id, "out")
	must(err)
	if n.Props["v"] != neograph.Int(7) || n.Props["w"] != neograph.Int(8) || len(rels) != 1 || rels[0].End != id {
		t.Errorf("the node the batch made: %v, rels %v", n.Props, rels)
	}
	if n, _ := cl.GetNode(ctx, b); n.Props["v"] != neograph.Int(4999) {
		t.Errorf("b after 5000 writes: %v", n.Props)
	}
}
