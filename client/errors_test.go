package client_test

import (
	"context"
	"errors"
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
	f.fcw, err = server.New(f.fcwDB, "127.0.0.1:0")
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
				var b Batch
				b.GetNode(f.a0)
				b.SetNodeProp(f.b0, "v", neograph.Int(2))
				_, err := f.primary(0).RunBatch(ctx, &b)
				wantBatchErr(t, err, 1)
				return err
			}, ""},
			{"commit", func(t *testing.T) error {
				// First-committer-wins validates at commit; the key is held
				// by a prepared (undecided) two-phase transaction.
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
				if err := cl.Begin(ctx, "si"); err != nil {
					t.Fatal(err)
				}
				if err := cl.SetNodeProp(ctx, id, "v", neograph.Int(2)); err != nil {
					t.Fatal(err)
				}
				err = cl.Commit(ctx)
				if err == nil || !strings.Contains(err.Error(), "held by prepared transaction") {
					t.Errorf("commit over a prepared key: %v", err)
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
				return f.gated(t, cl, func(cl *Client, sctx context.Context) error { return cl.Commit(sctx) })
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
	if err := one.SetNodeProp(ctx, f.a0, "d", neograph.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := two.SetNodeProp(ctx, f.b0, "d", neograph.Int(2)); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- one.SetNodeProp(ctx, f.b0, "d", neograph.Int(1)) }()
	time.Sleep(50 * time.Millisecond) // let one queue up behind two's lock
	var err error
	if asBatch {
		var b Batch
		b.SetNodeProp(f.a0, "d", neograph.Int(2))
		_, err = two.RunBatch(ctx, &b)
	} else {
		err = two.SetNodeProp(ctx, f.a0, "d", neograph.Int(2))
	}
	if err == nil {
		// one was the victim instead; two holds both locks until it ends.
		two.Abort(ctx)
		return <-blocked
	}
	if asBatch {
		wantBatchErr(t, err, 0)
	}
	two.Abort(ctx) // release one
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
		err := cl.Begin(ctx, text) // "server: bad isolation <text>"
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Fatalf("begin with isolation %q: %v", text, err)
		}
		for _, sentinel := range []error{
			neograph.ErrWriteConflict, neograph.ErrNotFound, neograph.ErrDeadlock, neograph.ErrTxDone,
			neograph.ErrHasRels, neograph.ErrReadOnlyReplica, context.DeadlineExceeded,
			ErrUnavailable, ErrOverloaded, ErrBroken,
		} {
			if errors.Is(err, sentinel) {
				t.Errorf("begin with isolation %q surfaced as %v", text, sentinel)
			}
		}
		if cl.InTx() || cl.Broken() {
			t.Fatalf("a refused begin left the session in tx=%v broken=%v", cl.InTx(), cl.Broken())
		}
	}
	// ...and a pool does not take such a server-answered error for a dead
	// primary: no failover, the error comes straight back.
	p, err := OpenPool(ctx, PoolConfig{Primary: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	calls := 0
	err = p.Write(ctx, "", func(c *Client) error {
		calls++
		return c.Begin(ctx, "connection refused")
	})
	if err == nil || calls != 1 {
		t.Fatalf("pool write ran fn %d times (err %v), want once: the server answered", calls, err)
	}
}
