package client_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neograph"
	. "neograph/client"
	"neograph/internal/fleet"
)

// TestSessionsDropStaleSession: a parked session whose server restarted is
// handed out once more — nothing says it is stale until it is used — breaks
// under the call, is closed on return rather than parked again, and the
// next borrow dials the restarted server.
func TestSessionsDropStaleSession(t *testing.T) {
	f, err := fleet.Start(fleet.Spec{DB: neograph.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := f.Groups[0][0]
	ctx := context.Background()
	s := NewSessions(1)
	defer s.Close()

	first, err := s.Borrow(ctx, n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	s.Return(first)

	if err := n.Crash(); err != nil {
		t.Fatal(err)
	}
	if n, err = fleet.StartNode(n.Config); err != nil { // same directory, same ports
		t.Fatal(err)
	}
	f.Groups[0][0] = n

	stale, err := s.Borrow(ctx, n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if stale != first {
		t.Fatal("the parked session was not the one handed out")
	}
	if err := stale.Ping(ctx); err == nil || !stale.Broken() {
		t.Fatalf("ping on a session to a server that died: %v, broken=%v", err, stale.Broken())
	}
	s.Return(stale)
	fresh, err := s.Borrow(ctx, n.Addr()) // bound 1: only a freed permit lets this dial
	if err != nil {
		t.Fatal(err)
	}
	defer s.Return(fresh)
	if fresh == stale {
		t.Fatal("a broken session was parked again")
	}
	if err := fresh.Ping(ctx); err != nil {
		t.Fatalf("ping on the redialled session: %v", err)
	}
}

// TestSessionsCloseMidTransaction: a session returned with a transaction
// open is closed, not handed to the next borrower.
func TestSessionsCloseMidTransaction(t *testing.T) {
	_, srv, _ := startServer(t)
	ctx := context.Background()
	s := NewSessions(1)
	defer s.Close()
	c, err := s.Borrow(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(ctx, ""); err != nil {
		t.Fatal(err)
	}
	s.Return(c)
	if c.Ping(ctx) == nil {
		t.Error("a session returned mid-transaction still has a live connection")
	}
	next, err := s.Borrow(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Return(next)
	if next == c || next.InTx() {
		t.Error("the next borrower got the abandoned transaction's session")
	}
}

// TestSessionsBound: never more than the bound out at once to one address
// (bound 1 serialises the callers — the 2PC coordinator's contract), and a
// borrower whose context ends while it waits gets the context's error.
func TestSessionsBound(t *testing.T) {
	_, srv, _ := startServer(t)
	ctx := context.Background()
	for _, bound := range []int{1, 3} {
		s := NewSessions(bound)
		var out, peak atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					c, err := s.Borrow(ctx, srv.Addr())
					if err != nil {
						t.Error(err)
						return
					}
					n := out.Add(1)
					for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
					}
					err = c.Ping(ctx)
					out.Add(-1)
					s.Return(c)
					if err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if got := int(peak.Load()); got > bound {
			t.Errorf("bound %d: %d sessions out at once", bound, got)
		}

		held := make([]*Client, bound)
		for i := range held {
			var err error
			if held[i], err = s.Borrow(ctx, srv.Addr()); err != nil {
				t.Fatal(err)
			}
		}
		wctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		if c, err := s.Borrow(wctx, srv.Addr()); err == nil {
			s.Return(c)
			t.Errorf("bound %d: one more borrowed with every session out", bound)
		} else if wctx.Err() == nil {
			t.Errorf("bound %d: the waiter gave up before its context did: %v", bound, err)
		}
		cancel()
		for _, c := range held {
			s.Return(c)
		}
		s.Close()
	}
}

// TestSessionsCloseRacingReturn: whichever of Close and a Return comes
// first, the returned session's connection ends up closed — never parked in
// a free-list nobody will read again.
func TestSessionsCloseRacingReturn(t *testing.T) {
	_, srv, _ := startServer(t)
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		s := NewSessions(2)
		c, err := s.Borrow(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); s.Return(c) }()
		go func() { defer wg.Done(); s.Close() }()
		wg.Wait()
		if err := c.Ping(ctx); err == nil {
			t.Fatalf("round %d: a session returned beside Close still has a live connection", i)
		}
		if _, err := s.Borrow(ctx, srv.Addr()); err == nil {
			t.Fatal("borrowed from a closed cache")
		}
	}
}
