package client_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"neograph"
	. "neograph/client"
	"neograph/internal/metrics"
	"neograph/internal/server"
)

// startTightServer runs an in-memory DB behind a server whose admission
// budget rejects any frame larger than ~256 bytes while small ops (ping,
// repl_status, bare creates) pass — the deterministic overload fixture.
func startTightServer(t *testing.T) *server.Server {
	t.Helper()
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithConfig(db, "127.0.0.1:0", server.Config{MaxQueuedBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	return srv
}

// bigProps is a payload whose wire frame exceeds the fixture's budget.
func bigProps() neograph.Props {
	return neograph.Props{"blob": neograph.String(strings.Repeat("x", 1024))}
}

// TestClientOverloadedRoundTrip: the server's structured overloaded code
// surfaces client-side as ErrOverloaded via errors.Is, the session
// survives the rejection, and a small request then succeeds.
func TestClientOverloadedRoundTrip(t *testing.T) {
	srv := startTightServer(t)
	ctx := context.Background()
	cl, err := Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	_, err = cl.CreateNode(ctx, nil, bigProps())
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("big create: got %v, want ErrOverloaded", err)
	}
	if cl.Broken() {
		t.Fatal("session marked broken by a clean admission rejection")
	}
	if _, err := cl.CreateNode(ctx, nil, nil); err != nil {
		t.Fatalf("small create after rejection: %v", err)
	}
}

// TestPoolBacksOffOnOverload: a pool write hitting a persistently
// overloaded primary retries with backoff (counted on the pool's metrics
// registry) instead of hammering, surfaces ErrOverloaded once the
// retries are spent, and recovers immediately when load fits the budget.
func TestPoolBacksOffOnOverload(t *testing.T) {
	srv := startTightServer(t)
	ctx := context.Background()
	reg := metrics.NewRegistry()
	p, err := openPool(ctx, RouterConfig{Partitions: Group(srv.Addr()), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	err = p.Write(ctx, "tok", func(c *Client) error {
		_, err := c.CreateNode(ctx, nil, bigProps())
		return err
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("pool write: got %v, want ErrOverloaded after bounded retries", err)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `neograph_pool_overload_backoffs_total{partition="0"} 6`) {
		t.Errorf("expected 6 counted backoffs, scrape:\n%s", b.String())
	}

	// Recovery: a write that fits the budget goes straight through.
	if err := p.Write(ctx, "tok", func(c *Client) error {
		_, err := c.CreateNode(ctx, nil, nil)
		return err
	}); err != nil {
		t.Fatalf("small pool write after overload: %v", err)
	}
}
