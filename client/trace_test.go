package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"neograph"
	. "neograph/client"
	"neograph/internal/fleet"
	"neograph/internal/server"
	"neograph/internal/trace"
)

// traceLine is the JSONL shape /debug/traces emits, as a test consumer
// sees it.
type traceLine struct {
	TraceID string `json:"trace_id"`
	Spans   []struct {
		Name   string `json:"name"`
		Parent string `json:"parent"`
	} `json:"spans"`
}

// fetchTraces scrapes a /debug/traces endpoint.
func fetchTraces(t *testing.T, url string) []traceLine {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []traceLine
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var tl traceLine
		if err := dec.Decode(&tl); err != nil {
			t.Fatal(err)
		}
		out = append(out, tl)
	}
	return out
}

// spanNames flattens a tracer's ring into trace ID -> set of span names.
func spanNames(tr *trace.Tracer) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, rec := range tr.Traces() {
		names := out[rec.TraceID]
		if names == nil {
			names = map[string]bool{}
			out[rec.TraceID] = names
		}
		for _, sp := range rec.Spans {
			names[sp.Name] = true
		}
	}
	return out
}

// TestTraceBatchPropagation: a traced client.Batch call carries ONE
// trace ID across the wire — the client mints the root, the server
// records its server.batch span under the same ID, and the trace is
// retrievable from the server's /debug/traces JSONL endpoint.
func TestTraceBatchPropagation(t *testing.T) {
	srvTracer := trace.New(0, 0) // server samples nothing on its own
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewWithConfig(db, "127.0.0.1:0", server.Config{Tracer: srvTracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })

	ctx := context.Background()
	cl, err := Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	clTracer := trace.New(1, 0)
	cl.SetTracer(clTracer)

	b := &Batch{}
	b.CreateNode([]string{"Traced"}, nil)
	b.SetNodePropRef(0, "k", neograph.Int(1))
	if _, err := cl.RunBatch(ctx, b); err != nil {
		t.Fatal(err)
	}

	// The client minted exactly one root for the one call.
	var tid string
	for id, names := range spanNames(clTracer) {
		if names["client.batch"] {
			if tid != "" {
				t.Fatalf("batch produced two traces: %s and %s", tid, id)
			}
			tid = id
		}
	}
	if tid == "" {
		t.Fatal("client recorded no client.batch root")
	}

	// The server recorded the same trace ID, visible over /debug/traces.
	ts := httptest.NewServer(trace.Handler(srvTracer))
	defer ts.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		lines := fetchTraces(t, ts.URL+"/debug/traces?trace_id="+tid)
		found := false
		for _, l := range lines {
			for _, sp := range l.Spans {
				if sp.Name == "server.batch" {
					found = true
				}
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server /debug/traces never showed server.batch under %s: %+v", tid, lines)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPoolOverloadRetrySingleTrace: a pool write that is rejected with
// ErrOverloaded and retried lands every attempt under ONE pool.write
// root — the backoff loop does not fragment the operation across trace
// IDs.
func TestPoolOverloadRetrySingleTrace(t *testing.T) {
	srv := startTightServer(t)
	ctx := context.Background()
	tracer := trace.New(1, 0)
	p, err := openPool(ctx, RouterConfig{Partitions: Group(srv.Addr()), Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	err = p.Write(ctx, "tok", func(c *Client) error {
		_, err := c.CreateNode(ctx, nil, bigProps())
		return err
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("pool write: got %v, want ErrOverloaded", err)
	}

	var roots, attempts int
	for _, rec := range tracer.Traces() {
		inTrace := 0
		for _, sp := range rec.Spans {
			switch sp.Name {
			case "pool.write":
				roots++
			case "client.create_node":
				inTrace++
			}
		}
		if inTrace > attempts {
			attempts = inTrace
		}
	}
	if roots != 1 {
		t.Fatalf("overloaded write produced %d pool.write roots, want 1", roots)
	}
	if attempts < 2 {
		t.Fatalf("single trace holds %d create_node attempts, want >= 2 (retries must share the root)", attempts)
	}
}

// TestPoolFailoverSingleTrace: a pool write that spans the primary dying
// and a replica being promoted still resolves to ONE trace — the
// re-discovery retries ride the same pool.write root.
func TestPoolFailoverSingleTrace(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	tracer := trace.New(1, 0)
	cfg := f.poolConfig(LeastLag)
	cfg.Tracer = tracer
	p, err := openPool(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"Acked"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Primary dies hard; the operator promotes the freshest replica onto
	// the old shipping address.
	f.psrv.Close()
	f.pdb.Crash()
	promoteSrv := f.r1srv
	if f.r2db.AppliedLSN() > f.r1db.AppliedLSN() {
		promoteSrv = f.r2srv
	}
	cl, err := Dial(ctx, promoteSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Promote(ctx, f.replAddr); err != nil {
		t.Fatalf("promote: %v", err)
	}

	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"Acked"}, nil)
		return err
	}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}

	// Two p.Write calls -> exactly two pool.write roots; the failover
	// write's dead-primary attempts and its eventual success on the
	// promoted node share one trace ID.
	var roots int
	for _, names := range spanNames(tracer) {
		if names["pool.write"] {
			roots++
		}
	}
	if roots != 2 {
		t.Fatalf("two routed writes produced %d pool.write traces, want exactly 2 (failover retries must not mint new roots)", roots)
	}
}

// TestClusterTraceEndToEnd is the PR's acceptance walk: on a 1-primary/
// 1-replica cluster sharing one tracer in-process, a traced commit
// yields ONE trace ID whose span tree covers the client call, the server
// op, per-stripe validation, the WAL fsync batch, the quorum wait, and
// the replica's apply — and the whole tree is retrievable from
// /debug/traces.
func TestClusterTraceEndToEnd(t *testing.T) {
	tracer := trace.New(1, 256)
	// First-committer-wins, whose per-stripe latch footprint is what the
	// validate.stripe spans record. Start returns once the replica is
	// attached, so the quorum wait is a real wait and the apply is
	// traceable.
	f, err := fleet.Start(fleet.Spec{
		Replicas: 1,
		DB: neograph.Options{
			Dir:          t.TempDir(),
			SyncReplicas: 1,
			Conflict:     neograph.FirstCommitterWins,
			Tracer:       tracer,
		},
		Server: server.Config{Tracer: tracer},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })

	ctx := context.Background()
	cl, err := Dial(ctx, f.Groups[0][0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTracer(tracer)

	id, err := cl.CreateNode(ctx, []string{"Person"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Begin(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetNodeProp(ctx, id, "traced", neograph.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	want := []string{
		"client.batch",     // SDK call: the transaction's one frame, its commit included
		"server.batch",     // server op
		"commit.validate",  // engine validation phase
		"validate.stripe",  // per-stripe validation
		"wal.append",       // log write
		"commit.install",   // version install
		"wal.fsync_batch",  // group-commit fsync
		"repl.quorum_wait", // sync-replica ack wait
		"replica.apply",    // the other node, via the shipped trace record
	}
	// replica.apply arrives asynchronously over the shipper stream.
	var tid string
	var missing []string
	deadline := time.Now().Add(5 * time.Second)
	for {
		tid, missing = "", nil
		for id, names := range spanNames(tracer) {
			if !names["client.batch"] {
				continue
			}
			tid = id
			for _, w := range want {
				if !names[w] {
					missing = append(missing, w)
				}
			}
			break
		}
		if tid != "" && len(missing) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("commit trace %q incomplete, missing %v", tid, missing)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The full tree is one /debug/traces line under one trace ID.
	ts := httptest.NewServer(trace.Handler(tracer))
	defer ts.Close()
	lines := fetchTraces(t, fmt.Sprintf("%s/debug/traces?trace_id=%s", ts.URL, tid))
	if len(lines) != 1 {
		t.Fatalf("trace_id filter returned %d lines, want 1", len(lines))
	}
	got := map[string]bool{}
	for _, sp := range lines[0].Spans {
		got[sp.Name] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Errorf("/debug/traces line missing span %q", w)
		}
	}
}
