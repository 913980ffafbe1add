package server

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/metrics"
	"neograph/internal/wire"
)

// startAdmissionServer spins up an in-memory DB behind a server with the
// given admission budgets.
func startAdmissionServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(db, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	return srv
}

// rawSession opens one wire-level session for hand-built frames.
func rawSession(t *testing.T, addr string) (*json.Encoder, *json.Decoder) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return json.NewEncoder(conn), json.NewDecoder(conn)
}

// TestAdmissionOversizedFrameRejected: a single frame larger than
// MaxQueuedBytes is deterministically rejected with the structured
// overloaded code, the session survives, and the budget gauges return to
// zero — the clean-rejection contract.
func TestAdmissionOversizedFrameRejected(t *testing.T) {
	srv := startAdmissionServer(t, Config{MaxQueuedBytes: 256})
	enc, dec := rawSession(t, srv.Addr())

	big := &wire.Request{Op: wire.OpCreateNode, Props: wire.Props(neograph.Props{
		"blob": neograph.String(strings.Repeat("x", 1024)),
	})}
	if err := enc.Encode(big); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Code != wire.CodeOverloaded {
		t.Fatalf("oversized frame: got ok=%v code=%q, want overloaded rejection", resp.OK, resp.Code)
	}

	// The session must survive the rejection: a small frame goes through.
	if err := enc.Encode(&wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	resp = wire.Response{}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("ping after rejection failed: %s", resp.Error)
	}

	ad := drained(srv)
	if ad.Rejected == 0 {
		t.Error("rejection not counted")
	}
	if ad.Inflight != 0 || ad.QueuedBytes != 0 {
		t.Errorf("budget not fully released: inflight=%d queued=%d", ad.Inflight, ad.QueuedBytes)
	}
	if ad.QueuedBytesPeak > 256 {
		t.Errorf("queued-bytes peak %d exceeds the %d budget", ad.QueuedBytesPeak, 256)
	}
}

// drained snapshots the admission state once the budget is released. The
// server releases a request's charge right AFTER writing its response, so
// a client that has just read that response can look a moment too early.
func drained(srv *Server) AdmissionStats {
	ad := srv.Admission()
	for end := time.Now().Add(2 * time.Second); ad.Inflight != 0 && time.Now().Before(end); ad = srv.Admission() {
		time.Sleep(time.Millisecond)
	}
	return ad
}

// TestAdmissionOverloadBoundedAndRecovers hammers a tightly budgeted
// server from many sessions and asserts the overload contract: admitted
// load never exceeds the budgets (the peaks are exact — only admitted
// requests contribute), the excess is rejected with the structured code
// rather than queued or dropped, and once the load stops the server has
// fully recovered (budget gauges at zero, fresh requests served).
func TestAdmissionOverloadBoundedAndRecovers(t *testing.T) {
	const (
		maxInflight = 2
		maxQueued   = 256 << 10
		hammers     = 16
	)
	srv := startAdmissionServer(t, Config{MaxInflight: maxInflight, MaxQueuedBytes: maxQueued})

	// Each hammer loops a property-bearing 1000-op batch — slow enough to
	// execute that concurrent arrivals exceed MaxInflight and get
	// rejected, even on hardware fast enough to finish a light batch
	// before the next hammer's request lands.
	props := wire.Props(neograph.Props{"k": neograph.String("0123456789abcdef")})
	batch := &wire.Request{Op: wire.OpBatch}
	for i := 0; i < 1000; i++ {
		batch.Batch = append(batch.Batch, wire.Request{Op: wire.OpCreateNode, Props: props})
	}

	var oks, rejects atomic.Uint64
	var badCodes atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < hammers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			enc, dec := json.NewEncoder(conn), json.NewDecoder(conn)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := enc.Encode(batch); err != nil {
					return
				}
				var resp wire.Response
				if err := dec.Decode(&resp); err != nil {
					return
				}
				switch {
				case resp.OK:
					oks.Add(1)
				case resp.Code == wire.CodeOverloaded:
					rejects.Add(1)
				default:
					badCodes.Add(1)
				}
			}
		}()
	}

	// Sample the admission state under load until rejections are observed
	// (bounded), asserting the budgets hold at every sample.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ad := srv.Admission()
		if ad.InflightPeak > maxInflight {
			t.Errorf("inflight peak %d exceeds budget %d", ad.InflightPeak, maxInflight)
			break
		}
		if ad.QueuedBytesPeak > maxQueued {
			t.Errorf("queued-bytes peak %d exceeds budget %d", ad.QueuedBytesPeak, maxQueued)
			break
		}
		if rejects.Load() > 0 && oks.Load() > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if oks.Load() == 0 {
		t.Error("no request was ever admitted under load")
	}
	if rejects.Load() == 0 {
		t.Error("no request was rejected: overload never triggered")
	}
	if n := badCodes.Load(); n != 0 {
		t.Errorf("%d failures carried a code other than overloaded", n)
	}

	// Full recovery: budgets drained, a fresh session is served.
	ad := drained(srv)
	if ad.Inflight != 0 || ad.QueuedBytes != 0 {
		t.Errorf("budget not drained after load: inflight=%d queued=%d", ad.Inflight, ad.QueuedBytes)
	}
	enc, dec := rawSession(t, srv.Addr())
	if err := enc.Encode(&wire.Request{Op: wire.OpPing}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("ping after overload failed: %s", resp.Error)
	}
}

// TestServerMetricsEndToEnd drives a server carrying a metrics registry
// and asserts the scrape shows live series from every instrumented
// layer: requests, sessions, admission, engine commits, WAL and the
// page cache (persistent mode).
func TestServerMetricsEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	db, err := neograph.Open(neograph.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	RegisterDBMetrics(reg, db)
	srv, err := NewWithConfig(db, "127.0.0.1:0", Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })

	cl, err := client.Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	id, err := cl.CreateNode(ctx, []string{"M"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.GetNode(ctx, id); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"neograph_server_sessions 1",
		`neograph_server_request_seconds_bucket{class="write",le="+Inf"} 1`,
		`neograph_server_request_seconds_bucket{class="read",le="+Inf"} 1`,
		"neograph_server_requests_admitted_total 2",
		"neograph_txn_committed_total",
		"neograph_wal_durable_lsn",
		"neograph_wal_fsync_seconds_bucket",
		"neograph_wal_append_failures_total 0",
		`neograph_commit_record_bytes_bucket{le="+Inf"} 1`, // the one create
		`neograph_pagecache_hits_total{file="nodes"}`,
		`neograph_open_seconds{stage="store"}`,
		`neograph_open_seconds{stage="scan"}`,
		`neograph_open_seconds{stage="replay"}`,
		`neograph_open_entities{kind="node"} 0`, // opened empty
		`neograph_open_entities{kind="rel"} 0`,
		`neograph_open_entities{kind="wal_record"} 0`,
		"neograph_open_workers",
		"neograph_store_journal_replays_total 0",
		"neograph_checkpoint_failures_total 0",
		"neograph_last_checkpoint_age_seconds",
		`neograph_index_materialised_keys{index="node_prop"} 0`, // nothing was looked up
		`neograph_index_builds_total{index="rel_prop"} 0`,
		`neograph_index_build_seconds_count{index="node_prop"} 0`,
		"neograph_repl_connected 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestTxnFramesHistogram: neograph_server_txn_frames is the number of
// request frames each explicit transaction spanned, observed when it ends —
// 3 for the SDK's read-read-write transfer, one per call for a client that
// flushes every call, and a disconnect's abort is counted too.
func TestTxnFramesHistogram(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := startAdmissionServer(t, Config{Metrics: reg})
	dial := func() *client.Client {
		cl, err := client.Dial(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	cl := dial()
	a, _ := cl.CreateNode(ctx, nil, nil)
	b, _ := cl.CreateNode(ctx, nil, nil)
	transfer := func(eager bool) {
		t.Helper()
		step := func(err error) {
			t.Helper()
			if err == nil && eager {
				err = cl.Flush(ctx)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		step(cl.Begin(ctx, ""))
		for _, id := range []uint64{a, b} {
			_, err := cl.GetNode(ctx, id)
			step(err)
		}
		step(cl.SetNodeProp(ctx, a, "balance", neograph.Int(1)))
		step(cl.SetNodeProp(ctx, b, "balance", neograph.Int(2)))
		step(cl.SetNodeProp(ctx, a, "seq", neograph.Int(3)))
		step(cl.Commit(ctx))
	}
	scrape := func() string {
		var sb strings.Builder
		if err := reg.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	want := func(lines ...string) {
		t.Helper()
		out := scrape()
		for _, l := range lines {
			if !strings.Contains(out, l) {
				t.Errorf("scrape missing %q in:\n%s", l, grepLines(out, "txn_frames"))
			}
		}
	}

	transfer(false)
	want(`neograph_server_txn_frames_bucket{le="2"} 0`, `neograph_server_txn_frames_bucket{le="3"} 1`,
		"neograph_server_txn_frames_sum 3", "neograph_server_txn_frames_count 1")
	transfer(true) // begin · get · get · set · set · set · commit
	want(`neograph_server_txn_frames_bucket{le="6"} 1`, `neograph_server_txn_frames_bucket{le="8"} 2`,
		"neograph_server_txn_frames_sum 10", "neograph_server_txn_frames_count 2")

	// A transaction in one frame; one a failing sub-op aborts; one the
	// client walks away from.
	if err := cl.Begin(ctx, "rc"); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetNodeProp(ctx, a, "seq", neograph.Int(4)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	want("neograph_server_txn_frames_sum 11", "neograph_server_txn_frames_count 3")
	cl.Begin(ctx, "")
	if _, err := cl.GetNode(ctx, a); err != nil {
		t.Fatal(err)
	}
	cl.SetNodeProp(ctx, 1<<40, "seq", neograph.Int(5))
	if _, err := cl.GetNode(ctx, a); err == nil || cl.InTx() {
		t.Fatalf("a flush carrying a write to a missing node: %v, in tx %v", err, cl.InTx())
	}
	want("neograph_server_txn_frames_sum 13", "neograph_server_txn_frames_count 4")
	gone := dial()
	gone.Begin(ctx, "")
	if _, err := gone.GetNode(ctx, a); err != nil {
		t.Fatal(err)
	}
	gone.Close()
	for end := time.Now().Add(5 * time.Second); !strings.Contains(scrape(), "neograph_server_txn_frames_count 5") && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	want("neograph_server_txn_frames_sum 14", "neograph_server_txn_frames_count 5")
}

func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}

// TestFlushAdmittedOrShedAsOneUnit: a transaction's flush is one frame, so
// admission takes or sheds all of it — one rejection, nothing of it run —
// and the shed flush leaves the transaction open and its queue intact: the
// same call again, once there is room, carries every deferred write.
func TestFlushAdmittedOrShedAsOneUnit(t *testing.T) {
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(db, "127.0.0.1:0", Config{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	dial := func() *client.Client {
		cl, err := client.Dial(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	cl, blocker := dial(), dial()
	var ids [4]uint64
	for i := range ids {
		if ids[i], err = cl.CreateNode(ctx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The last CreateNode's charge is released after its response is
	// written: wait for it, so the poll below can only see the blocker.
	drained(srv)
	// Fill the server: an embedded transaction holds ids[3]'s write lock and
	// a read-committed session's write waits for it, in flight.
	holder := db.Begin()
	if err := holder.SetNodeProp(ids[3], "v", neograph.Int(0)); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		blocker.Begin(ctx, "rc")
		blocker.SetNodeProp(ctx, ids[3], "v", neograph.Int(1))
		blocked <- blocker.Commit(ctx)
	}()
	for end := time.Now().Add(5 * time.Second); srv.Admission().Inflight != 1; {
		if time.Now().After(end) {
			t.Fatal("the blocker's frame never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	if err := cl.Begin(ctx, ""); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids[:3] {
		if err := cl.SetNodeProp(ctx, id, "v", neograph.Int(int64(10+i))); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.Admission()
	_, err = cl.GetNode(ctx, ids[0])
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("flush into a full server: %v, want ErrOverloaded", err)
	}
	after := srv.Admission()
	if after.Rejected != before.Rejected+1 || after.Admitted != before.Admitted {
		t.Errorf("the flush cost %d rejections and %d admissions, want 1 and 0",
			after.Rejected-before.Rejected, after.Admitted-before.Admitted)
	}
	if !cl.InTx() || cl.Broken() {
		t.Fatalf("a shed flush left the session in tx=%v broken=%v", cl.InTx(), cl.Broken())
	}
	if err := cl.Commit(ctx); !errors.Is(err, client.ErrOverloaded) || !cl.InTx() {
		t.Fatalf("a shed commit: %v, in tx=%v; want ErrOverloaded and the transaction still open", err, cl.InTx())
	}

	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	drained(srv)
	n, err := cl.GetNode(ctx, ids[0]) // the same call again: begin, the three writes, the read
	if err != nil {
		t.Fatal(err)
	}
	if n.Props["v"] != neograph.Int(10) {
		t.Errorf("the retried flush reads v=%v, want its own deferred write 10", n.Props["v"])
	}
	if err := cl.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids[:3] {
		n, err := cl.GetNode(ctx, id)
		if err != nil || n.Props["v"] != neograph.Int(int64(10+i)) {
			t.Errorf("node %d after the retry committed: v=%v err=%v, want %d", id, n.Props["v"], err, 10+i)
		}
	}
}

// TestAbortServedOnAFullServer: an abort is served without admission. A
// session that gives up on its transaction while the server is full must
// still release it — its write locks and its snapshot — not be shed and
// leave them held until it retries or disconnects.
func TestAbortServedOnAFullServer(t *testing.T) {
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(db, "127.0.0.1:0", Config{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	dial := func() *client.Client {
		cl, err := client.Dial(ctx, srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	cl, blocker := dial(), dial()
	a, err := cl.CreateNode(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cl.CreateNode(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// cl holds a's write lock on the server.
	if err := cl.Begin(ctx, ""); err != nil {
		t.Fatal(err)
	}
	if err := cl.SetNodeProp(ctx, a, "v", neograph.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	drained(srv)
	// Fill the server: an embedded transaction holds b's write lock and a
	// read-committed session's write waits for it, in flight.
	holder := db.Begin()
	defer holder.Abort() // on a failure below, lets the blocker finish
	if err := holder.SetNodeProp(b, "v", neograph.Int(0)); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() {
		blocker.Begin(ctx, "rc")
		blocker.SetNodeProp(ctx, b, "v", neograph.Int(1))
		blocked <- blocker.Commit(ctx)
	}()
	for end := time.Now().Add(5 * time.Second); srv.Admission().Inflight != 1; {
		if time.Now().After(end) {
			t.Fatal("the blocker's frame never went in flight")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.GetNode(ctx, b); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("a read on the full server: %v, want ErrOverloaded", err)
	}

	before := srv.Admission()
	if err := cl.Abort(ctx); err != nil {
		t.Fatalf("abort on a full server: %v", err)
	}
	if cl.InTx() {
		t.Fatal("the session still holds a transaction after its abort")
	}
	if after := srv.Admission(); after.Rejected != before.Rejected {
		t.Errorf("the abort counted %d rejections, want 0", after.Rejected-before.Rejected)
	}
	// The abort released a's lock: an embedded writer takes it now.
	w := db.Begin()
	if err := w.SetNodeProp(a, "v", neograph.Int(2)); err != nil {
		t.Fatalf("a is still locked after the abort: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
}
