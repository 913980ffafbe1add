package server

import (
	"encoding/json"
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

	big := &wire.Request{Op: wire.OpCreateNode, Props: mustProps(t, neograph.Props{
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

func mustProps(t *testing.T, p neograph.Props) json.RawMessage {
	t.Helper()
	raw, err := wire.EncodeProps(p)
	if err != nil {
		t.Fatal(err)
	}
	return raw
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
	props := mustProps(t, neograph.Props{"k": neograph.String("0123456789abcdef")})
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
