package server

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neograph"
	"neograph/internal/trace"
	"neograph/internal/wire"
)

// TestResponseEchoesSeqAndTraceID: every response frame — success,
// error, and admission rejection — carries the request's seq and trace
// ID back, so a pipelining client can pair frames and a tracing client
// can stitch its span tree without trusting frame order alone.
func TestResponseEchoesSeqAndTraceID(t *testing.T) {
	srv := startAdmissionServer(t, Config{MaxQueuedBytes: 256})
	enc, dec := rawSession(t, srv.Addr())

	send := func(req *wire.Request) wire.Response {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Success frame.
	resp := send(&wire.Request{Op: wire.OpPing, Seq: 7,
		Trace: &wire.TraceContext{TraceID: "11112222333344445555666677778888", SpanID: "aaaabbbbccccdddd"}})
	if !resp.OK {
		t.Fatalf("ping failed: %s", resp.Error)
	}
	if resp.Seq != 7 {
		t.Errorf("success frame seq = %d, want 7", resp.Seq)
	}
	if resp.TraceID != "11112222333344445555666677778888" {
		t.Errorf("success frame trace id = %q", resp.TraceID)
	}

	// Error frame (unknown op).
	resp = send(&wire.Request{Op: "no_such_op", Seq: 8,
		Trace: &wire.TraceContext{TraceID: "99990000999900009999000099990000"}})
	if resp.OK {
		t.Fatal("unknown op succeeded")
	}
	if resp.Seq != 8 {
		t.Errorf("error frame seq = %d, want 8", resp.Seq)
	}
	if resp.TraceID != "99990000999900009999000099990000" {
		t.Errorf("error frame trace id = %q", resp.TraceID)
	}

	// Admission rejection: the frame never reaches dispatch, yet the
	// rejection still pairs with its request.
	resp = send(&wire.Request{Op: wire.OpCreateNode, Seq: 9,
		Trace: &wire.TraceContext{TraceID: "feedfacefeedfacefeedfacefeedface"},
		Props: wire.Props(neograph.Props{"blob": neograph.String(strings.Repeat("x", 1024))})})
	if resp.OK {
		t.Fatal("oversized frame admitted")
	}
	if resp.Seq != 9 {
		t.Errorf("rejection frame seq = %d, want 9", resp.Seq)
	}
	if resp.TraceID != "feedfacefeedfacefeedfacefeedface" {
		t.Errorf("rejection frame trace id = %q", resp.TraceID)
	}

	// A request without a trace context gets its seq back and no trace ID.
	resp = send(&wire.Request{Op: wire.OpPing, Seq: 10})
	if !resp.OK || resp.Seq != 10 || resp.TraceID != "" {
		t.Errorf("untraced frame = {ok:%v seq:%d tid:%q}, want {true 10 \"\"}", resp.OK, resp.Seq, resp.TraceID)
	}
}

// TestServerSpanFromClientContext: a request arriving with a
// client-minted trace context is recorded under that trace ID even when
// the server's own head sampling is off, the server.<op> span is
// parented on the client's span, and the trace is retrievable from the
// /debug/traces JSONL handler.
func TestServerSpanFromClientContext(t *testing.T) {
	tracer := trace.New(0, 0) // sample 0: only remote contexts record
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithConfig(db, "127.0.0.1:0", Config{Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); db.Close() })
	enc, dec := rawSession(t, srv.Addr())

	const tid = "0123456789abcdef0123456789abcdef"
	const parent = "00000000deadbeef"
	if err := enc.Encode(&wire.Request{Op: wire.OpPing, Seq: 1,
		Trace: &wire.TraceContext{TraceID: tid, SpanID: parent}}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("ping: %s", resp.Error)
	}

	// The span finishes after the response is written; poll briefly.
	var got *trace.SpanRecord
	deadline := time.Now().Add(2 * time.Second)
	for got == nil && time.Now().Before(deadline) {
		for _, tr := range tracer.Traces() {
			if tr.TraceID != tid {
				continue
			}
			for i, sp := range tr.Spans {
				if sp.Name == "server.ping" {
					got = &tr.Spans[i]
				}
			}
		}
		if got == nil {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if got == nil {
		t.Fatalf("no server.ping span recorded under %s; traces: %+v", tid, tracer.Traces())
	}
	if got.Parent != parent {
		t.Errorf("server span parent = %q, want the client span %q", got.Parent, parent)
	}

	rr := httptest.NewRecorder()
	trace.Handler(tracer).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?trace_id="+tid, nil))
	body := rr.Body.String()
	if !strings.Contains(body, tid) || !strings.Contains(body, "server.ping") {
		t.Errorf("/debug/traces JSONL missing the trace:\n%s", body)
	}
}
