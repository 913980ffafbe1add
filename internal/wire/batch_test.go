package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"neograph/internal/value"
)

func TestValidateBatch(t *testing.T) {
	ok := func(sub ...Request) error {
		return ValidateBatch(&Request{Op: OpBatch, Batch: sub})
	}
	if err := ok(Request{Op: OpPing}, Request{Op: OpCreateNode}); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	if err := ok(); err == nil {
		t.Error("empty batch accepted")
	}
	if err := ValidateBatch(&Request{Op: OpPing}); err == nil {
		t.Error("non-batch request validated as batch")
	}
	for _, bad := range []string{OpBatch, OpAbort, OpPromote, OpCheckpoint, OpGC, OpStats, OpReplStatus, "bogus"} {
		if err := ok(Request{Op: bad}); err == nil {
			t.Errorf("op %q accepted inside a batch", bad)
		}
	}
	// Placement: a begin only first, a commit only last — and neither
	// inside a prepare, whose transaction the coordinator decides.
	begin, commit, ping := Request{Op: OpBegin, Isolation: "rc"}, Request{Op: OpCommit}, Request{Op: OpPing}
	for _, good := range [][]Request{
		{begin, ping}, {ping, commit}, {begin, ping, commit}, {begin}, {commit}, {begin, commit},
	} {
		if err := ok(good...); err != nil {
			t.Errorf("bracketed batch %v rejected: %v", opsOf(good), err)
		}
		if err := ValidateOps(good); err == nil {
			t.Errorf("prepare of %v accepted", opsOf(good))
		}
	}
	for _, bad := range [][]Request{
		{ping, begin}, {commit, ping}, {begin, begin}, {commit, commit}, {ping, begin, commit}, {begin, commit, ping},
	} {
		if err := ok(bad...); err == nil || !strings.Contains(err.Error(), "may only be") {
			t.Errorf("misplaced session control %v: %v", opsOf(bad), err)
		}
	}
	if err := ok(Request{Op: OpPing, WaitLSN: 7}); err == nil {
		t.Error("per-sub-op wait_lsn accepted")
	}
	if err := ok(Request{Op: OpPing, DeadlineMS: 7}); err == nil {
		t.Error("per-sub-op deadline_ms accepted")
	}
	over := make([]Request, MaxBatchOps+1)
	for i := range over {
		over[i] = Request{Op: OpPing}
	}
	if err := ok(over...); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Errorf("oversized batch: %v", err)
	}
	exact := make([]Request, MaxBatchOps)
	for i := range exact {
		exact[i] = Request{Op: OpPing}
	}
	if err := ok(exact...); err != nil {
		t.Errorf("batch at the limit rejected: %v", err)
	}
}

func opsOf(reqs []Request) (ops []string) {
	for _, r := range reqs {
		ops = append(ops, r.Op)
	}
	return ops
}

func TestBatchRoundTrip(t *testing.T) {
	req := Request{Op: OpBatch, Batch: []Request{
		{Op: OpCreateNode, Labels: []string{"A", "B"}},
		{Op: OpCreateRel, Type: "KNOWS", Start: 1, End: 2},
		{Op: OpNeighbors, ID: 3, Dir: "out", Types: []string{"KNOWS"}},
	}}
	data, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Batch) != 3 || back.Batch[1].Type != "KNOWS" || back.Batch[2].Dir != "out" {
		t.Fatalf("batch round trip = %+v", back)
	}
	if err := ValidateBatch(&back); err != nil {
		t.Fatal(err)
	}

	idx := 1
	resp := Response{OK: true, LSN: 99, Results: []Response{{OK: true, ID: 7}, {OK: true}}, FailedOp: &idx}
	data, err = json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	var rback Response
	if err := json.Unmarshal(data, &rback); err != nil {
		t.Fatal(err)
	}
	if len(rback.Results) != 2 || rback.Results[0].ID != 7 || rback.FailedOp == nil || *rback.FailedOp != 1 {
		t.Fatalf("response round trip = %+v", rback)
	}
}

// FuzzDecodeBatch hammers batch request decoding + validation with
// arbitrary bytes: decode must never panic, anything that validates must
// survive a re-encode/re-validate round trip, and every sub-op's value and
// props the strict decode accepts are exactly the bytes the encoder writes
// for what it read.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"op":"batch","batch":[{"op":"ping"}]}`))
	f.Add([]byte(`{"op":"batch","batch":[{"op":"create_node","labels":["A"],"props":"AQFrAgI="}]}`))
	f.Add([]byte(`{"op":"batch","batch":[{"op":"batch","batch":[{"op":"ping"}]}]}`))
	f.Add([]byte(`{"op":"batch","batch":[]}`))
	f.Add([]byte(`{"op":"batch","batch":[{"op":"set_node_prop","id":1,"key":"k","value":"AwAAAAAAAPg/","wait_lsn":3}]}`))
	f.Add([]byte(`{"op":"batch","batch":[{"op":"begin","iso":"rc"},{"op":"get_node","id":1},{"op":"commit"}]}`))
	f.Add([]byte(`{"op":"batch","batch":[{"op":"commit"},{"op":"begin"}]}`))
	f.Add([]byte(`{"op":"batch"`))
	f.Add([]byte(`{"op":"ping"}`))
	f.Add([]byte(`{"op":"batch","batch":[{"op":"create_node","props":"AgFrAgIBawIC"},{"op":"set_node_prop","value":"BgEGAQIC"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Through the framing the server and the SDK use: read the frame
		// off a Conn, write it back, read it again.
		var req Request
		if _, err := NewConn(bytes.NewBuffer(data), 0).ReadRequest(&req); err != nil {
			return
		}
		if err := ValidateBatch(&req); err != nil {
			return
		}
		for i, sub := range req.Batch {
			if v, err := value.ParseValue(sub.Value); err == nil && len(sub.Value) > 0 && !bytes.Equal(value.AppendValue(nil, v), sub.Value) {
				t.Fatalf("sub-op %d: value % x read as %v, which encodes as % x", i, sub.Value, v, value.AppendValue(nil, v))
			}
			if m, err := value.ParseMap(sub.Props); err == nil && len(sub.Props) > 0 && !bytes.Equal(value.AppendMap(nil, m), sub.Props) {
				t.Fatalf("sub-op %d: props % x read as %v, which encode as % x", i, sub.Props, m, value.AppendMap(nil, m))
			}
		}
		// A validated batch must re-encode and still validate: the server
		// trusts ValidateBatch before executing.
		var out bytes.Buffer
		c := NewConn(&out, 0)
		if err := c.WriteRequest(&req); err != nil {
			t.Fatalf("validated batch failed to re-encode: %v", err)
		}
		var back Request
		if n, err := c.ReadRequest(&back); err != nil || n == 0 {
			t.Fatalf("re-encoded batch failed to decode: %d bytes, %v", n, err)
		}
		if err := ValidateBatch(&back); err != nil {
			t.Fatalf("re-encoded batch failed validation: %v", err)
		}
		if len(back.Batch) != len(req.Batch) {
			t.Fatalf("batch length changed across round trip: %d -> %d", len(req.Batch), len(back.Batch))
		}
	})
}
