package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"neograph/internal/value"
)

// decodePlan parses raw the way the server receives a plan — inside a
// query request frame read off a Conn — and validates it: the entry points
// the tests and the fuzzer drive, so decode and structural validation
// cannot drift apart.
func decodePlan(raw []byte) (*QueryPlan, error) {
	frame := append(append([]byte(`{"op":"query","plan":`), raw...), '}', '\n')
	var req Request
	if _, err := NewConn(bytes.NewBuffer(frame), 0).ReadRequest(&req); err != nil {
		return nil, err
	}
	if err := ValidateQueryPlan(req.Plan); err != nil {
		return nil, err
	}
	return req.Plan, nil
}

func mustPlan(t *testing.T, raw string) *QueryPlan {
	t.Helper()
	p, err := decodePlan([]byte(raw))
	if err != nil {
		t.Fatalf("plan %s rejected: %v", raw, err)
	}
	return p
}

func TestQueryPlanValid(t *testing.T) {
	for _, raw := range []string{
		`{"seed":{"ids":[1]}}`,
		`{"seed":{"ids":[1,2,3]},"stages":[{"op":"khop","dir":"out","depth":3}]}`,
		`{"seed":{"label":"Person"},"stages":[{"op":"expand","dir":"both"},{"op":"limit","n":10}]}`,
		`{"seed":{"key":"age","value":"Akg="},"stages":[{"op":"count"}]}`,
		`{"seed":{"all":true},"stages":[{"op":"filter_label","label":"A"},{"op":"filter_lt","key":"age","value":"AlA="},{"op":"count"}]}`,
		`{"seed":{"ids":[1]},"stages":[{"op":"shortest_path","end":9,"dir":"out"}]}`,
		`{"seed":{"all":true},"stages":[{"op":"pagerank","damping":0.85,"iterations":20,"n":10}]}`,
	} {
		mustPlan(t, raw)
	}
}

func TestQueryPlanRejected(t *testing.T) {
	for _, tc := range []struct{ name, raw, want string }{
		{"no-seed", `{"seed":{}}`, "exactly one"},
		{"two-seeds", `{"seed":{"ids":[1],"all":true}}`, "exactly one"},
		{"prop-seed-no-value", `{"seed":{"key":"age"}}`, "needs a value"},
		{"bad-stage", `{"seed":{"ids":[1]},"stages":[{"op":"frobnicate"}]}`, "unknown op"},
		{"bad-dir", `{"seed":{"ids":[1]},"stages":[{"op":"expand","dir":"sideways"}]}`, "bad direction"},
		{"khop-no-depth", `{"seed":{"ids":[1]},"stages":[{"op":"khop"}]}`, "depth"},
		{"khop-deep", `{"seed":{"ids":[1]},"stages":[{"op":"khop","depth":1000}]}`, "depth"},
		{"limit-zero", `{"seed":{"ids":[1]},"stages":[{"op":"limit"}]}`, "positive"},
		{"count-not-last", `{"seed":{"ids":[1]},"stages":[{"op":"count"},{"op":"limit","n":1}]}`, "last stage"},
		{"path-not-alone", `{"seed":{"ids":[1]},"stages":[{"op":"shortest_path","end":2},{"op":"count"}]}`, "only stage"},
		{"path-multi-seed", `{"seed":{"ids":[1,2]},"stages":[{"op":"shortest_path","end":3}]}`, "one seed"},
		{"pagerank-not-alone", `{"seed":{"all":true},"stages":[{"op":"limit","n":1},{"op":"pagerank"}]}`, "only stage"},
		{"pagerank-damping", `{"seed":{"all":true},"stages":[{"op":"pagerank","damping":1.5}]}`, "damping"},
		{"filter-no-key", `{"seed":{"all":true},"stages":[{"op":"filter_eq","value":"AgI="}]}`, "key and value"},
		{"filter-label-empty", `{"seed":{"all":true},"stages":[{"op":"filter_label"}]}`, "needs a label"},
		{"not-json", `{"seed":`, "invalid character"},
	} {
		if _, err := decodePlan([]byte(tc.raw)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestQueryPlanOversized(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"seed":{"ids":[`)
	for i := 0; i <= MaxQuerySeedIDs; i++ { // one past the limit
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString("1")
	}
	sb.WriteString(`]}}`)
	if _, err := decodePlan([]byte(sb.String())); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized seed: err = %v", err)
	}

	sb.Reset()
	sb.WriteString(`{"seed":{"ids":[1]},"stages":[`)
	for i := 0; i <= MaxQueryStages; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"op":"limit","n":1}`)
	}
	sb.WriteString(`]}`)
	if _, err := decodePlan([]byte(sb.String())); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized stages: err = %v", err)
	}
}

// FuzzDecodeQueryPlan feeds arbitrary bytes — malformed JSON, oversized
// collections, deeply nested ("cyclic"-looking) values — through the
// decode+validate entry point. Invariants: no panic, and any accepted
// plan survives an encode/decode round trip and is still valid.
func FuzzDecodeQueryPlan(f *testing.F) {
	f.Add([]byte(`{"seed":{"ids":[1,2]},"stages":[{"op":"khop","dir":"out","depth":3}]}`))
	f.Add([]byte(`{"seed":{"label":"Person"},"stages":[{"op":"expand"},{"op":"count"}]}`))
	f.Add([]byte(`{"seed":{"key":"k","value":"BgEGAQIC"},"stages":[{"op":"limit","n":5}]}`))
	f.Add([]byte(`{"seed":{"all":true},"stages":[{"op":"pagerank","damping":0.85}]}`))
	f.Add([]byte(`{"seed":{"ids":[0]},"stages":[{"op":"shortest_path","end":18446744073709551615}]}`))
	f.Add([]byte(`{"seed":`))
	f.Add([]byte(`{"seed":{"ids":[-1]}}`))
	f.Add([]byte(strings.Repeat(`{"seed":`, 1000)))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePlan(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not re-encode: %v", err)
		}
		if _, err := decodePlan(enc); err != nil {
			t.Fatalf("round-tripped plan rejected: %v\nplan: %s", err, enc)
		}
	})
}

func TestValidateBatchRefs(t *testing.T) {
	ref := func(i int) *int { return &i }
	ok := &Request{Op: OpBatch, Batch: []Request{
		{Op: OpCreateNode},
		{Op: OpCreateNode},
		{Op: OpCreateRel, Type: "R", StartRef: ref(0), EndRef: ref(1)},
		{Op: OpSetNodeProp, IDRef: ref(0), Key: "k", Value: value.EncodeValue(value.Int(1))},
	}}
	if err := ValidateBatch(ok); err != nil {
		t.Fatalf("backward refs rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		req  *Request
	}{
		{"self", &Request{Op: OpBatch, Batch: []Request{
			{Op: OpCreateNode}, {Op: OpCreateRel, StartRef: ref(1), End: 1},
		}}},
		{"forward", &Request{Op: OpBatch, Batch: []Request{
			{Op: OpCreateRel, StartRef: ref(1), End: 1}, {Op: OpCreateNode},
		}}},
		{"negative", &Request{Op: OpBatch, Batch: []Request{
			{Op: OpCreateNode}, {Op: OpSetNodeProp, IDRef: ref(-1), Key: "k", Value: value.EncodeValue(value.Int(1))},
		}}},
	} {
		err := ValidateBatch(tc.req)
		if err == nil {
			t.Errorf("%s ref accepted", tc.name)
		} else if !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s ref error = %v, want out-of-range", tc.name, err)
		}
	}
}
