package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"neograph/internal/value"
)

// viaFrame writes req as one frame and reads it back.
func viaFrame(t *testing.T, req *Request) Request {
	t.Helper()
	var buf bytes.Buffer
	c := NewConn(&buf, 0)
	if err := c.WriteRequest(req); err != nil {
		t.Fatal(err)
	}
	var back Request
	if _, err := c.ReadRequest(&back); err != nil {
		t.Fatalf("read back %+v: %v", req, err)
	}
	return back
}

func TestValueRoundTrip(t *testing.T) {
	cases := []value.Value{
		value.Null,
		value.Bool(true), value.Bool(false),
		value.Int(0), value.Int(math.MaxInt64), value.Int(math.MinInt64),
		value.Float(1.5), value.Float(math.Inf(-1)),
		value.String(""), value.String("héllo"), value.String("\xff\xfe"),
		value.Bytes(nil), value.Bytes([]byte{0, 255}),
		value.List(value.Int(1), value.List(value.String("x"))),
	}
	for _, v := range cases {
		raw := value.EncodeValue(v)
		back := viaFrame(t, &Request{Op: OpSetNodeProp, ID: 1, Key: "k", Value: raw})
		got, err := value.ParseValue(back.Value)
		if err != nil {
			t.Fatalf("decode %x: %v", back.Value, err)
		}
		if got.Compare(v) != 0 {
			t.Errorf("round trip %v -> %x -> %v", v, raw, got)
		}
	}
	// An absent value is Null.
	if got, err := value.ParseValue(viaFrame(t, &Request{Op: OpSetNodeProp}).Value); err != nil || got != value.Null {
		t.Fatalf("absent value: %v, %v", got, err)
	}
}

func TestIntPrecisionPreserved(t *testing.T) {
	// 2^53+1 is not representable as float64; the binary form carried in
	// the JSON frame must survive it.
	for _, i := range []int64{1<<53 + 1, -(1<<53 + 1), math.MaxInt64, math.MinInt64} {
		back := viaFrame(t, &Request{Op: OpSetNodeProp, Value: value.EncodeValue(value.Int(i))})
		got, err := value.ParseValue(back.Value)
		if err != nil {
			t.Fatal(err)
		}
		if n, ok := got.AsInt(); !ok || n != i {
			t.Fatalf("precision lost: %d -> %v", i, got)
		}
	}
}

func TestPropsRoundTrip(t *testing.T) {
	m := value.Map{"a": value.Int(1), "b": value.String("x"), "c": value.Float(2.5)}
	back := viaFrame(t, &Request{Op: OpCreateNode, Props: Props(m)})
	got, err := value.ParseMap(back.Props)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(m) {
		t.Fatalf("round trip: %v", got)
	}
	// Empty map encodes as nil and decodes as nil.
	for _, empty := range []value.Map{nil, {}} {
		if raw := Props(empty); raw != nil {
			t.Fatalf("empty props encoded as %x", raw)
		}
	}
	got, err = value.ParseMap(viaFrame(t, &Request{Op: OpCreateNode}).Props)
	if err != nil || got != nil {
		t.Fatalf("nil decode: %v, %v", got, err)
	}
}

// TestValueFieldIsBase64: a value or props field is a base64 string or
// absent. A generation-3 tagged object, a number or a string that is not
// base64 fails the frame decode, in a request and in a response.
func TestValueFieldIsBase64(t *testing.T) {
	for _, field := range []string{`{"i":"1"}`, `{"l":[]}`, `42`, `true`, `["AA=="]`, `"not base64!"`} {
		for _, frame := range []string{
			`{"op":"set_node_prop","id":1,"key":"k","value":` + field + `}`,
			`{"op":"create_node","props":` + field + `}`,
		} {
			var req Request
			if _, err := NewConn(bytes.NewBufferString(frame), 0).ReadRequest(&req); err == nil {
				t.Errorf("request %s decoded: %+v", frame, req)
			}
		}
		frame := `{"ok":true,"node":{"id":1,"props":` + field + `}}`
		var resp Response
		if err := NewConn(bytes.NewBufferString(frame), 0).ReadResponse(&resp); err == nil {
			t.Errorf("response %s decoded: %+v", frame, resp)
		}
	}
}

func TestRequestJSONShape(t *testing.T) {
	req := Request{Op: OpCreateNode, Labels: []string{"A"}}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Op != OpCreateNode || len(back.Labels) != 1 {
		t.Fatalf("round trip: %+v", back)
	}
}

// TestQuickValueWire: a value and a property map cross a frame as their
// exact bytes and read back the same, bit for bit; an empty map is an
// absent field.
func TestQuickValueWire(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomWireValue(r, 2)
		m := value.Map{"k": randomWireValue(r, 2), "": v}
		var buf bytes.Buffer
		c := NewConn(&buf, 0)
		if err := c.WriteRequest(&Request{Op: OpCreateNode, Value: value.EncodeValue(v), Props: Props(m)}); err != nil {
			return false
		}
		var back Request
		if _, err := c.ReadRequest(&back); err != nil {
			return false
		}
		gotV, errV := value.ParseValue(back.Value)
		gotM, errM := value.ParseMap(back.Props)
		return errV == nil && errM == nil && gotV == v && gotM["k"] == m["k"] && gotM[""] == v && len(gotM) == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	raw, _ := json.Marshal(Request{Op: OpCreateNode, Props: Props(value.Map{})})
	if strings.Contains(string(raw), "props") {
		t.Errorf("an empty map is sent: %s", raw)
	}
	if m, err := value.ParseMap(nil); m != nil || err != nil {
		t.Errorf("an absent map reads as %v, %v", m, err)
	}
}

func randomWireValue(r *rand.Rand, depth int) value.Value {
	k := r.Intn(7)
	if depth <= 0 && k == 6 {
		k = 2
	}
	switch k {
	case 0:
		return value.Null
	case 1:
		return value.Bool(r.Intn(2) == 0)
	case 2:
		return value.Int(r.Int63() - r.Int63())
	case 3:
		return value.Float(r.NormFloat64())
	case 4:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return value.String(string(b))
	case 5:
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return value.Bytes(b)
	default:
		n := r.Intn(3)
		elems := make([]value.Value, n)
		for i := range elems {
			elems[i] = randomWireValue(r, depth-1)
		}
		return value.List(elems...)
	}
}

func TestLSNFieldsRoundTrip(t *testing.T) {
	req := Request{Op: OpGetNode, ID: 7, WaitLSN: 12345}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var backReq Request
	if err := json.Unmarshal(raw, &backReq); err != nil {
		t.Fatal(err)
	}
	if backReq.WaitLSN != 12345 {
		t.Fatalf("WaitLSN = %d", backReq.WaitLSN)
	}
	resp := Response{OK: true, LSN: 67890}
	raw, err = json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var backResp Response
	if err := json.Unmarshal(raw, &backResp); err != nil {
		t.Fatal(err)
	}
	if backResp.LSN != 67890 {
		t.Fatalf("LSN = %d", backResp.LSN)
	}
	// Zero LSN is omitted: clients treat absence as "no token".
	raw, _ = json.Marshal(Response{OK: true})
	if strings.Contains(string(raw), "lsn") {
		t.Fatalf("zero LSN serialised: %s", raw)
	}
}

// TestValueFieldDecodedStrictly: a field that is base64 but not exactly the
// bytes the encoder writes for one value or one map crosses the frame
// decode and is refused by value.ParseValue / value.ParseMap, which every
// reader of outside input goes through; lists nest at most 10 000 deep.
func TestValueFieldDecodedStrictly(t *testing.T) {
	nested := func(depth int) []byte { return append(bytes.Repeat([]byte{byte(value.KindList), 1}, depth), 0) }
	one := value.EncodeMap(value.Map{"a": value.Int(1)})
	values := map[string][]byte{
		"trailing byte":      append(value.EncodeValue(value.Int(1)), 0),
		"truncated":          {byte(value.KindString), 5, 'a'},
		"removal mark":       {0xFF},
		"padded varint":      {byte(value.KindInt), 0x82, 0},
		"unknown kind":       {7},
		"bool 2":             {byte(value.KindBool), 2},
		"nested 10 001 deep": nested(10001),
	}
	maps := map[string][]byte{
		"trailing byte":      append(one, 0),
		"truncated":          one[:len(one)-1],
		"removal mark":       {1, 1, 'a', 0xFF},
		"padded count":       {0x81, 0, 1, 'a', 0},
		"keys out of order":  {2, 1, 'b', 0, 1, 'a', 0},
		"a key twice":        {2, 1, 'a', 0, 1, 'a', 0},
		"nested 10 001 deep": append([]byte{1, 1, 'a'}, nested(10001)...),
	}
	// read carries a value and props across a frame.
	read := func(val, props []byte) Request {
		t.Helper()
		return viaFrame(t, &Request{Op: OpCreateNode, Value: val, Props: props})
	}
	for name, b := range values {
		if v, err := value.ParseValue(read(b, nil).Value); err == nil {
			t.Errorf("value, %s: %d bytes read as a %v", name, len(b), v.Kind())
		}
	}
	for name, b := range maps {
		if m, err := value.ParseMap(read(nil, b).Props); err == nil {
			t.Errorf("props, %s: %d bytes read as %d keys", name, len(b), len(m))
		}
	}
	req := read(nested(10000), append([]byte{1, 1, 'a'}, nested(10000)...))
	if _, err := value.ParseValue(req.Value); err != nil {
		t.Errorf("a list nested 10 000 deep: %v", err)
	}
	if _, err := value.ParseMap(req.Props); err != nil {
		t.Errorf("a property nested 10 000 deep: %v", err)
	}
}
