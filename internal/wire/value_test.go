package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"neograph/internal/value"
)

// refEncodeValue is the tagged form as encoding/json writes it — what this
// package sent before it wrote the bytes itself, and what the golden
// transcript pins.
func refEncodeValue(v value.Value) json.RawMessage {
	var out []byte
	switch v.Kind() {
	case value.KindNull:
		return json.RawMessage("null")
	case value.KindBool:
		b, _ := v.AsBool()
		out, _ = json.Marshal(map[string]bool{"b": b})
	case value.KindInt:
		i, _ := v.AsInt()
		out, _ = json.Marshal(map[string]string{"i": strconv.FormatInt(i, 10)})
	case value.KindFloat:
		f, _ := v.AsFloat()
		out, _ = json.Marshal(map[string]string{"f": strconv.FormatFloat(f, 'g', -1, 64)})
	case value.KindString:
		s, _ := v.AsString()
		if !utf8.ValidString(s) {
			out, _ = json.Marshal(map[string]string{"sx": hex.EncodeToString([]byte(s))})
		} else {
			out, _ = json.Marshal(map[string]string{"s": s})
		}
	case value.KindBytes:
		b, _ := v.AsBytes()
		out, _ = json.Marshal(map[string]string{"x": hex.EncodeToString(b)})
	case value.KindList:
		l, _ := v.AsList()
		elems := make([]json.RawMessage, len(l))
		for i, e := range l {
			elems[i] = refEncodeValue(e)
		}
		out, _ = json.Marshal(map[string][]json.RawMessage{"l": elems})
	}
	return out
}

func refEncodeProps(m value.Map) json.RawMessage {
	out := make(map[string]json.RawMessage, len(m))
	for k, v := range m {
		out[k] = refEncodeValue(v)
	}
	raw, _ := json.Marshal(out)
	return raw
}

// awkward are the strings json.Marshal does something to.
var awkward = []string{
	"", "plain", `q"uote`, `back\slash`, "<b>&amp;</b>", "tab\there", "nl\n", "\x00\x1f", "\x7f",
	"héllo", "日本語", "line\u2028sep\u2029", "\xff\xfe", "a\xc3", "emoji 🙂", "{\"i\":\"1\"}",
}

func randomAwkward(r *rand.Rand) string {
	if r.Intn(3) == 0 {
		b := make([]byte, r.Intn(12))
		r.Read(b)
		return string(b)
	}
	return awkward[r.Intn(len(awkward))] + awkward[r.Intn(len(awkward))]
}

// TestEncodedBytesAreEncodingJSONs: the hand-written encoder and
// encoding/json agree to the byte, for values and for maps (key order and
// key escaping included).
func TestEncodedBytesAreEncodingJSONs(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	vals := []value.Value{
		value.Null, value.Bool(true), value.Bool(false), value.Int(math.MinInt64), value.Int(0),
		value.Float(math.NaN()), value.Float(math.Inf(1)), value.Float(1e21), value.Float(math.Copysign(0, -1)), value.Float(1.5e-7),
		value.Bytes(nil), value.List(), value.List(value.Null, value.List(value.List())),
	}
	for _, s := range awkward {
		vals = append(vals, value.String(s), value.Bytes([]byte(s)), value.List(value.String(s), value.Int(1)))
	}
	for i := 0; i < 2000; i++ {
		vals = append(vals, randomWireValue(r, 3))
	}
	for _, v := range vals {
		got, err := EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		if want := refEncodeValue(v); string(got) != string(want) {
			t.Fatalf("EncodeValue(%v) = %s, encoding/json writes %s", v, got, want)
		}
	}
	for i := 0; i < 500; i++ {
		m := value.Map{}
		for n := 1 + r.Intn(5); len(m) < n; {
			m[randomAwkward(r)] = vals[r.Intn(len(vals))]
		}
		got, err := EncodeProps(m)
		if err != nil {
			t.Fatal(err)
		}
		if want := refEncodeProps(m); string(got) != string(want) {
			t.Fatalf("EncodeProps(%v) = %s, encoding/json writes %s", m, got, want)
		}
	}
}

// TestScanAgreesWithEncodingJSON: whatever the hand-written parser accepts
// it reads as encoding/json does, it accepts what this package writes (but
// for a string with an escape in it), and what it declines still decodes,
// or fails, through encoding/json.
func TestScanAgreesWithEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	var inputs []string
	for i := 0; i < 2000; i++ {
		v := randomWireValue(r, 3)
		if i%4 == 0 {
			v = value.String(randomAwkward(r))
		}
		raw, _ := EncodeValue(v)
		// (A string json.Marshal escaped is encoding/json's to read back.)
		if _, rest, ok := scanValue(raw); (!ok || len(rest) != 0) && !bytes.Contains(raw, []byte{'\\'}) {
			t.Fatalf("scanValue declined its own encoder's %s", raw)
		}
		inputs = append(inputs, string(raw))
		// The same bytes damaged: cut short, a byte changed, a byte doubled.
		if len(raw) > 0 {
			at := r.Intn(len(raw))
			inputs = append(inputs, string(raw[:at]),
				string(raw[:at])+string(rune(32+r.Intn(95)))+string(raw[at+1:]),
				string(raw[:at+1])+string(raw[at:]))
		}
	}
	inputs = append(inputs,
		`null`, ` null`, `null `, `nullx`, `{"i": "1"}`, `{ "i":"1"}`, `{"i":"1" }`, `{"i":"1"} `, `{"i":"+7"}`, `{"i":"07"}`, `{"i":"1e3"}`,
		`{"i":"1","i":"2"}`, `{"i":"1","f":"2"}`, `{"s":"abc"}`, `{"s":"a\nb"}`, `{"s":"🙂"}`, "{\"s\":\"\xff\"}", `{"s":"é"}`,
		`{"b":true}`, `{"b":false}`, `{"b":tru}`, `{"b":"true"}`, `{"b":1}`, `{"f":"NaN"}`, `{"f":"+Inf"}`, `{"f":"0x1p-2"}`, `{"f":""}`,
		`{"x":"0AfF"}`, `{"x":"0"}`, `{"sx":"fffe"}`, `{"q":"1"}`, `{"l":null}`, `{"l":[]}`, `{"l":[null]}`, `{"l":[,]}`, `{"l":[{"i":"1"},]}`,
		`{"l":[{"i":"1"} ,{"i":"2"}]}`, `{"l":[{"l":[{"l":[]}]}]}`, `{"l":[{"i":"x"}]}`, `{"l":[`, `{"l":[{"i":"1"}`, `{}`, `[]`, `"s"`, `{"s":"a"}}`, `{"s":"a"`,
	)
	for _, in := range inputs {
		if in == "" {
			continue // an absent field, Null by definition
		}
		want, wantErr := decodeValueJSON(json.RawMessage(in))
		if v, rest, ok := scanValue([]byte(in)); ok && len(rest) == 0 {
			if wantErr != nil || v.Compare(want) != 0 || v.Kind() != want.Kind() {
				t.Errorf("scanValue(%q) = %v, encoding/json says %v, %v", in, v, want, wantErr)
			}
		}
		got, err := DecodeValue(json.RawMessage(in))
		if (err == nil) != (wantErr == nil) || (err == nil && got.Compare(want) != 0) {
			t.Errorf("DecodeValue(%q) = %v, %v; encoding/json says %v, %v", in, got, err, want, wantErr)
		}
	}

	// Maps: the canonical form, and spellings only encoding/json reads.
	for i := 0; i < 500; i++ {
		m := value.Map{}
		for n := 1 + r.Intn(5); len(m) < n; {
			m[strings.ToValidUTF8(randomAwkward(r), "?")] = randomWireValue(r, 2)
		}
		raw, _ := EncodeProps(m)
		if got, err := DecodeProps(raw); err != nil || !got.Equal(m) {
			t.Fatalf("DecodeProps(%s) = %v, %v", raw, got, err)
		}
	}
	for in, want := range map[string]value.Map{
		`{}`:                          {},
		`{"a":{"i":"1"}}`:             {"a": value.Int(1)},
		`{"a":{"i":"1"},"a":null}`:    {"a": value.Null},
		`{"a" : {"i":"1"}, "b":null}`: {"a": value.Int(1), "b": value.Null},
		`{"ab":{"s":"x"}}`:            {"ab": value.String("x")},
	} {
		if got, err := DecodeProps(json.RawMessage(in)); err != nil || !got.Equal(want) || got == nil {
			t.Errorf("DecodeProps(%s) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{`{`, `{"a"}`, `{"a":}`, `{"a":{"i":"1"},}`, `{,"a":null}`, `{"a":null}}`, `{"a":null}x`, `[]`, `{"a":{"i":"x"}}`} {
		if got, err := DecodeProps(json.RawMessage(in)); err == nil {
			t.Errorf("DecodeProps(%s) = %v, want an error", in, got)
		}
	}
}

var person = value.Map{"uid": value.Int(123), "name": value.String("person-123"), "balance": value.Int(1000)}

func BenchmarkEncodeProps(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeProps(person)
	}
}

func BenchmarkDecodeProps(b *testing.B) {
	raw, _ := EncodeProps(person)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DecodeProps(raw)
	}
}
