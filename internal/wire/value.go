package wire

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"neograph/internal/value"
)

// The tagged value codec. Every node a read returns and every property a
// write sets passes through it once on each side of the connection, so the
// canonical form — exactly the bytes this package writes — is produced and
// parsed by hand. Whatever else a peer may legally send (blanks, escapes in
// a string, a repeated key) is left to encoding/json, which also words
// every error: the hand-written parser only ever says "not mine".

// EncodeValue renders a value in the tagged JSON form.
func EncodeValue(v value.Value) (json.RawMessage, error) { return appendValue(nil, v) }

// appendValue appends v's tagged form to dst: the bytes json.Marshal gives
// for the one-entry map {tag: payload}.
func appendValue(dst []byte, v value.Value) ([]byte, error) {
	switch v.Kind() {
	case value.KindNull:
		return append(dst, "null"...), nil
	case value.KindBool:
		b, _ := v.AsBool()
		return append(strconv.AppendBool(append(dst, `{"b":`...), b), '}'), nil
	case value.KindInt:
		i, _ := v.AsInt()
		return append(strconv.AppendInt(append(dst, `{"i":"`...), i, 10), `"}`...), nil
	case value.KindFloat:
		f, _ := v.AsFloat()
		return append(strconv.AppendFloat(append(dst, `{"f":"`...), f, 'g', -1, 64), `"}`...), nil
	case value.KindString:
		s, _ := v.AsString()
		if !utf8.ValidString(s) {
			return append(hex.AppendEncode(append(dst, `{"sx":"`...), []byte(s)), `"}`...), nil
		}
		return append(appendString(append(dst, `{"s":`...), s), '}'), nil
	case value.KindBytes:
		b, _ := v.AsBytes()
		return append(hex.AppendEncode(append(dst, `{"x":"`...), b), `"}`...), nil
	case value.KindList:
		l, _ := v.AsList()
		dst = append(dst, `{"l":[`...)
		for i, e := range l {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendValue(dst, e); err != nil {
				return nil, err
			}
		}
		return append(dst, `]}`...), nil
	default:
		return nil, fmt.Errorf("wire: unsupported kind %v", v.Kind())
	}
}

// appendString appends s as a JSON string. Plain ASCII needs no escaping;
// anything json.Marshal would touch (quotes, control bytes, the HTML
// characters, non-ASCII) is left to it.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// EncodeProps renders a property map, keys sorted.
func EncodeProps(m value.Map) (json.RawMessage, error) {
	if len(m) == 0 {
		return nil, nil
	}
	out := append(make([]byte, 0, 32*len(m)), '{')
	for i, k := range m.Keys() {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(appendString(out, k), ':')
		var err error
		if out, err = appendValue(out, m[k]); err != nil {
			return nil, err
		}
	}
	return append(out, '}'), nil
}

// DecodeValue parses the tagged JSON form.
func DecodeValue(raw json.RawMessage) (value.Value, error) {
	if len(raw) == 0 {
		return value.Null, nil
	}
	if v, rest, ok := scanValue(raw); ok && len(rest) == 0 {
		return v, nil
	}
	return decodeValueJSON(raw)
}

// DecodeProps parses a property map.
func DecodeProps(raw json.RawMessage) (value.Map, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	if m, ok := scanProps(raw); ok {
		return m, nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("wire: bad props: %w", err)
	}
	out := make(value.Map, len(m))
	for k, e := range m {
		v, err := DecodeValue(e)
		if err != nil {
			return nil, err
		}
		out[k] = v
	}
	return out, nil
}

// scanProps parses a canonical property map: {"key":value,...} and nothing
// after it.
func scanProps(b []byte) (value.Map, bool) {
	if len(b) < 2 || b[0] != '{' {
		return nil, false
	}
	b = b[1:]
	m := value.Map{}
	for n := 0; len(b) > 0 && b[0] != '}'; n++ {
		if n > 0 {
			if b[0] != ',' {
				return nil, false
			}
			b = b[1:]
		}
		key, rest, ok := scanString(b)
		if !ok || len(rest) == 0 || rest[0] != ':' {
			return nil, false
		}
		v, rest, ok := scanValue(rest[1:])
		if !ok {
			return nil, false
		}
		m[string(key)], b = v, rest
	}
	return m, len(b) == 1
}

// scanValue parses one canonical value at the head of b and returns what
// follows it; ok is false for anything but the bytes appendValue writes.
func scanValue(b []byte) (v value.Value, rest []byte, ok bool) {
	if bytes.HasPrefix(b, []byte("null")) {
		return value.Null, b[4:], true
	}
	if len(b) == 0 || b[0] != '{' {
		return value.Null, nil, false
	}
	tag, b, ok := scanString(b[1:])
	if !ok || len(b) == 0 || b[0] != ':' {
		return value.Null, nil, false
	}
	b = b[1:]
	switch string(tag) {
	case "b":
		switch {
		case bytes.HasPrefix(b, []byte("true")):
			v, b = value.Bool(true), b[4:]
		case bytes.HasPrefix(b, []byte("false")):
			v, b = value.Bool(false), b[5:]
		default:
			return value.Null, nil, false
		}
	case "l":
		if len(b) == 0 || b[0] != '[' {
			return value.Null, nil, false
		}
		b = b[1:]
		var vs []value.Value
		for len(b) > 0 && b[0] != ']' {
			if len(vs) > 0 {
				if b[0] != ',' {
					return value.Null, nil, false
				}
				b = b[1:]
			}
			var e value.Value
			if e, b, ok = scanValue(b); !ok {
				return value.Null, nil, false
			}
			vs = append(vs, e)
		}
		if len(b) == 0 {
			return value.Null, nil, false
		}
		v, b = value.List(vs...), b[1:]
	default:
		var str []byte
		if str, b, ok = scanString(b); !ok {
			return value.Null, nil, false
		}
		var err error
		if v, err = scalar(string(tag), string(str)); err != nil {
			return value.Null, nil, false
		}
	}
	if len(b) == 0 || b[0] != '}' {
		return value.Null, nil, false
	}
	return v, b[1:], true
}

// scanString parses a JSON string that holds no escape at the head of b and
// returns its content (sharing b's storage) and what follows it.
func scanString(b []byte) (s, rest []byte, ok bool) {
	if len(b) == 0 || b[0] != '"' {
		return nil, nil, false
	}
	ascii := true
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s = b[1:i]
			return s, b[i+1:], ascii || utf8.Valid(s)
		case c == '\\' || c < 0x20:
			return nil, nil, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, nil, false
}

// scalar builds the value a tag and its string payload stand for — every
// scalar but bool travels as a JSON string.
func scalar(tag, str string) (value.Value, error) {
	switch tag {
	case "i":
		i, err := strconv.ParseInt(str, 10, 64)
		if err != nil {
			return value.Null, fmt.Errorf("wire: bad int %q: %w", str, err)
		}
		return value.Int(i), nil
	case "f":
		f, err := strconv.ParseFloat(str, 64)
		if err != nil {
			return value.Null, fmt.Errorf("wire: bad float %q: %w", str, err)
		}
		return value.Float(f), nil
	case "s":
		return value.String(str), nil
	case "sx", "x":
		raw, err := hex.DecodeString(str)
		if err != nil {
			return value.Null, fmt.Errorf("wire: bad hex: %w", err)
		}
		if tag == "sx" {
			return value.String(string(raw)), nil
		}
		return value.Bytes(raw), nil
	default:
		return value.Null, fmt.Errorf("wire: unknown value tag %q", tag)
	}
}

// decodeValueJSON is DecodeValue for any JSON spelling of a tagged value.
func decodeValueJSON(raw json.RawMessage) (value.Value, error) {
	if string(raw) == "null" {
		return value.Null, nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return value.Null, fmt.Errorf("wire: bad value: %w", err)
	}
	if len(m) != 1 {
		return value.Null, fmt.Errorf("wire: value must have exactly one tag, got %d", len(m))
	}
	for tag, payload := range m {
		switch tag {
		case "b":
			var b bool
			if err := json.Unmarshal(payload, &b); err != nil {
				return value.Null, err
			}
			return value.Bool(b), nil
		case "l":
			var elems []json.RawMessage
			if err := json.Unmarshal(payload, &elems); err != nil {
				return value.Null, err
			}
			vs := make([]value.Value, len(elems))
			for i, e := range elems {
				var err error
				if vs[i], err = DecodeValue(e); err != nil {
					return value.Null, err
				}
			}
			return value.List(vs...), nil
		case "i", "f", "s", "sx", "x":
			var str string
			if err := json.Unmarshal(payload, &str); err != nil {
				return value.Null, err
			}
			return scalar(tag, str)
		default:
			return value.Null, fmt.Errorf("wire: unknown value tag %q", tag)
		}
	}
	return value.Null, nil
}
