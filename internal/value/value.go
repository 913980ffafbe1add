// Package value implements the typed property value model used throughout
// neograph. Nodes and relationships carry property maps whose values are
// drawn from a small closed set of types, mirroring the value model of
// Neo4j: booleans, 64-bit integers, 64-bit floats, strings, byte arrays and
// homogeneous lists thereof.
//
// Values are immutable once constructed. The package provides total
// ordering (for property indexes), equality, hashing, and a compact binary
// codec used by the property store, the write-ahead log and the wire.
package value

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported value kinds. KindNull is the zero Kind and marks the
// absence of a value (for example a property that has been removed).
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindBytes
	KindList
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBytes:
		return "bytes"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is an immutable property value. The zero Value is Null.
//
// A Value is 32 bytes and holds no slice: every resident property pays
// for it, and almost every property is a number or a short string. A
// list — the rare case — keeps its elements encoded (codec.go: count,
// then each element) in str and decodes them when asked. That also makes
// Value comparable: == holds exactly when two values encode to the same
// bytes.
type Value struct {
	kind Kind
	num  uint64 // bool (0/1), int64 bits, or float64 bits
	str  string // string or bytes payload; a list's encoded elements
}

// Null is the absent value.
var Null = Value{}

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int returns a 64-bit integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a 64-bit floating point value.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// String returns a string value.
func String(s string) Value { return Value{kind: KindString, str: s} }

// Bytes returns a byte-array value. The slice is copied.
func Bytes(b []byte) Value { return Value{kind: KindBytes, str: string(b)} }

// List returns a list value. The elements are copied.
func List(vs ...Value) Value {
	enc := binary.AppendUvarint(nil, uint64(len(vs)))
	for _, e := range vs {
		enc = AppendValue(enc, e)
	}
	return Value{kind: KindList, str: string(enc)}
}

// elems decodes a list's elements (nil for any other kind).
func (v Value) elems() []Value {
	if v.kind != KindList {
		return nil
	}
	buf := []byte(v.str)
	cnt, n := binary.Uvarint(buf)
	out := make([]Value, 0, cnt)
	for len(out) < int(cnt) {
		e, m, err := DecodeValue(buf[n:])
		if err != nil {
			panic("value: list holds a corrupt element: " + err.Error()) // List wrote it
		}
		out, n = append(out, e), n+m
	}
	return out
}

// Of converts a native Go value to a Value. Supported inputs: nil, bool,
// all signed/unsigned integer types (unsigned must fit in int64), float32,
// float64, string, []byte, []Value, and Value itself. Of panics on any
// other type; use it only with trusted literals — API boundaries should
// construct Values explicitly.
func Of(v any) Value {
	switch x := v.(type) {
	case nil:
		return Null
	case Value:
		return x
	case bool:
		return Bool(x)
	case int:
		return Int(int64(x))
	case int8:
		return Int(int64(x))
	case int16:
		return Int(int64(x))
	case int32:
		return Int(int64(x))
	case int64:
		return Int(x)
	case uint:
		return Int(int64(x))
	case uint8:
		return Int(int64(x))
	case uint16:
		return Int(int64(x))
	case uint32:
		return Int(int64(x))
	case uint64:
		if x > math.MaxInt64 {
			panic("value: uint64 overflows int64")
		}
		return Int(int64(x))
	case float32:
		return Float(float64(x))
	case float64:
		return Float(x)
	case string:
		return String(x)
	case []byte:
		return Bytes(x)
	case []Value:
		return List(x...)
	default:
		panic(fmt.Sprintf("value: unsupported Go type %T", v))
	}
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false if v is not a bool.
func (v Value) AsBool() (b, ok bool) {
	if v.kind != KindBool {
		return false, false
	}
	return v.num != 0, true
}

// AsInt returns the integer payload; ok is false if v is not an int.
func (v Value) AsInt() (int64, bool) {
	if v.kind != KindInt {
		return 0, false
	}
	return int64(v.num), true
}

// AsFloat returns the float payload; ok is false if v is not a float.
func (v Value) AsFloat() (float64, bool) {
	if v.kind != KindFloat {
		return 0, false
	}
	return math.Float64frombits(v.num), true
}

// AsString returns the string payload; ok is false if v is not a string.
func (v Value) AsString() (string, bool) {
	if v.kind != KindString {
		return "", false
	}
	return v.str, true
}

// AsBytes returns a copy of the byte payload; ok is false if v is not bytes.
func (v Value) AsBytes() ([]byte, bool) {
	if v.kind != KindBytes {
		return nil, false
	}
	return []byte(v.str), true
}

// AsList returns a copy of the list payload; ok is false if v is not a list.
func (v Value) AsList() ([]Value, bool) {
	if v.kind != KindList {
		return nil, false
	}
	return v.elems(), true
}

// Payload exposes v's content in comparable form, for hash keys: the
// 64-bit payload of a bool, an int or a float (its IEEE bits), and the
// bytes of a string or byte array — for a list, of its encoded elements —
// as a string sharing v's storage.
func (v Value) Payload() (num uint64, text string) { return v.num, v.str }

// Numeric reports whether v is an int or float, and its value as float64.
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num)), true
	case KindFloat:
		return math.Float64frombits(v.num), true
	}
	return 0, false
}

// String renders the value in a human-readable, Cypher-like notation.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.num != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str)
	case KindBytes:
		return fmt.Sprintf("0x%x", v.str)
	case KindList:
		var sb strings.Builder
		sb.WriteByte('[')
		for i, e := range v.elems() {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteByte(']')
		return sb.String()
	default:
		return fmt.Sprintf("<invalid kind %d>", v.kind)
	}
}

// Equal reports deep equality of two values. Int and float values of equal
// numeric magnitude are NOT equal unless their kinds match; property
// indexes rely on this strictness.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

// Compare defines a total order over all values. Values order first by
// kind (the Kind enumeration order), then within a kind by their natural
// order: false < true, numeric order for int/float, lexicographic for
// string/bytes, element-wise for lists. NaN floats sort before all other
// floats and equal to themselves, keeping the order total.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool, KindInt:
		a, b := int64(v.num), int64(o.num)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case KindFloat:
		a, b := math.Float64frombits(v.num), math.Float64frombits(o.num)
		an, bn := math.IsNaN(a), math.IsNaN(b)
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case KindString, KindBytes:
		return strings.Compare(v.str, o.str)
	case KindList:
		a, b := v.elems(), o.elems()
		for i := 0; i < min(len(a), len(b)); i++ {
			if c := a[i].Compare(b[i]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(a), len(b))
	default:
		return 0
	}
}

// Hash returns a 64-bit FNV-1a style hash of the value, suitable for
// hash-index bucketing. Equal values hash equally.
func (v Value) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	mix(byte(v.kind))
	switch v.kind {
	case KindBool, KindInt, KindFloat:
		n := v.num
		if v.kind == KindFloat {
			// Normalise NaNs so equal-compare values hash equally.
			f := math.Float64frombits(n)
			if math.IsNaN(f) {
				n = math.Float64bits(math.NaN())
			}
		}
		for i := 0; i < 8; i++ {
			mix(byte(n >> (8 * i)))
		}
	case KindString, KindBytes:
		for i := 0; i < len(v.str); i++ {
			mix(v.str[i])
		}
	case KindList:
		for _, e := range v.elems() {
			sub := e.Hash()
			for i := 0; i < 8; i++ {
				mix(byte(sub >> (8 * i)))
			}
		}
	}
	return h
}

// Size returns an estimate of the value's footprint in bytes as a user
// sees it (a nominal header plus the payload), independent of how the
// engine lays a value out; Packed.HeapBytes is what it really holds.
func (v Value) Size() int {
	s := 24
	if v.kind != KindList {
		return s + len(v.str)
	}
	for _, e := range v.elems() {
		s += e.Size()
	}
	return s
}

// Map is a property map from property-key token name to value. Maps are
// treated as immutable after construction wherever they cross a version
// boundary; Clone before mutating.
type Map map[string]Value

// Clone returns a shallow copy of m (values are immutable, so a shallow
// copy is a deep copy in effect). Clone(nil) returns an empty non-nil map.
func (m Map) Clone() Map {
	cp := make(Map, len(m))
	for k, v := range m {
		cp[k] = v
	}
	return cp
}

// Equal reports whether two maps hold exactly the same key/value pairs.
func (m Map) Equal(o Map) bool {
	if len(m) != len(o) {
		return false
	}
	for k, v := range m {
		ov, ok := o[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// Keys returns the sorted key set of m.
func (m Map) Keys() []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Size estimates the footprint of the map's content in bytes (see
// Value.Size).
func (m Map) Size() int {
	s := 48
	for k, v := range m {
		s += len(k) + v.Size()
	}
	return s
}

// String renders the map in a stable, Cypher-like `{k: v, ...}` notation.
func (m Map) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range m.Keys() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(k)
		sb.WriteString(": ")
		sb.WriteString(m[k].String())
	}
	sb.WriteByte('}')
	return sb.String()
}
