package value

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// Field is one property: its key name and value.
type Field struct {
	Key string
	Val Value
}

// Packed is an immutable property list: fields sorted by key, no key
// twice. It is the resident form of a property set inside the engine —
// every cached version of a node or relationship holds one — because a
// Go map costs several hundred bytes before its first entry while a
// three-field list is one 144-byte allocation. The public API and the
// wire keep Map; convert with Pack and ToMap at that boundary.
//
// The zero Packed is the empty list. The unexported slice keeps the
// invariant (sorted, duplicate-free, never mutated after construction)
// inside this package.
type Packed struct {
	fields []Field
}

// linearScanMax is the list length up to which Get scans instead of
// bisecting: property sets are almost always this small, and a scan over
// adjacent fields beats the branches of a binary search.
const linearScanMax = 8

// Pack converts a map to its packed form.
func Pack(m Map) Packed {
	if len(m) == 0 {
		return Packed{}
	}
	fields := make([]Field, 0, len(m))
	for k, v := range m {
		fields = append(fields, Field{k, v})
	}
	slices.SortFunc(fields, compareKeys)
	return Packed{fields}
}

// PackFields builds a Packed from fields in any order (a later duplicate
// of a key wins, as a map assignment would). The fields are copied into
// an exactly sized list, so callers can collect them in a scratch buffer.
func PackFields(fields []Field) Packed {
	if len(fields) == 0 {
		return Packed{}
	}
	cp := make([]Field, len(fields))
	copy(cp, fields)
	return Packed{normalize(cp)}
}

// normalize sorts fields by key and drops all but the last field of each
// key, in place. Already normalized input — the common case: every
// encoder writes keys in order — costs one pass.
func normalize(fields []Field) []Field {
	ordered := true
	for i := 1; i < len(fields); i++ {
		if fields[i-1].Key >= fields[i].Key {
			ordered = false
			break
		}
	}
	if ordered {
		return fields
	}
	slices.SortStableFunc(fields, compareKeys)
	out := fields[:0]
	for i, f := range fields {
		if i+1 < len(fields) && fields[i+1].Key == f.Key {
			continue
		}
		out = append(out, f)
	}
	return out
}

func compareKeys(a, b Field) int { return strings.Compare(a.Key, b.Key) }

// Len returns the number of fields.
func (p Packed) Len() int { return len(p.fields) }

// At returns the i-th field in key order.
func (p Packed) At(i int) Field { return p.fields[i] }

// search returns the position of key, or where it would be inserted.
func (p Packed) search(key string) (int, bool) {
	if len(p.fields) <= linearScanMax {
		for i := range p.fields {
			if p.fields[i].Key >= key {
				return i, p.fields[i].Key == key
			}
		}
		return len(p.fields), false
	}
	i := sort.Search(len(p.fields), func(i int) bool { return p.fields[i].Key >= key })
	return i, i < len(p.fields) && p.fields[i].Key == key
}

// Get returns the value stored under key.
func (p Packed) Get(key string) (Value, bool) {
	if i, ok := p.search(key); ok {
		return p.fields[i].Val, true
	}
	return Null, false
}

// With returns a copy of p with key set to v; a Null v removes the key.
// p itself is unchanged (versions share their lists).
func (p Packed) With(key string, v Value) Packed {
	i, found := p.search(key)
	switch {
	case v.IsNull() && !found:
		return p
	case v.IsNull():
		if len(p.fields) == 1 {
			return Packed{}
		}
		out := make([]Field, 0, len(p.fields)-1)
		out = append(out, p.fields[:i]...)
		return Packed{append(out, p.fields[i+1:]...)}
	case found:
		out := make([]Field, len(p.fields))
		copy(out, p.fields)
		out[i].Val = v
		return Packed{out}
	default:
		out := make([]Field, 0, len(p.fields)+1)
		out = append(out, p.fields[:i]...)
		out = append(out, Field{key, v})
		return Packed{append(out, p.fields[i:]...)}
	}
}

// removed marks, inside a patch (Diff), a key the newer list no longer
// holds. It needs a marker of its own because a list may hold an explicit
// Null (Pack keeps what a map holds), so "set to Null" and "removed" are
// different changes. The marker exists only in patches: Merge consumes
// it, AppendPacked writes its one kind byte, DecodePatch alone reads it
// back — DecodeValue, and with it the store and the wire, rejects it.
const kindRemoved Kind = 0xFF

var removed = Value{kind: kindRemoved}

// Diff returns the patch that turns base into p: p's fields that base
// lacks or holds with a different value, and a removal mark for every key
// only base holds — one merge walk over the two sorted lists. The result
// is a patch, not a property list: hand it only to Merge and AppendPacked.
func (p Packed) Diff(base Packed) Packed {
	var out []Field
	i, j := 0, 0
	for i < len(base.fields) || j < len(p.fields) {
		switch {
		case j == len(p.fields) || (i < len(base.fields) && base.fields[i].Key < p.fields[j].Key):
			out = append(out, Field{base.fields[i].Key, removed})
			i++
		case i == len(base.fields) || p.fields[j].Key < base.fields[i].Key:
			out = append(out, p.fields[j])
			j++
		default:
			// == and not Equal, which holds 0.0 equal to -0.0 and every NaN
			// equal to every other: a redo must reproduce the value bit for
			// bit, and two Values are == exactly when they encode the same.
			if base.fields[i].Val != p.fields[j].Val {
				out = append(out, p.fields[j])
			}
			i++
			j++
		}
	}
	return Packed{out}
}

// Merge applies a patch made by Diff: base.Merge(p.Diff(base)) holds
// exactly p's fields. The result is a fresh, exactly sized list that
// shares base's key strings; a removal of a key p does not hold is
// ignored.
func (p Packed) Merge(patch Packed) Packed {
	if len(patch.fields) == 0 {
		return p
	}
	n := len(p.fields)
	for _, f := range patch.fields {
		_, found := p.search(f.Key)
		switch {
		case f.Val.kind == kindRemoved && found:
			n--
		case f.Val.kind != kindRemoved && !found:
			n++
		}
	}
	if n == 0 {
		return Packed{}
	}
	out := make([]Field, 0, n)
	i, j := 0, 0
	for i < len(p.fields) || j < len(patch.fields) {
		switch {
		case j == len(patch.fields) || (i < len(p.fields) && p.fields[i].Key < patch.fields[j].Key):
			out = append(out, p.fields[i])
			i++
		case i == len(p.fields) || patch.fields[j].Key < p.fields[i].Key:
			if patch.fields[j].Val.kind != kindRemoved {
				out = append(out, patch.fields[j])
			}
			j++
		default:
			if patch.fields[j].Val.kind != kindRemoved {
				out = append(out, Field{p.fields[i].Key, patch.fields[j].Val})
			}
			i++
			j++
		}
	}
	return Packed{out}
}

// ToMap materialises p as a fresh map (never nil), the form the public
// API hands out.
func (p Packed) ToMap() Map {
	m := make(Map, len(p.fields))
	for _, f := range p.fields {
		m[f.Key] = f.Val
	}
	return m
}

// HeapBytes returns the memory the list holds beside its own header: the
// field array and the payload bytes the values point at. Key names are
// not counted: the engine shares one copy of each through its token table.
func (p Packed) HeapBytes() int {
	s := len(p.fields) * int(unsafe.Sizeof(Field{}))
	for i := range p.fields {
		s += len(p.fields[i].Val.str)
	}
	return s
}

// AppendPacked appends the map encoding of p to dst: the bytes AppendMap
// writes for p.ToMap(), without building the map or sorting its keys. A
// patch is written the same way, each removal mark as its kind byte.
func AppendPacked(dst []byte, p Packed) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(p.fields)))
	for _, f := range p.fields {
		dst = binary.AppendUvarint(dst, uint64(len(f.Key)))
		dst = append(dst, f.Key...)
		dst = AppendValue(dst, f.Val)
	}
	return dst
}

// DecodePacked decodes a map encoding from the front of buf straight into
// a Packed, returning it and the number of bytes consumed. intern, when
// non-nil, supplies the key strings (so versions decoded from a log share
// one copy of each key name); nil copies each key.
func DecodePacked(buf []byte, intern func([]byte) string) (Packed, int, error) {
	return decodePacked(buf, intern, false)
}

// DecodePatch is DecodePacked for the encoding of a patch (Diff): it alone
// accepts removal marks.
func DecodePatch(buf []byte, intern func([]byte) string) (Packed, int, error) {
	return decodePacked(buf, intern, true)
}

func decodePacked(buf []byte, intern func([]byte) string, patch bool) (Packed, int, error) {
	cnt, n, err := decodeMapCount(buf)
	if err != nil || cnt == 0 {
		return Packed{}, n, err
	}
	fields := make([]Field, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		key, v, fn, err := decodeField(buf[n:], patch, math.MaxInt)
		if err != nil {
			return Packed{}, 0, err
		}
		n += fn
		f := Field{Val: v}
		if intern != nil {
			f.Key = intern(key)
		} else {
			f.Key = string(key)
		}
		fields = append(fields, f)
	}
	return Packed{normalize(fields)}, n, nil
}

// decodeMapCount reads the entry count that starts a map encoding.
func decodeMapCount(buf []byte) (cnt uint64, n int, err error) {
	cnt, n = binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, fmt.Errorf("%w: bad map count", ErrCorrupt)
	}
	if cnt > uint64(len(buf)) {
		return 0, 0, fmt.Errorf("%w: map count %d exceeds buffer", ErrCorrupt, cnt)
	}
	return cnt, n, nil
}

// decodeField reads one map entry — of a patch, one that may be a removal
// mark — whose lists nest at most depth deep; key aliases buf.
func decodeField(buf []byte, patch bool, depth int) (key []byte, v Value, n int, err error) {
	klen, kn := binary.Uvarint(buf)
	if kn <= 0 {
		return nil, Null, 0, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	n = kn
	if uint64(len(buf)-n) < klen {
		return nil, Null, 0, fmt.Errorf("%w: truncated key", ErrCorrupt)
	}
	key = buf[n : n+int(klen)]
	n += int(klen)
	if patch && n < len(buf) && Kind(buf[n]) == kindRemoved {
		return key, removed, n + 1, nil
	}
	v, vn, err := decodeValue(buf[n:], depth)
	if err != nil {
		return nil, Null, 0, err
	}
	return key, v, n + vn, nil
}
