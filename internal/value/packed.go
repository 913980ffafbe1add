package value

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// every cached version of a node or relationship holds one — so it is
// kept as the bytes AppendMap writes for it (codec.go: the count, then
// each key and value), in one string: one allocation the garbage
// collector never scans, where a field array holds a pointer a field.
// Reads walk the bytes; the keys and the string, byte and list values
// they return share them. The public API and the wire keep Map; convert
// with Pack and ToMap at that boundary.
//
// The zero Packed is the empty list. The unexported encoding keeps the
// invariant inside this package: every constructor writes, or checks, the
// encoder's own bytes with the keys strictly ascending, so a read never
// meets an error.
type Packed struct {
	enc string
}

// Pack converts a map to its packed form.
func Pack(m Map) Packed {
	if len(m) == 0 {
		return Packed{}
	}
	var scratch [8]Field
	fields := scratch[:0]
	for k, v := range m {
		fields = append(fields, Field{k, v})
	}
	return encodeFields(normalize(fields))
}

// PackFields builds a Packed from fields in any order (a later duplicate
// of a key wins, as a map assignment would). It may reorder fields, so
// callers can collect them in a scratch buffer.
func PackFields(fields []Field) Packed {
	return encodeFields(normalize(fields))
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
	slices.SortStableFunc(fields, func(a, b Field) int { return strings.Compare(a.Key, b.Key) })
	out := fields[:0]
	for i, f := range fields {
		if i+1 < len(fields) && fields[i+1].Key == f.Key {
			continue
		}
		out = append(out, f)
	}
	return out
}

// encodeFields encodes normalized fields into one exactly sized string.
func encodeFields(fields []Field) Packed {
	if len(fields) == 0 {
		return Packed{}
	}
	size := uvarintLen(uint64(len(fields)))
	for _, f := range fields {
		size += uvarintLen(uint64(len(f.Key))) + len(f.Key) + encodedLen(f.Val)
	}
	b := binary.AppendUvarint(make([]byte, 0, size), uint64(len(fields)))
	for _, f := range fields {
		b = binary.AppendUvarint(b, uint64(len(f.Key)))
		b = append(b, f.Key...)
		b = AppendValue(b, f.Val)
	}
	return seal(b)
}

// seal makes a list of an encoding nothing writes to again, without
// copying it.
func seal(b []byte) Packed { return Packed{unsafe.String(unsafe.SliceData(b), len(b))} }

// Len returns the number of fields.
func (p Packed) Len() int {
	n, _ := uvarint(p.enc)
	return int(n)
}

// Iter walks a list's fields in key order, reading them off the encoding
// without allocating:
//
//	for it := p.Iter(); it.Next(); {
//		use(it.Key(), it.Value())
//	}
type Iter struct {
	enc      string
	off      int    // where the next field starts
	key, val string // the current field: its key and its value's encoding
}

// Iter returns an iterator before p's first field.
func (p Packed) Iter() Iter {
	_, n := uvarint(p.enc)
	return Iter{enc: p.enc, off: n}
}

// Next moves to the next field, reporting whether there is one.
func (it *Iter) Next() bool {
	if it.off >= len(it.enc) {
		return false
	}
	k, v, end := field(it.enc, it.off)
	it.key, it.val, it.off = it.enc[k:v], it.enc[v:end], end
	return true
}

// field locates the field of enc that starts at off: its key is
// enc[k:v], its value's encoding enc[v:end].
func field(enc string, off int) (k, v, end int) {
	kl, n := uvarint(enc[off:])
	k = off + n
	v = k + int(kl)
	return k, v, v + valueLen(enc[v:])
}

// Key returns the current field's key.
func (it *Iter) Key() string { return it.key }

// Value returns the current field's value.
func (it *Iter) Value() Value { return valueOf(it.val) }

// Encoded returns the current field's value as AppendValue writes it.
func (it *Iter) Encoded() string { return it.val }

// Get returns the value stored under key. Lists are short: a walk that
// tests each key for equality beats one that orders them to stop early.
func (p Packed) Get(key string) (Value, bool) {
	_, off := uvarint(p.enc)
	for off < len(p.enc) {
		k, v, end := field(p.enc, off)
		if p.enc[k:v] == key {
			return valueOf(p.enc[v:end]), true
		}
		off = end
	}
	return Null, false
}

// With returns a copy of p with key set to v; a Null v removes the key.
// p itself is unchanged (versions share their lists).
func (p Packed) With(key string, v Value) Packed {
	n, body := uvarint(p.enc)
	// [lo, hi) is key's field, or the empty range where it would go.
	lo, hi := len(p.enc), len(p.enc)
	for it := p.Iter(); ; {
		start := it.off
		if !it.Next() {
			break
		}
		if it.key >= key {
			lo, hi = start, start
			if it.key == key {
				hi = it.off
			}
			break
		}
	}
	found, size := hi > lo, 0
	switch {
	case v.IsNull() && !found:
		return p
	case v.IsNull():
		if n--; n == 0 {
			return Packed{}
		}
	default:
		if !found {
			n++
		}
		size = uvarintLen(uint64(len(key))) + len(key) + encodedLen(v)
	}
	size += uvarintLen(n) + lo - body + len(p.enc) - hi
	b := binary.AppendUvarint(make([]byte, 0, size), n)
	b = append(b, p.enc[body:lo]...)
	if !v.IsNull() {
		b = binary.AppendUvarint(b, uint64(len(key)))
		b = append(b, key...)
		b = AppendValue(b, v)
	}
	return seal(append(b, p.enc[hi:]...))
}

// removed marks, inside a patch (Diff), a key the newer list no longer
// holds. It needs a marker of its own because a list may hold an explicit
// Null (Pack keeps what a map holds), so "set to Null" and "removed" are
// different changes. The marker exists only in patches: Merge consumes
// it, AppendPacked writes its one kind byte, DecodePatch alone reads it
// back — DecodeValue, and with it the store and the wire, rejects it.
const kindRemoved Kind = 0xFF

var removed = Value{kind: kindRemoved}

// removedEnc is removed as AppendValue writes it.
const removedEnc = "\xff"

// Diff returns the patch that turns base into p: p's fields that base
// lacks or holds with different bytes — 0.0 and -0.0, and two NaNs, are
// Equal but not the same value to a redo — and a removal mark for every
// key only base holds; one merge walk over the two sorted lists. The
// result is a patch, not a property list: hand it only to Merge and
// AppendPacked.
func (p Packed) Diff(base Packed) Packed {
	var scratch [256]byte
	fields, n := scratch[:0], 0
	for z := zip(base, p); z.next(); {
		switch {
		case z.b == "":
			fields, n = appendEncoded(fields, z.key, removedEnc), n+1
		case z.a != z.b:
			fields, n = appendEncoded(fields, z.key, z.b), n+1
		}
	}
	return packEncoded(fields, n)
}

// Merge applies a patch made by Diff: base.Merge(p.Diff(base)) holds
// exactly p's fields. The result is a fresh, exactly sized list; a
// removal of a key p does not hold is ignored.
func (p Packed) Merge(patch Packed) Packed {
	if patch.enc == "" {
		return p
	}
	var scratch [256]byte
	fields, n := scratch[:0], 0
	for z := zip(p, patch); z.next(); {
		switch {
		case z.b == "":
			fields, n = appendEncoded(fields, z.key, z.a), n+1
		case z.b != removedEnc:
			fields, n = appendEncoded(fields, z.key, z.b), n+1
		}
	}
	return packEncoded(fields, n)
}

// appendEncoded appends one field whose value is already encoded.
func appendEncoded(dst []byte, key, val string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return append(dst, val...)
}

// packEncoded makes a list of n encoded fields: their count and a copy of
// them, in one exactly sized allocation.
func packEncoded(fields []byte, n int) Packed {
	if n == 0 {
		return Packed{}
	}
	b := binary.AppendUvarint(make([]byte, 0, uvarintLen(uint64(n))+len(fields)), uint64(n))
	return seal(append(b, fields...))
}

// zipper walks two lists side by side in key order: each step is a key
// and its value's encoding in a and in b, "" where a list lacks the key
// (an encoding is never empty).
type zipper struct {
	ia, ib    Iter
	okA, okB  bool
	key, a, b string
}

func zip(a, b Packed) zipper {
	z := zipper{ia: a.Iter(), ib: b.Iter()}
	z.okA, z.okB = z.ia.Next(), z.ib.Next()
	return z
}

func (z *zipper) next() bool {
	switch {
	case !z.okA && !z.okB:
		return false
	case !z.okB || z.okA && z.ia.key < z.ib.key:
		z.key, z.a, z.b = z.ia.key, z.ia.val, ""
		z.okA = z.ia.Next()
	case !z.okA || z.ib.key < z.ia.key:
		z.key, z.a, z.b = z.ib.key, "", z.ib.val
		z.okB = z.ib.Next()
	default:
		z.key, z.a, z.b = z.ia.key, z.ia.val, z.ib.val
		z.okA, z.okB = z.ia.Next(), z.ib.Next()
	}
	return true
}

// ToMap materialises p as a fresh map (never nil), the form the public
// API hands out.
func (p Packed) ToMap() Map {
	m := make(Map, p.Len())
	for it := p.Iter(); it.Next(); {
		m[it.key] = it.Value()
	}
	return m
}

// HeapBytes returns the memory the list holds beside its own header: its
// encoding, key names included, in one allocation without pointers.
func (p Packed) HeapBytes() int { return len(p.enc) }

// AppendPacked appends the map encoding of p to dst: the bytes AppendMap
// writes for p.ToMap(). A patch is written the same way, each removal
// mark as its kind byte.
func AppendPacked(dst []byte, p Packed) []byte {
	if p.enc == "" {
		return append(dst, 0)
	}
	return append(dst, p.enc...)
}

// DecodePacked decodes a map encoding from the front of buf, returning the
// list and the number of bytes consumed. It checks the encoding as
// DecodeMap does and copies it once; bytes that decode but are not what
// the encoder writes — keys out of order or repeated (the last one wins),
// padded lengths — are rewritten as the encoder would write them.
func DecodePacked(buf []byte) (Packed, int, error) { return decodePacked(buf, false) }

// DecodePatch is DecodePacked for the encoding of a patch (Diff): it alone
// accepts removal marks.
func DecodePatch(buf []byte) (Packed, int, error) { return decodePacked(buf, true) }

func decodePacked(buf []byte, patch bool) (Packed, int, error) {
	cnt, n, err := decodeMapCount(buf)
	if err != nil {
		return Packed{}, 0, err
	}
	p, fn, err := decodeFields(buf[n:], cnt, patch)
	if err != nil {
		return Packed{}, 0, err
	}
	return p, n + fn, nil
}

// AppendField appends one field of a map encoding to dst: key, then the
// value encoded at the front of enc, checked as DecodeValue checks it.
func AppendField(dst []byte, key string, enc []byte) ([]byte, error) {
	n, _, err := checkValue(enc, math.MaxInt)
	if err != nil {
		return dst, err
	}
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return append(dst, enc[:n]...), nil
}

// DecodeFields is DecodePacked for n fields without the count in front,
// all of buf: what n calls of AppendField write.
func DecodeFields(buf []byte, n int) (Packed, error) {
	p, used, err := decodeFields(buf, uint64(n), false)
	if err == nil && used != len(buf) {
		err = fmt.Errorf("%w: %d bytes after %d fields", ErrCorrupt, len(buf)-used, n)
	}
	return p, err
}

// decodeFields reads cnt fields from the front of buf. It checks them in
// place, and when they are the encoder's own bytes in key order — the
// common case — copies them behind their count in one allocation;
// otherwise it decodes them and encodes the result afresh.
func decodeFields(buf []byte, cnt uint64, patch bool) (Packed, int, error) {
	n, canonical := 0, true
	var prev []byte
	for i := uint64(0); i < cnt; i++ {
		key, fn, ok, err := checkField(buf[n:], patch)
		if err != nil {
			return Packed{}, 0, err
		}
		canonical = canonical && ok && (i == 0 || bytes.Compare(prev, key) < 0)
		prev, n = key, n+fn
	}
	switch {
	case cnt == 0:
		return Packed{}, n, nil
	case canonical:
		return packEncoded(buf[:n], int(cnt)), n, nil
	}
	fields := make([]Field, 0, cnt)
	for off := 0; off < n; {
		key, v, fn, _ := decodeField(buf[off:], patch, math.MaxInt)
		fields = append(fields, Field{string(key), v})
		off += fn
	}
	return PackFields(fields), n, nil
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
	key, n, err = fieldKey(buf)
	if err != nil {
		return nil, Null, 0, err
	}
	if patch && n < len(buf) && Kind(buf[n]) == kindRemoved {
		return key, removed, n + 1, nil
	}
	v, vn, err := decodeValue(buf[n:], depth)
	if err != nil {
		return nil, Null, 0, err
	}
	return key, v, n + vn, nil
}

// checkField is decodeField without decoding: it reports the entry's
// length and key, and whether it is the encoder's own bytes.
func checkField(buf []byte, patch bool) (key []byte, n int, canonical bool, err error) {
	key, n, err = fieldKey(buf)
	if err != nil {
		return nil, 0, false, err
	}
	canonical = n == uvarintLen(uint64(len(key)))+len(key)
	if patch && n < len(buf) && Kind(buf[n]) == kindRemoved {
		return key, n + 1, canonical, nil
	}
	vn, ok, err := checkValue(buf[n:], math.MaxInt)
	if err != nil {
		return nil, 0, false, err
	}
	return key, n + vn, canonical && ok, nil
}

// fieldKey reads the key that starts a map entry; key aliases buf.
func fieldKey(buf []byte) (key []byte, n int, err error) {
	klen, kn := binary.Uvarint(buf)
	if kn <= 0 {
		return nil, 0, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	if uint64(len(buf)-kn) < klen {
		return nil, 0, fmt.Errorf("%w: truncated key", ErrCorrupt)
	}
	return buf[kn : kn+int(klen)], kn + int(klen), nil
}

// checkValue is decodeValue without decoding: it fails exactly where
// decodeValue does, and otherwise reports the value's length and whether
// it is the encoder's own bytes (no padded count or length, no padded
// varint).
func checkValue(buf []byte, depth int) (n int, canonical bool, err error) {
	if len(buf) == 0 {
		return 0, false, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	switch k := Kind(buf[0]); k {
	case KindNull:
		return 1, true, nil
	case KindBool:
		if len(buf) < 2 {
			return 0, false, fmt.Errorf("%w: truncated bool", ErrCorrupt)
		}
		if buf[1] > 1 {
			return 0, false, fmt.Errorf("%w: bool byte %d", ErrCorrupt, buf[1])
		}
		return 2, true, nil
	case KindInt:
		u, m := binary.Uvarint(buf[1:])
		if m <= 0 {
			return 0, false, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		return 1 + m, m == uvarintLen(u), nil
	case KindFloat:
		if len(buf) < 9 {
			return 0, false, fmt.Errorf("%w: truncated float", ErrCorrupt)
		}
		return 9, true, nil
	case KindString, KindBytes:
		l, m := binary.Uvarint(buf[1:])
		if m <= 0 {
			return 0, false, fmt.Errorf("%w: bad length", ErrCorrupt)
		}
		if uint64(len(buf)-1-m) < l {
			return 0, false, fmt.Errorf("%w: truncated payload (want %d, have %d)", ErrCorrupt, l, len(buf)-1-m)
		}
		return 1 + m + int(l), m == uvarintLen(l), nil
	case KindList:
		if depth == 0 {
			return 0, false, fmt.Errorf("%w: lists nested deeper than %d", ErrCorrupt, maxNesting)
		}
		cnt, m := binary.Uvarint(buf[1:])
		if m <= 0 {
			return 0, false, fmt.Errorf("%w: bad list count", ErrCorrupt)
		}
		if cnt > uint64(len(buf)) {
			return 0, false, fmt.Errorf("%w: list count %d exceeds buffer", ErrCorrupt, cnt)
		}
		n, canonical = 1+m, m == uvarintLen(cnt)
		for i := uint64(0); i < cnt; i++ {
			en, ok, err := checkValue(buf[n:], depth-1)
			if err != nil {
				return 0, false, err
			}
			n, canonical = n+en, canonical && ok
		}
		return n, canonical, nil
	default:
		return 0, false, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, k)
	}
}

// The readers below walk a list's own encoding, which its constructor
// wrote or checked: they meet no error, and an encoding that is not one
// of those is a bug in this package.

// uvarint reads the uvarint at the front of s.
func uvarint(s string) (uint64, int) {
	var x uint64
	for i := 0; i < len(s); i++ {
		b := s[i]
		if b < 0x80 {
			return x | uint64(b)<<(7*i), i + 1
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	return x, len(s)
}

// uvarintLen is the length of x as binary.AppendUvarint writes it.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// valueLen returns the length of the value encoded at the front of s.
func valueLen(s string) int {
	switch Kind(s[0]) {
	case KindBool:
		return 2
	case KindInt:
		_, n := uvarint(s[1:])
		return 1 + n
	case KindFloat:
		return 9
	case KindString, KindBytes:
		l, n := uvarint(s[1:])
		return 1 + n + int(l)
	case KindList:
		cnt, n := uvarint(s[1:])
		n++
		for ; cnt > 0; cnt-- {
			n += valueLen(s[n:])
		}
		return n
	default: // null, a removal mark
		return 1
	}
}

// valueOf returns the value s encodes, sharing s's bytes.
func valueOf(s string) Value {
	switch k := Kind(s[0]); k {
	case KindBool:
		return Value{kind: k, num: uint64(s[1])}
	case KindInt:
		u, _ := uvarint(s[1:])
		return Int(int64(u>>1) ^ -int64(u&1))
	case KindFloat:
		var num uint64
		for i := 8; i >= 1; i-- {
			num = num<<8 | uint64(s[i])
		}
		return Value{kind: k, num: num}
	case KindString, KindBytes:
		_, n := uvarint(s[1:])
		return Value{kind: k, str: s[1+n:]}
	case KindList:
		return Value{kind: k, str: s[1:]}
	case kindRemoved:
		return removed
	default:
		return Null
	}
}

// encodedLen is len(AppendValue(nil, v)).
func encodedLen(v Value) int {
	switch v.kind {
	case KindBool:
		return 2
	case KindInt:
		x := int64(v.num)
		return 1 + uvarintLen(uint64(x<<1)^uint64(x>>63))
	case KindFloat:
		return 9
	case KindString, KindBytes:
		return 1 + uvarintLen(uint64(len(v.str))) + len(v.str)
	case KindList:
		return 1 + len(v.str)
	default: // null, a removal mark
		return 1
	}
}
