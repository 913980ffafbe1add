package value

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary codec for values and property maps.
//
// The encoding is length-prefixed and self-describing:
//
//	value   := kind:u8 payload
//	payload := ""                      (null)
//	         | b:u8                    (bool, 0 or 1)
//	         | i:varint                (int, zig-zag)
//	         | f:u64le                 (float bits)
//	         | len:uvarint bytes       (string | bytes)
//	         | n:uvarint value*n       (list)
//	map     := n:uvarint (klen:uvarint kbytes value)*n
//
// The codec is used by the property store, the WAL and the wire protocol;
// it must remain stable across versions of the library.

// Codec errors.
var (
	ErrCorrupt = errors.New("value: corrupt encoding")
)

// AppendValue appends the binary encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull, kindRemoved: // the kind byte is all there is
	case KindBool:
		dst = append(dst, byte(v.num))
	case KindInt:
		dst = binary.AppendVarint(dst, int64(v.num))
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, v.num)
	case KindString, KindBytes:
		dst = binary.AppendUvarint(dst, uint64(len(v.str)))
		dst = append(dst, v.str...)
	case KindList:
		dst = append(dst, v.str...)
	}
	return dst
}

// EncodeValue returns the binary encoding of v.
func EncodeValue(v Value) []byte { return AppendValue(nil, v) }

// DecodeValue decodes a value from the front of buf, returning the value
// and the number of bytes consumed.
func DecodeValue(buf []byte) (Value, int, error) { return decodeValue(buf, math.MaxInt) }

// decodeValue is DecodeValue refusing lists nested more than depth deep.
func decodeValue(buf []byte, depth int) (Value, int, error) {
	if len(buf) == 0 {
		return Null, 0, fmt.Errorf("%w: empty buffer", ErrCorrupt)
	}
	k := Kind(buf[0])
	n := 1
	switch k {
	case KindNull:
		return Null, n, nil
	case KindBool:
		if len(buf) < 2 {
			return Null, 0, fmt.Errorf("%w: truncated bool", ErrCorrupt)
		}
		if buf[1] > 1 {
			return Null, 0, fmt.Errorf("%w: bool byte %d", ErrCorrupt, buf[1])
		}
		return Bool(buf[1] == 1), 2, nil
	case KindInt:
		i, m := binary.Varint(buf[n:])
		if m <= 0 {
			return Null, 0, fmt.Errorf("%w: bad varint", ErrCorrupt)
		}
		return Int(i), n + m, nil
	case KindFloat:
		if len(buf) < n+8 {
			return Null, 0, fmt.Errorf("%w: truncated float", ErrCorrupt)
		}
		bits := binary.LittleEndian.Uint64(buf[n:])
		return Float(math.Float64frombits(bits)), n + 8, nil
	case KindString, KindBytes:
		l, m := binary.Uvarint(buf[n:])
		if m <= 0 {
			return Null, 0, fmt.Errorf("%w: bad length", ErrCorrupt)
		}
		n += m
		if uint64(len(buf)-n) < l {
			return Null, 0, fmt.Errorf("%w: truncated payload (want %d, have %d)", ErrCorrupt, l, len(buf)-n)
		}
		payload := string(buf[n : n+int(l)])
		n += int(l)
		if k == KindString {
			return String(payload), n, nil
		}
		return Value{kind: KindBytes, str: payload}, n, nil
	case KindList:
		if depth == 0 {
			return Null, 0, fmt.Errorf("%w: lists nested deeper than %d", ErrCorrupt, maxNesting)
		}
		cnt, m := binary.Uvarint(buf[n:])
		if m <= 0 {
			return Null, 0, fmt.Errorf("%w: bad list count", ErrCorrupt)
		}
		if cnt > uint64(len(buf)) {
			// Every element takes at least one byte; a count larger than the
			// remaining buffer is certainly corrupt and would otherwise let a
			// hostile input force a huge allocation.
			return Null, 0, fmt.Errorf("%w: list count %d exceeds buffer", ErrCorrupt, cnt)
		}
		n += m
		elems := make([]Value, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			e, m, err := decodeValue(buf[n:], depth-1)
			if err != nil {
				return Null, 0, err
			}
			elems = append(elems, e)
			n += m
		}
		// Through List, not buf[1:n]: a padded varint decodes too, and a
		// list holds its elements as this codec writes them.
		return List(elems...), n, nil
	default:
		return Null, 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, k)
	}
}

// AppendMap appends the binary encoding of property map m to dst. Keys are
// written in sorted order so the encoding is deterministic.
func AppendMap(dst []byte, m Map) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m)))
	for _, k := range m.Keys() {
		dst = binary.AppendUvarint(dst, uint64(len(k)))
		dst = append(dst, k...)
		dst = AppendValue(dst, m[k])
	}
	return dst
}

// EncodeMap returns the binary encoding of m.
func EncodeMap(m Map) []byte { return AppendMap(nil, m) }

// DecodeMap decodes a property map from the front of buf, returning the
// map and the number of bytes consumed.
func DecodeMap(buf []byte) (Map, int, error) { return decodeMap(buf, math.MaxInt) }

// decodeMap is DecodeMap refusing lists nested more than depth deep.
func decodeMap(buf []byte, depth int) (Map, int, error) {
	cnt, n, err := decodeMapCount(buf)
	if err != nil {
		return nil, 0, err
	}
	m := make(Map, cnt)
	for i := uint64(0); i < cnt; i++ {
		key, v, fn, err := decodeField(buf[n:], false, depth)
		if err != nil {
			return nil, 0, err
		}
		n += fn
		m[string(key)] = v
	}
	return m, n, nil
}

// maxNesting bounds how deep lists nest in what ParseValue and ParseMap
// accept. It is encoding/json's own limit, which bounded the same input
// while values travelled as JSON; nothing else bounds the decoder's
// recursion over bytes from outside.
const maxNesting = 10000

// errNotCanonical refuses bytes that decode but are not what the encoder
// writes for the result.
var errNotCanonical = fmt.Errorf("%w: not the encoder's bytes (trailing bytes, a key out of order or repeated, or a padded length)", ErrCorrupt)

// ParseValue decodes buf, whole, as one value: the strict reading for
// bytes from outside the process (a frame, a dump). It accepts exactly
// what AppendValue writes, with lists nested at most maxNesting deep. An
// empty buf, an absent field, is Null. The log and the store read with
// DecodeValue.
func ParseValue(buf []byte) (Value, error) {
	if len(buf) == 0 {
		return Null, nil
	}
	v, _, err := decodeValue(buf, maxNesting)
	if err == nil && !bytes.Equal(AppendValue(make([]byte, 0, len(buf)), v), buf) {
		err = errNotCanonical
	}
	if err != nil {
		return Null, err
	}
	return v, nil
}

// ParseMap is ParseValue for a property map, whose keys must therefore be
// strictly ascending. An empty buf is the empty map, nil.
func ParseMap(buf []byte) (Map, error) {
	if len(buf) == 0 {
		return nil, nil
	}
	m, _, err := decodeMap(buf, maxNesting)
	if err == nil && !bytes.Equal(AppendMap(make([]byte, 0, len(buf)), m), buf) {
		err = errNotCanonical
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}
