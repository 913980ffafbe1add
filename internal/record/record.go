// Package record defines the on-disk record formats of the persistent
// store (Figure 1 of the paper). Like Neo4j, every store file is an array
// of fixed-size records addressed by ID:
//
//   - node records hold the ID of the node's first property, a reference
//     to its label set and the commit timestamp of the persisted version;
//   - relationship records hold source and destination node IDs, the
//     relationship type token, the first property and the commit
//     timestamp — what a scan in ID order reads, and nothing more:
//     adjacency is rebuilt in memory from the endpoints at Open, so no
//     record points at another entity's;
//   - property records are chained blocks holding one key/value each, with
//     small values inlined and large values spilled to the dynamic store;
//   - dynamic records are chained blocks of raw bytes used for long
//     strings, byte arrays and label sets.
//
// The package is pure encoding: it knows nothing about files or caching.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"

	"neograph/internal/ids"
)

// Record sizes in bytes. A whole number of records fits in one 8 KiB page
// and none straddles two: a relationship page holds 204, and 32 bytes of
// slack at its end.
const (
	NodeSize = 32
	RelSize  = 40
	PropSize = 64
	DynSize  = 128

	// PropInlineMax is the largest encoded value stored inline in a
	// property record; longer values spill to the dynamic store.
	PropInlineMax = PropSize - propHeader - 1 // 1 byte inline length

	// DynPayload is the usable payload per dynamic record.
	DynPayload = DynSize - dynHeader
)

const (
	propHeader = 1 + 4 + 8 + 8 // flags, keyID, next, prev... see PropRecord
	dynHeader  = 1 + 3 + 8     // flags, length, next
)

// Record flags.
const (
	FlagInUse     = 1 << 0 // record is live
	FlagSpilled   = 1 << 1 // property value lives in the dynamic store
	FlagTombstone = 1 << 2 // entity is a deletion marker (paper §4: tombstone versions)
)

// ErrCorrupt reports a malformed record.
var ErrCorrupt = errors.New("record: corrupt record")

// NodeRecord is the fixed-size persistent image of a node. Exactly one
// (the newest committed) version of each node is persisted (paper §4),
// stamped with the timestamp it committed at.
type NodeRecord struct {
	InUse     bool
	Tombstone bool
	FirstProp ids.ID // head of the property chain, NoID if none
	LabelRef  ids.ID // dynamic store record holding the label token list, NoID if none
	CommitTS  uint64
}

// EncodeNode writes n into dst, which must be at least NodeSize bytes.
func EncodeNode(dst []byte, n *NodeRecord) {
	_ = dst[:NodeSize]
	var flags byte
	if n.InUse {
		flags |= FlagInUse
	}
	if n.Tombstone {
		flags |= FlagTombstone
	}
	dst[0] = flags
	binary.LittleEndian.PutUint64(dst[1:], n.FirstProp)
	binary.LittleEndian.PutUint64(dst[9:], n.LabelRef)
	binary.LittleEndian.PutUint64(dst[17:], n.CommitTS)
	for i := 25; i < NodeSize; i++ {
		dst[i] = 0
	}
}

// DecodeNode parses a node record from src (at least NodeSize bytes).
func DecodeNode(src []byte) (NodeRecord, error) {
	if len(src) < NodeSize {
		return NodeRecord{}, fmt.Errorf("%w: short node record (%d bytes)", ErrCorrupt, len(src))
	}
	flags := src[0]
	return NodeRecord{
		InUse:     flags&FlagInUse != 0,
		Tombstone: flags&FlagTombstone != 0,
		FirstProp: binary.LittleEndian.Uint64(src[1:]),
		LabelRef:  binary.LittleEndian.Uint64(src[9:]),
		CommitTS:  binary.LittleEndian.Uint64(src[17:]),
	}, nil
}

// RelRecord is the fixed-size persistent image of a relationship.
type RelRecord struct {
	InUse     bool
	Tombstone bool
	Type      uint32 // relationship type token
	StartNode ids.ID
	EndNode   ids.ID
	FirstProp ids.ID
	CommitTS  uint64
}

// EncodeRel writes r into dst, which must be at least RelSize bytes.
func EncodeRel(dst []byte, r *RelRecord) {
	_ = dst[:RelSize]
	var flags byte
	if r.InUse {
		flags |= FlagInUse
	}
	if r.Tombstone {
		flags |= FlagTombstone
	}
	dst[0] = flags
	binary.LittleEndian.PutUint32(dst[1:], r.Type)
	binary.LittleEndian.PutUint64(dst[5:], r.StartNode)
	binary.LittleEndian.PutUint64(dst[13:], r.EndNode)
	binary.LittleEndian.PutUint64(dst[21:], r.FirstProp)
	binary.LittleEndian.PutUint64(dst[29:], r.CommitTS)
	for i := 37; i < RelSize; i++ {
		dst[i] = 0
	}
}

// DecodeRel parses a relationship record from src (at least RelSize bytes).
func DecodeRel(src []byte) (RelRecord, error) {
	if len(src) < RelSize {
		return RelRecord{}, fmt.Errorf("%w: short rel record (%d bytes)", ErrCorrupt, len(src))
	}
	flags := src[0]
	return RelRecord{
		InUse:     flags&FlagInUse != 0,
		Tombstone: flags&FlagTombstone != 0,
		Type:      binary.LittleEndian.Uint32(src[1:]),
		StartNode: binary.LittleEndian.Uint64(src[5:]),
		EndNode:   binary.LittleEndian.Uint64(src[13:]),
		FirstProp: binary.LittleEndian.Uint64(src[21:]),
		CommitTS:  binary.LittleEndian.Uint64(src[29:]),
	}, nil
}

// PropRecord is one block in an entity's property chain: one key/value
// pair. Values whose encoding fits PropInlineMax bytes are inlined;
// longer ones live in a dynamic-store chain referenced by SpillRef.
type PropRecord struct {
	InUse    bool
	Key      uint32 // property key token
	Next     ids.ID // next property block, NoID at end of chain
	SpillRef ids.ID // dynamic record holding the value when spilled
	Inline   []byte // encoded value when not spilled (<= PropInlineMax)
	Spilled  bool
}

// EncodeProp writes p into dst, which must be at least PropSize bytes.
// It panics if Inline exceeds PropInlineMax — callers must spill first.
func EncodeProp(dst []byte, p *PropRecord) {
	_ = dst[:PropSize]
	if len(p.Inline) > PropInlineMax {
		panic(fmt.Sprintf("record: inline property payload %d > max %d", len(p.Inline), PropInlineMax))
	}
	var flags byte
	if p.InUse {
		flags |= FlagInUse
	}
	if p.Spilled {
		flags |= FlagSpilled
	}
	dst[0] = flags
	binary.LittleEndian.PutUint32(dst[1:], p.Key)
	binary.LittleEndian.PutUint64(dst[5:], p.Next)
	binary.LittleEndian.PutUint64(dst[13:], p.SpillRef)
	dst[propHeader] = byte(len(p.Inline))
	copy(dst[propHeader+1:], p.Inline)
	for i := propHeader + 1 + len(p.Inline); i < PropSize; i++ {
		dst[i] = 0
	}
}

// DecodeProp parses a property record from src (at least PropSize bytes).
// Inline aliases src: decode or copy it before src is reused.
func DecodeProp(src []byte) (PropRecord, error) {
	if len(src) < PropSize {
		return PropRecord{}, fmt.Errorf("%w: short prop record (%d bytes)", ErrCorrupt, len(src))
	}
	flags := src[0]
	p := PropRecord{
		InUse:    flags&FlagInUse != 0,
		Spilled:  flags&FlagSpilled != 0,
		Key:      binary.LittleEndian.Uint32(src[1:]),
		Next:     binary.LittleEndian.Uint64(src[5:]),
		SpillRef: binary.LittleEndian.Uint64(src[13:]),
	}
	n := int(src[propHeader])
	if n > PropInlineMax {
		return PropRecord{}, fmt.Errorf("%w: inline length %d > max %d", ErrCorrupt, n, PropInlineMax)
	}
	if n > 0 {
		p.Inline = src[propHeader+1 : propHeader+1+n : propHeader+1+n]
	}
	return p, nil
}

// DynRecord is one block of a dynamic-store chain holding raw bytes.
type DynRecord struct {
	InUse   bool
	Payload []byte // at most DynPayload bytes
	Next    ids.ID // next block, NoID at end of chain
}

// EncodeDyn writes d into dst, which must be at least DynSize bytes. It
// panics if Payload exceeds DynPayload.
func EncodeDyn(dst []byte, d *DynRecord) {
	_ = dst[:DynSize]
	if len(d.Payload) > DynPayload {
		panic(fmt.Sprintf("record: dynamic payload %d > max %d", len(d.Payload), DynPayload))
	}
	var flags byte
	if d.InUse {
		flags |= FlagInUse
	}
	dst[0] = flags
	dst[1] = byte(len(d.Payload))
	dst[2] = byte(len(d.Payload) >> 8)
	dst[3] = byte(len(d.Payload) >> 16)
	binary.LittleEndian.PutUint64(dst[4:], d.Next)
	copy(dst[dynHeader:], d.Payload)
	for i := dynHeader + len(d.Payload); i < DynSize; i++ {
		dst[i] = 0
	}
}

// DecodeDyn parses a dynamic record from src (at least DynSize bytes).
// Payload aliases src: copy it before src is reused.
func DecodeDyn(src []byte) (DynRecord, error) {
	if len(src) < DynSize {
		return DynRecord{}, fmt.Errorf("%w: short dyn record (%d bytes)", ErrCorrupt, len(src))
	}
	n := int(src[1]) | int(src[2])<<8 | int(src[3])<<16
	if n > DynPayload {
		return DynRecord{}, fmt.Errorf("%w: dyn length %d > max %d", ErrCorrupt, n, DynPayload)
	}
	d := DynRecord{
		InUse: src[0]&FlagInUse != 0,
		Next:  binary.LittleEndian.Uint64(src[4:]),
	}
	if n > 0 {
		d.Payload = src[dynHeader : dynHeader+n : dynHeader+n]
	}
	return d, nil
}
