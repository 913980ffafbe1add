package core

import (
	"encoding/binary"
	"testing"

	"neograph/internal/lock"
	"neograph/internal/value"
)

// sampleMutations builds a representative mutation set: a labelled node
// with properties, a tombstoned node, and a relationship.
func sampleMutations() []mutation {
	return []mutation{
		{
			key:     entKey{lock.KindNode, 7},
			created: true,
			node: &NodeState{
				Labels: []string{"Account", "Person"},
				Props:  value.Pack(value.Map{"name": value.String("alice"), "balance": value.Int(42)}),
			},
		},
		{
			key:     entKey{lock.KindNode, 9},
			deleted: true,
			node:    &NodeState{Labels: []string{"Gone"}},
		},
		{
			key:     entKey{lock.KindRel, 3},
			created: true,
			rel: &RelState{
				Type: "KNOWS", Start: 7, End: 9,
				Props: value.Pack(value.Map{"since": value.Int(2016)}),
			},
		},
	}
}

func TestCommitCodecRoundTrip(t *testing.T) {
	muts := sampleMutations()
	payload := encodeCommit(123, muts)
	cts, got, err := decodeCommit(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cts != 123 {
		t.Fatalf("cts = %d", cts)
	}
	if len(got) != len(muts) {
		t.Fatalf("decoded %d mutations, want %d", len(got), len(muts))
	}
	if got[0].key != muts[0].key || !got[0].created || !got[0].node.Props.ToMap()["name"].Equal(value.String("alice")) {
		t.Fatalf("mutation 0 mismatch: %+v", got[0])
	}
	if !got[1].deleted || got[1].node.Labels[0] != "Gone" {
		t.Fatalf("mutation 1 mismatch: %+v", got[1])
	}
	if got[2].rel.Type != "KNOWS" || got[2].rel.Start != 7 || got[2].rel.End != 9 {
		t.Fatalf("mutation 2 mismatch: %+v", got[2])
	}
}

// TestDecodeCommitAbsurdCount regression-tests the count bound: a tiny
// payload claiming a huge mutation count must be rejected up front (the
// old check compared the count against the total payload length, which a
// small record with a large varint count slipped past, driving a giant
// allocation).
func TestDecodeCommitAbsurdCount(t *testing.T) {
	for _, count := range []uint64{2, 100, 1 << 20, 1 << 40} {
		buf := []byte{recCommit}
		buf = binary.LittleEndian.AppendUint64(buf, 1)
		buf = binary.AppendUvarint(buf, count)
		// One minimal mutation's worth of bytes at most: far fewer than
		// the claimed count needs.
		buf = append(buf, make([]byte, minMutationBytes)...)
		if _, _, err := decodeCommit(buf, nil); err == nil {
			t.Fatalf("count %d over %d payload bytes decoded without error", count, len(buf))
		}
	}
	// The boundary case must still decode: exactly as many minimal
	// mutations as the bytes allow. (A zero-ID node with no labels and a
	// nil map is 12 bytes, so build the record honestly.)
	honest := encodeCommit(1, []mutation{{key: entKey{lock.KindNode, 1}}})
	if _, _, err := decodeCommit(honest, nil); err != nil {
		t.Fatalf("honest minimal record rejected: %v", err)
	}
}

// FuzzDecodeCommit hammers the decoder with corrupted commit records: it
// must reject or decode them without panicking or over-allocating, and
// valid records must round-trip. Runs its seed corpus as a normal test;
// use `go test -fuzz FuzzDecodeCommit ./internal/core` to explore.
func FuzzDecodeCommit(f *testing.F) {
	f.Add(encodeCommit(1, sampleMutations()))
	f.Add(encodeCommit(999, []mutation{{key: entKey{lock.KindRel, 1 << 40}, deleted: true, rel: &RelState{Type: "X"}}}))
	f.Add([]byte{recCommit})
	f.Add([]byte{recCheckpoint, 0, 0, 0, 0, 0, 0, 0, 0})
	// Seed systematic single-byte corruptions of a valid record.
	base := encodeCommit(7, sampleMutations())
	for i := 0; i < len(base); i += 3 {
		cp := append([]byte(nil), base...)
		cp[i] ^= 0xFF
		f.Add(cp)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		cts, muts, err := decodeCommit(payload, nil)
		if err != nil {
			return
		}
		// Whatever decoded must satisfy basic invariants: the count fits
		// the minimum-size bound and every mutation carries its payload.
		if len(muts) > len(payload)/minMutationBytes {
			t.Fatalf("decoded %d mutations from %d bytes", len(muts), len(payload))
		}
		for _, m := range muts {
			if m.key.kind == lock.KindNode && m.node == nil {
				t.Fatalf("node mutation without state (cts %d)", cts)
			}
			if m.key.kind == lock.KindRel && m.rel == nil {
				t.Fatalf("rel mutation without state (cts %d)", cts)
			}
		}
	})
}
