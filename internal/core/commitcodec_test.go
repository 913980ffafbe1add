package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/trace"
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
	payload := appendRecord(nil, &record{tag: recCommit, cts: 123, muts: muts})
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
	// mutations — deltas that delete — as the bytes allow.
	minimal := mutation{key: entKey{lock.KindNode, 1}, deleted: true, delta: true}
	honest := appendRecord(nil, &record{tag: recCommit, cts: 1, muts: []mutation{minimal, minimal}})
	if len(honest) != 10+2*minMutationBytes {
		t.Fatalf("two minimal mutations take %d bytes, want %d", len(honest)-10, 2*minMutationBytes)
	}
	if _, muts, err := decodeCommit(honest, nil); err != nil || len(muts) != 2 {
		t.Fatalf("honest minimal record: %d mutations, %v", len(muts), err)
	}
}

// deltaMutations is one delta of every shape: a node whose properties
// changed (one set, one set to an explicit Null, one removed), a node whose
// labels changed too, a node that lost its last label, a relationship
// update, and a deletion of each kind.
func deltaMutations() []mutation {
	old := value.Pack(value.Map{"balance": value.Int(42), "gone": value.Bool(true), "name": value.String("alice")})
	patch := value.Pack(value.Map{"balance": value.Int(41), "name": value.String("alice"), "void": value.Null}).Diff(old)
	return []mutation{
		{key: entKey{lock.KindNode, 7}, delta: true, patch: patch},
		{key: entKey{lock.KindNode, 8}, delta: true, relabel: true, labels: []string{"Account", "Closed"}, patch: patch},
		{key: entKey{lock.KindNode, 9}, delta: true, relabel: true},
		{key: entKey{lock.KindRel, 3}, delta: true, patch: value.Pack(value.Map{"since": value.Int(2017)})},
		{key: entKey{lock.KindNode, 10}, delta: true, deleted: true},
		{key: entKey{lock.KindRel, 4}, delta: true, deleted: true},
	}
}

// TestDeltaCodecRoundTrip: deltas come back from the log as they went in
// — without a state, which install builds — and cost what they say.
func TestDeltaCodecRoundTrip(t *testing.T) {
	muts := deltaMutations()
	payload := appendRecord(nil, &record{tag: recCommit, cts: 5, muts: muts})
	r, err := decodeRecord(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.muts, muts) {
		t.Fatalf("decoded\n %+v\nwant\n %+v", r.muts, muts)
	}
	for _, m := range r.muts {
		if m.node != nil || m.rel != nil {
			t.Errorf("decoded delta of %s carries a state", fmtKey(m.key))
		}
	}
	deletes := appendRecord(nil, &record{tag: recCommit, cts: 5, muts: muts[4:]})
	if want := 10 + 2*minMutationBytes; len(deletes) != want {
		t.Errorf("two deletions take %d bytes, want %d: a deletion logs its key and nothing else", len(deletes), want)
	}
}

// TestDecodeRejectsWhatItDoesNotKnow: an entity kind or a flag bit this
// version never writes means the record carries something it cannot
// apply, and a record that merely parses — but not as the bytes the
// encoder writes — is not a record of this log.
func TestDecodeRejectsWhatItDoesNotKnow(t *testing.T) {
	base := appendRecord(nil, &record{tag: recCommit, cts: 5, muts: deltaMutations()[:1]})
	const kindAt, flagsAt = 10, 19
	corrupt := func(at int, b byte) []byte {
		cp := append([]byte(nil), base...)
		cp[at] = b
		return cp
	}
	cases := map[string][]byte{
		"entity kind 2":               corrupt(kindAt, 2),
		"flag bit 4":                  corrupt(flagsAt, mutDelta|1<<4),
		"flag bit 7":                  corrupt(flagsAt, 1<<7),
		"created delta":               corrupt(flagsAt, mutDelta|mutCreated),
		"created and deleted":         corrupt(flagsAt, mutCreated|mutDeleted),
		"relabel without delta":       corrupt(flagsAt, mutRelabel),
		"relabelling delete":          corrupt(flagsAt, mutDelta|mutDeleted|mutRelabel),
		"relabelled relationship":     append(corrupt(kindAt, 1)[:flagsAt], mutDelta|mutRelabel, 0, 0),
		"bytes after the mutations":   append(append([]byte(nil), base...), 0),
		"decision flag 2":             {recDecision, 1, 0, 0, 0, 0, 0, 0, 0, 2, 9, 0, 0, 0, 0, 0, 0, 0, 0},
		"padded mutation count":       {recCommit, 5, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x00},
		"removal mark in a full list": {recCommit, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 7, 0, 0, 0, 0, 0, 0, 0, mutCreated, 0, 1, 1, 'k', 0xFF},
	}
	for name, payload := range cases {
		if r, err := decodeRecord(payload, nil); err == nil {
			t.Errorf("%s: decoded as %+v", name, r)
		}
	}
	if _, err := decodeRecord(base, nil); err != nil {
		t.Fatalf("the uncorrupted record: %v", err)
	}
}

// sampleRecords is one record of every tag, the 2PC ones in each of their
// shapes: the fuzz corpus, and (compat_test.go) the pinned bytes.
func sampleRecords() map[string]*record {
	return map[string]*record{
		"commit":             {tag: recCommit, cts: 123, muts: sampleMutations()},
		"checkpoint":         {tag: recCheckpoint, lastTS: 99},
		"trace":              {tag: recTrace, trace: trace.Context{TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331"}},
		"prepare":            {tag: recPrepare, gtxn: 0x0102030405060708, coordPart: 3, validate: []ids.ID{11, 12}, muts: sampleMutations()},
		"prepareNoGuards":    {tag: recPrepare, gtxn: 77, muts: sampleMutations()[:1]},
		"decideCommitOwing":  {tag: recDecision, gtxn: 77, commit: true, cts: 456, parts: []uint32{1, 2}},
		"decideCommit":       {tag: recDecision, gtxn: 77, commit: true, cts: 456},
		"decideAbortOwing":   {tag: recDecision, gtxn: 77, parts: []uint32{1, 2}},
		"decideAbort":        {tag: recDecision, gtxn: 77},
		"ackEnd":             {tag: recAckEnd, gtxn: 77},
		"commitTombstoneRel": {tag: recCommit, cts: 999, muts: []mutation{{key: entKey{lock.KindRel, 1 << 40}, deleted: true, rel: &RelState{Type: "X"}}}},
		"commitDeltas":       {tag: recCommit, cts: 124, muts: deltaMutations()},
		"prepareDeltas":      {tag: recPrepare, gtxn: 78, coordPart: 1, validate: []ids.ID{11}, muts: deltaMutations()},
	}
}

// shortPrepare and shortDecision are the two records that used to panic
// the decoder with an index out of range: a count that fits the bytes
// left *including* its own varint, but not the bytes after it.
var (
	shortPrepare  = append(append([]byte{recPrepare}, make([]byte, 12)...), 1, 0, 0, 0, 0, 0, 0, 0) // 21 bytes: 1 guard, 7 bytes left
	shortDecision = append(append([]byte{recDecision}, make([]byte, 17)...), 1, 0, 0, 0)            // 22 bytes: 1 participant, 3 bytes left
)

// TestDecodeShortRecord: a count running past the end of a record that
// arrived from the replication stream is an error, not a panic.
func TestDecodeShortRecord(t *testing.T) {
	for name, payload := range map[string][]byte{"prepare": shortPrepare, "decision": shortDecision} {
		if r, err := decodeRecord(payload, nil); err == nil {
			t.Errorf("%d-byte %s record decoded: %+v", len(payload), name, r)
		}
	}
}

// FuzzDecodeRecord hammers the one decoder with corrupted records of
// every tag: it must reject them or decode them without panicking or
// over-allocating, and whatever it accepts must be exactly what the
// encoder writes for it — a replica re-logs what it decoded, byte for
// byte. Runs its seed corpus as a normal test; use
// `go test -fuzz FuzzDecodeRecord ./internal/core` to explore.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{recCommit})
	f.Add([]byte{})
	f.Add([]byte{'?', 1, 2, 3})
	f.Add(shortPrepare)
	f.Add(shortDecision)
	for _, r := range sampleRecords() {
		base := appendRecord(nil, r)
		f.Add(base)
		// Seed systematic single-byte corruptions of each valid record.
		for i := 0; i < len(base); i += 3 {
			cp := append([]byte(nil), base...)
			cp[i] ^= 0xFF
			f.Add(cp)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecord(payload, nil)
		if err != nil {
			return
		}
		// Whatever decoded must satisfy basic invariants: every count fits
		// its minimum-size bound and every mutation carries its payload.
		if len(r.muts) > len(payload)/minMutationBytes || len(r.validate) > len(payload)/8 || len(r.parts) > len(payload)/4 {
			t.Fatalf("decoded %d mutations, %d guards, %d participants from %d bytes",
				len(r.muts), len(r.validate), len(r.parts), len(payload))
		}
		for _, m := range r.muts {
			// A whole state, of its kind, for what is not a delta; none for what is.
			if (m.node != nil) != (!m.delta && m.key.kind == lock.KindNode) || (m.rel != nil) != (!m.delta && m.key.kind == lock.KindRel) {
				t.Fatalf("%s mutation (delta=%v) decoded with node=%v rel=%v (tag %q)", fmtKey(m.key), m.delta, m.node, m.rel, r.tag)
			}
		}
		encoded := appendRecord(nil, &r)
		if !bytes.Equal(encoded, payload) {
			t.Fatalf("accepted %q record re-encodes differently:\n got %x\nwant %x", r.tag, encoded, payload)
		}
		again, err := decodeRecord(encoded, nil)
		if err != nil {
			t.Fatalf("re-encoded %q record does not decode: %v", r.tag, err)
		}
		if !reflect.DeepEqual(r, again) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, r)
		}
	})
}
