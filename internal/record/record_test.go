package record

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"neograph/internal/ids"
)

func TestNodeRoundTrip(t *testing.T) {
	cases := []NodeRecord{
		{},
		{InUse: true, FirstProp: 9, LabelRef: 11, CommitTS: 42},
		{InUse: true, Tombstone: true, FirstProp: ids.NoID, LabelRef: ids.NoID, CommitTS: ^uint64(0)},
	}
	for _, n := range cases {
		var buf [NodeSize]byte
		EncodeNode(buf[:], &n)
		got, err := DecodeNode(buf[:])
		if err != nil {
			t.Fatal(err)
		}
		if got != n {
			t.Errorf("round trip: got %+v, want %+v", got, n)
		}
	}
}

func TestRelRoundTrip(t *testing.T) {
	r := RelRecord{
		InUse: true, Type: 42,
		StartNode: 1, EndNode: 2,
		FirstProp: 99, CommitTS: 7,
	}
	var buf [RelSize]byte
	EncodeRel(buf[:], &r)
	got, err := DecodeRel(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip: got %+v, want %+v", got, r)
	}
}

func TestPropRoundTripInline(t *testing.T) {
	p := PropRecord{InUse: true, Key: 3, Next: 17, SpillRef: ids.NoID, Inline: []byte("short value")}
	var buf [PropSize]byte
	EncodeProp(buf[:], &p)
	got, err := DecodeProp(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != 3 || got.Next != 17 || !bytes.Equal(got.Inline, p.Inline) || got.Spilled {
		t.Errorf("round trip: got %+v", got)
	}
}

func TestPropRoundTripSpilled(t *testing.T) {
	p := PropRecord{InUse: true, Key: 8, Next: ids.NoID, Spilled: true, SpillRef: 1234}
	var buf [PropSize]byte
	EncodeProp(buf[:], &p)
	got, err := DecodeProp(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	if !got.Spilled || got.SpillRef != 1234 || len(got.Inline) != 0 {
		t.Errorf("round trip: got %+v", got)
	}
}

func TestPropInlineTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	p := PropRecord{Inline: make([]byte, PropInlineMax+1)}
	var buf [PropSize]byte
	EncodeProp(buf[:], &p)
}

func TestDynRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, DynPayload} {
		d := DynRecord{InUse: true, Next: 5, Payload: bytes.Repeat([]byte{0xAB}, n)}
		var buf [DynSize]byte
		EncodeDyn(buf[:], &d)
		got, err := DecodeDyn(buf[:])
		if err != nil {
			t.Fatal(err)
		}
		if got.InUse != d.InUse || got.Next != d.Next || !bytes.Equal(got.Payload, d.Payload) {
			t.Errorf("payload %d: got %+v", n, got)
		}
	}
}

func TestDynTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d := DynRecord{Payload: make([]byte, DynPayload+1)}
	var buf [DynSize]byte
	EncodeDyn(buf[:], &d)
}

func TestShortBuffersError(t *testing.T) {
	short := make([]byte, 4)
	if _, err := DecodeNode(short); err == nil {
		t.Error("DecodeNode should fail on short buffer")
	}
	if _, err := DecodeRel(short); err == nil {
		t.Error("DecodeRel should fail on short buffer")
	}
	if _, err := DecodeProp(short); err == nil {
		t.Error("DecodeProp should fail on short buffer")
	}
	if _, err := DecodeDyn(short); err == nil {
		t.Error("DecodeDyn should fail on short buffer")
	}
}

func TestCorruptLengths(t *testing.T) {
	var pbuf [PropSize]byte
	pbuf[0] = FlagInUse
	pbuf[propHeader] = PropInlineMax + 1
	if _, err := DecodeProp(pbuf[:]); err == nil {
		t.Error("oversized inline length should fail")
	}
	var dbuf [DynSize]byte
	dbuf[0] = FlagInUse
	dbuf[1] = 0xFF
	dbuf[2] = 0xFF
	dbuf[3] = 0xFF
	if _, err := DecodeDyn(dbuf[:]); err == nil {
		t.Error("oversized dyn length should fail")
	}
}

func TestRecordsFitPages(t *testing.T) {
	// A page holds a whole number of records and none straddles two: the
	// store puts record id at offset id%perPage*size of page id/perPage,
	// perPage = page/size, and leaves the slack at the page's end. What
	// each file gets out of a page is pinned here.
	const page = 8192
	for name, want := range map[string]struct{ size, perPage, slack int }{
		"node": {NodeSize, 256, 0}, "rel": {RelSize, 204, 32}, "prop": {PropSize, 128, 0}, "dyn": {DynSize, 64, 0},
	} {
		if n := page / want.size; n != want.perPage || page-n*want.size != want.slack {
			t.Errorf("%s records of %d bytes: %d a page and %d bytes of slack, want %d and %d",
				name, want.size, n, page-n*want.size, want.perPage, want.slack)
		}
	}
}

func TestQuickRelRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		r := RelRecord{
			InUse:     rr.Intn(2) == 0,
			Tombstone: rr.Intn(2) == 0,
			Type:      rr.Uint32(),
			StartNode: rr.Uint64(), EndNode: rr.Uint64(),
			FirstProp: rr.Uint64(),
			CommitTS:  rr.Uint64(),
		}
		var buf [RelSize]byte
		EncodeRel(buf[:], &r)
		got, err := DecodeRel(buf[:])
		return err == nil && got == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
