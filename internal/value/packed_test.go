package value

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomMap builds a map of up to max entries over a small key alphabet
// (so that With sequences hit existing keys as often as new ones). Values
// include Null: Pack keeps what the map holds.
func randomMap(r *rand.Rand, max int) Map {
	m := make(Map)
	for i, n := 0, r.Intn(max+1); i < n; i++ {
		m[randomKey(r)] = randomValue(r, 2)
	}
	return m
}

func randomKey(r *rand.Rand) string { return fmt.Sprintf("k%02d", r.Intn(24)) }

// checkPacked fails unless p is strictly sorted by key — which also rules
// out a key appearing twice — and agrees with want.
func checkPacked(t *testing.T, p Packed, want Map) {
	t.Helper()
	for i := 1; i < p.Len(); i++ {
		if p.At(i-1).Key >= p.At(i).Key {
			t.Fatalf("fields %d and %d out of order or duplicated: %q, %q", i-1, i, p.At(i-1).Key, p.At(i).Key)
		}
	}
	if got := p.ToMap(); !got.Equal(want) {
		t.Fatalf("packed holds %v, want %v", got, want)
	}
	for k, v := range want {
		if got, ok := p.Get(k); !ok || !got.Equal(v) {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, got, ok, v)
		}
	}
	if _, ok := p.Get("absent"); ok {
		t.Fatal("Get found a key that was never set")
	}
	if p.Size() != want.Size() {
		t.Fatalf("Size = %d, the map's is %d", p.Size(), want.Size())
	}
}

func TestPackRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMap(rand.New(rand.NewSource(seed)), 20) // both sides of linearScanMax
		checkPacked(t, Pack(m), m)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	checkPacked(t, Pack(nil), Map{})
	checkPacked(t, Packed{}, Map{})
}

// Any sequence of sets and removals leaves the list sorted, duplicate-free
// and equal to the same sequence applied to a map; no step changes the
// list it started from.
func TestWithSequenceMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		model := randomMap(r, 12)
		p := Pack(model)
		for step := 0; step < 60; step++ {
			before, beforeModel := p, model.Clone()
			key := randomKey(r)
			v := randomValue(r, 1)
			if r.Intn(3) == 0 {
				v = Null
			}
			p = p.With(key, v)
			if v.IsNull() {
				delete(model, key)
			} else {
				model[key] = v
			}
			checkPacked(t, p, model)
			checkPacked(t, before, beforeModel)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPackFieldsLastDuplicateWins(t *testing.T) {
	scratch := []Field{{"b", Int(1)}, {"a", Int(2)}, {"b", Int(3)}}
	p := PackFields(scratch)
	checkPacked(t, p, Map{"a": Int(2), "b": Int(3)})
	scratch[0].Val = Int(99) // the list owns its fields
	checkPacked(t, p, Map{"a": Int(2), "b": Int(3)})
}

// The packed encoder must write exactly the bytes AppendMap writes for the
// same properties: WAL records and replication frames are these bytes.
func TestAppendPackedMatchesAppendMap(t *testing.T) {
	f := func(seed int64) bool {
		m := randomMap(rand.New(rand.NewSource(seed)), 20)
		p := Pack(m)
		packed := AppendPacked(nil, p)
		if !bytes.Equal(packed, AppendMap(nil, p.ToMap())) {
			return false
		}
		got, n, err := DecodePacked(packed, nil)
		if err != nil || n != len(packed) {
			return false
		}
		checkPacked(t, got, m)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodePackedInternsKeys(t *testing.T) {
	enc := EncodeMap(Map{"name": String("ada"), "age": Int(36)})
	var seen []string
	p, _, err := DecodePacked(enc, func(b []byte) string {
		seen = append(seen, string(b))
		return "interned-" + string(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPacked(t, p, Map{"interned-name": String("ada"), "interned-age": Int(36)})
	if len(seen) != 2 {
		t.Fatalf("intern saw %v, want both keys once", seen)
	}
}

// FuzzDecodePacked feeds arbitrary bytes to both map decoders: they must
// accept and reject the same inputs, consume the same bytes and agree on
// the contents, and whatever DecodePacked returns is well formed.
func FuzzDecodePacked(f *testing.F) {
	f.Add(EncodeMap(Map{"name": String("alice"), "age": Int(42)}))
	f.Add(EncodeMap(Map{}))
	f.Add([]byte{2, 1, 'b', 0, 1, 'a', 0})       // keys out of order
	f.Add([]byte{2, 1, 'a', 2, 2, 1, 'a', 2, 4}) // one key twice: the later value wins
	f.Add([]byte{200, 1, 'a', 0})                // count beyond the buffer
	f.Add(AppendPacked(nil, Pack(Map{"l": List(Int(1), String("x"))})))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, mn, merr := DecodeMap(data)
		p, pn, perr := DecodePacked(data, nil)
		if (merr == nil) != (perr == nil) {
			t.Fatalf("DecodeMap err %v, DecodePacked err %v", merr, perr)
		}
		if perr != nil {
			return
		}
		if mn != pn {
			t.Fatalf("DecodeMap consumed %d bytes, DecodePacked %d", mn, pn)
		}
		checkPacked(t, p, m)
	})
}
