package value

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
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
	heap := len(want) * int(unsafe.Sizeof(Field{}))
	for _, v := range want {
		_, payload := v.Payload()
		heap += len(payload)
	}
	if p.HeapBytes() != heap {
		t.Fatalf("HeapBytes = %d, the field array and the payloads are %d", p.HeapBytes(), heap)
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

// A patch turns its base into its target — whatever the two share — and
// survives the codec; the merged list is a list like any other: sorted,
// exactly sized, and the base is untouched.
func TestDiffMergeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		baseMap, targetMap := randomMap(r, 14), randomMap(r, 14)
		for k, v := range baseMap { // about half of what they share is unchanged
			if r.Intn(2) == 0 {
				targetMap[k] = v
			}
		}
		base, target := Pack(baseMap), Pack(targetMap)
		patch := target.Diff(base)
		for i := 0; i < patch.Len(); i++ {
			f := patch.At(i)
			was, had := base.Get(f.Key)
			now, has := target.Get(f.Key)
			if had && has && was == now {
				t.Fatalf("patch carries %q, which did not change", f.Key)
			}
		}
		encoded := AppendPacked(nil, patch)
		decoded, n, err := DecodePatch(encoded, nil)
		if err != nil || n != len(encoded) {
			t.Fatalf("DecodePatch: %d of %d bytes, %v", n, len(encoded), err)
		}
		if !bytes.Equal(AppendPacked(nil, decoded), encoded) {
			t.Fatal("decoded patch encodes differently")
		}
		merged := base.Merge(decoded)
		checkPacked(t, merged, targetMap)
		checkPacked(t, base, baseMap)
		if !bytes.Equal(AppendPacked(nil, merged), AppendPacked(nil, target)) {
			t.Fatalf("merged %v, target %v", merged.ToMap(), targetMap)
		}
		if cap(merged.fields) != len(merged.fields) {
			t.Fatalf("merged list has room for %d fields and holds %d", cap(merged.fields), len(merged.fields))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A patch tells apart what Equal does not, and "removed" from "set to
// Null"; only the patch decoder reads its removal marks.
func TestDiffIsExact(t *testing.T) {
	negZero, nan2 := Float(math.Copysign(0, -1)), Float(math.Float64frombits(0x7ff8000000000002))
	base := Pack(Map{"zero": Float(0), "nan": Float(math.NaN()), "gone": Int(1), "null": Null, "same": String("s")})
	target := Pack(Map{"zero": negZero, "nan": nan2, "null": Null, "nulled": Null, "same": String("s")})
	patch := target.Diff(base)
	want := []Field{{"gone", removed}, {"nan", nan2}, {"nulled", Null}, {"zero", negZero}}
	if patch.Len() != len(want) {
		t.Fatalf("patch = %v", patch.fields)
	}
	for i, w := range want {
		if got := patch.At(i); got.Key != w.Key || got.Val != w.Val {
			t.Errorf("patch field %d = %q %v, want %q %v", i, got.Key, got.Val, w.Key, w.Val)
		}
	}
	merged := base.Merge(patch)
	if v, ok := merged.Get("nulled"); !ok || !v.IsNull() {
		t.Errorf("a key set to Null: %v, %v", v, ok)
	}
	if _, ok := merged.Get("gone"); ok {
		t.Error("a removed key survived the merge")
	}
	if v, _ := merged.Get("zero"); v != negZero {
		t.Errorf("zero = %v, want -0", v)
	}
	// Removing what is not there, and an empty patch, change nothing.
	if got := Pack(Map{"a": Int(1)}).Merge(patch); got.Len() != 4 {
		t.Errorf("merge over a list without the removed key = %v", got.ToMap())
	}
	if got := base.Merge(Packed{}); got.Len() != base.Len() {
		t.Errorf("empty patch changed the list: %v", got.ToMap())
	}

	encoded := AppendPacked(nil, patch)
	if _, _, err := DecodePacked(encoded, nil); err == nil {
		t.Error("DecodePacked read a removal mark: a property list has none")
	}
	if _, _, err := DecodeValue([]byte{byte(kindRemoved)}); err == nil {
		t.Error("DecodeValue read a removal mark")
	}
	if _, err := ParseValue([]byte{byte(kindRemoved)}); err == nil {
		t.Error("ParseValue read a removal mark")
	}
	if _, err := ParseMap(encoded); err == nil {
		t.Error("ParseMap read a patch")
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
