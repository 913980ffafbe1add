package value

import (
	"bytes"
	"fmt"
	"math"
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
// out a key appearing twice — and agrees with want through every read:
// the iterator, Get, Len, ToMap, and the encoding itself.
func checkPacked(t *testing.T, p Packed, want Map) {
	t.Helper()
	n, prev := 0, ""
	for it := p.Iter(); it.Next(); n++ {
		if n > 0 && prev >= it.Key() {
			t.Fatalf("fields %d and %d out of order or duplicated: %q, %q", n-1, n, prev, it.Key())
		}
		prev = it.Key()
		if w, ok := want[it.Key()]; !ok || it.Value() != w {
			t.Fatalf("field %q = %v; want %v, %v", it.Key(), it.Value(), w, ok)
		}
		if it.Encoded() != string(EncodeValue(it.Value())) {
			t.Fatalf("field %q is encoded as %x", it.Key(), it.Encoded())
		}
	}
	if n != len(want) || p.Len() != len(want) {
		t.Fatalf("iterator saw %d fields, Len is %d, want %d", n, p.Len(), len(want))
	}
	if got := p.ToMap(); !got.Equal(want) {
		t.Fatalf("packed holds %v, want %v", got, want)
	}
	for k, v := range want {
		if got, ok := p.Get(k); !ok || got != v {
			t.Fatalf("Get(%q) = %v, %v; want %v", k, got, ok, v)
		}
	}
	if _, ok := p.Get("absent"); ok {
		t.Fatal("Get found a key that was never set")
	}
	enc := AppendMap(nil, want)
	if got := AppendPacked(nil, p); !bytes.Equal(got, enc) {
		t.Fatalf("list encodes as %x, the map as %x", got, enc)
	}
	if heap := len(enc); len(want) == 0 && p.HeapBytes() != 0 || len(want) > 0 && p.HeapBytes() != heap {
		t.Fatalf("HeapBytes = %d, the encoding is %d", p.HeapBytes(), heap)
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
	scratch[0].Val, scratch[1].Val = Int(99), Int(99) // the list owns its fields
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
		got, n, err := DecodePacked(packed)
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

// DecodePacked keeps bytes that are the encoder's own and rewrites the
// rest as the encoder would write them: keys in order, the last of a
// repeated key, no padded count, length or varint — in a list too.
func TestDecodePackedRewritesToEncoderBytes(t *testing.T) {
	for _, c := range []struct {
		what string
		in   []byte
		want Map
	}{
		{"canonical", EncodeMap(Map{"a": Int(1), "b": String("x")}), Map{"a": Int(1), "b": String("x")}},
		{"keys out of order", []byte{2, 1, 'b', 0, 1, 'a', 0}, Map{"a": Null, "b": Null}},
		{"a key twice", []byte{2, 1, 'a', 2, 2, 1, 'a', 2, 4}, Map{"a": Int(2)}},
		{"padded count", []byte{0x81, 0, 1, 'a', 0}, Map{"a": Null}},
		{"padded key length", []byte{1, 0x81, 0, 'a', 0}, Map{"a": Null}},
		{"padded string length", []byte{1, 1, 'a', byte(KindString), 0x81, 0, 'x'}, Map{"a": String("x")}},
		{"padded varint in a list", []byte{1, 1, 'a', byte(KindList), 1, byte(KindInt), 0x82, 0}, Map{"a": List(Int(1))}},
		{"padded empty map", []byte{0x80, 0}, Map{}},
	} {
		p, n, err := DecodePacked(c.in)
		if err != nil || n != len(c.in) {
			t.Fatalf("%s: consumed %d of %d bytes, %v", c.what, n, len(c.in), err)
		}
		checkPacked(t, p, c.want)
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
		for it := patch.Iter(); it.Next(); {
			was, had := base.Get(it.Key())
			now, has := target.Get(it.Key())
			if had && has && was == now {
				t.Fatalf("patch carries %q, which did not change", it.Key())
			}
		}
		encoded := AppendPacked(nil, patch)
		decoded, n, err := DecodePatch(encoded)
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
		t.Fatalf("patch = %x", AppendPacked(nil, patch))
	}
	i := 0
	for it := patch.Iter(); it.Next(); i++ {
		if w := want[i]; it.Key() != w.Key || it.Value() != w.Val {
			t.Errorf("patch field %d = %q %v, want %q %v", i, it.Key(), it.Value(), w.Key, w.Val)
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
	if _, _, err := DecodePacked(encoded); err == nil {
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
// the contents — through the iterator and through Get of every key — and
// whatever DecodePacked returns encodes to bytes it decodes back to the
// same list.
func FuzzDecodePacked(f *testing.F) {
	f.Add(EncodeMap(Map{"name": String("alice"), "age": Int(42)}))
	f.Add(EncodeMap(Map{}))
	f.Add([]byte{2, 1, 'b', 0, 1, 'a', 0})       // keys out of order
	f.Add([]byte{2, 1, 'a', 2, 2, 1, 'a', 2, 4}) // one key twice: the later value wins
	f.Add([]byte{200, 1, 'a', 0})                // count beyond the buffer
	f.Add(AppendPacked(nil, Pack(Map{"l": List(Int(1), String("x"))})))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, mn, merr := DecodeMap(data)
		p, pn, perr := DecodePacked(data)
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
		enc := AppendPacked(nil, p)
		q, qn, err := DecodePacked(enc)
		if err != nil || qn != len(enc) {
			t.Fatalf("the list's own encoding: %d of %d bytes, %v", qn, len(enc), err)
		}
		if !bytes.Equal(AppendPacked(nil, q), enc) {
			t.Fatalf("decoded back to %x from %x", AppendPacked(nil, q), enc)
		}
		checkPacked(t, q, m)
	})
}

// Reading a list — Get of each key, and a walk over its fields — takes
// nothing from the heap, string and list values included: they share the
// list's bytes.
func TestPackedReadsDoNotAllocate(t *testing.T) {
	p := Pack(Map{
		"uid": Int(7), "name": String("person-7"), "balance": Float(1000),
		"tags": List(String("a"), Int(2)), "blob": Bytes([]byte{1, 2, 3}), "ok": Bool(true),
	})
	keys := []string{"uid", "name", "balance", "tags", "blob", "ok"}
	var sink Value
	allocs := testing.AllocsPerRun(200, func() {
		for _, k := range keys {
			sink, _ = p.Get(k)
		}
		for it := p.Iter(); it.Next(); {
			sink = it.Value()
			_ = it.Key()
		}
	})
	if allocs != 0 {
		t.Errorf("reads allocate %v times", allocs)
	}
	if sink != Int(7) {
		t.Errorf("the last field in key order, uid, read %v", sink)
	}
}

// benchPerson is a person of the benchmark's social graph, with a list
// beside its three properties.
var benchPerson = Map{
	"uid": Int(4711), "name": String("person-4711"), "balance": Int(1000),
	"tags": List(String("a"), String("b")),
}

func BenchmarkPackedGet(b *testing.B) {
	p := Pack(benchPerson)
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := p.Get("name"); !ok {
			b.Fatal("no name")
		}
	}
}

func BenchmarkPackedWith(b *testing.B) {
	p := Pack(benchPerson)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		p = p.With("balance", Int(int64(i)))
	}
}

func BenchmarkPackedDiffMerge(b *testing.B) {
	base := Pack(benchPerson)
	next := base.With("balance", Int(999))
	b.ReportAllocs()
	for b.Loop() {
		if base.Merge(next.Diff(base)).Len() != base.Len() {
			b.Fatal("lost a field")
		}
	}
}

func BenchmarkAppendPacked(b *testing.B) {
	p := Pack(benchPerson)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for b.Loop() {
		buf = AppendPacked(buf[:0], p)
	}
}

func BenchmarkDecodePacked(b *testing.B) {
	enc := AppendPacked(nil, Pack(benchPerson))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := DecodePacked(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackedToMap(b *testing.B) {
	p := Pack(benchPerson)
	b.ReportAllocs()
	for b.Loop() {
		if len(p.ToMap()) != len(benchPerson) {
			b.Fatal("lost a field")
		}
	}
}
