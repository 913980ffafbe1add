package core

import (
	"testing"
	"unsafe"

	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/value"
)

// sizeClass rounds n up to what Go's allocator hands out for it (the
// small size classes of runtime/sizeclasses.go).
func sizeClass(n uintptr) uintptr {
	for _, c := range [...]uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256} {
		if n <= c {
			return c
		}
	}
	return n
}

// TestResidentLayout pins what a resident entity with one version costs:
// three allocations — the object, the version with its state, the
// property list's encoding — of these sizes. Every entity of every graph
// pays each byte added here; a field that grows a struct past its size
// class fails with the cost named.
func TestResidentLayout(t *testing.T) {
	object1 := sizeClass(unsafe.Sizeof(object{}))
	rel := sizeClass(unsafe.Sizeof(RelState{}))
	encoded := func(m value.Map) uintptr { return sizeClass(uintptr(value.Pack(m).HeapBytes())) }
	weight := encoded(value.Map{"weight": value.Float(0.5)})
	for _, c := range []struct {
		what         string
		size, budget uintptr
	}{
		{"an object (key, chain head, chain mutex)", object1, 32},
		{"a version header", sizeClass(unsafe.Sizeof(mvcc.Version{})), 48},
		{"a node version with its state", sizeClass(unsafe.Sizeof(NodeState{})), 80},
		{"a relationship version with its state", rel, 96},
		{"a relationship's one float property, encoded", weight, 24},
		{"a person's three properties, encoded", encoded(value.Map{
			"uid": value.Int(11999), "name": value.String("person-11999"), "balance": value.Int(1000),
		}), 48},
		{"a relationship with one property", object1 + rel + weight, 152},
	} {
		if c.size > c.budget {
			t.Errorf("%s takes %d B of heap, budget %d: %d B more on every resident entity",
				c.what, c.size, c.budget, c.size-c.budget)
		}
	}

	// The same through the engine: installing a created relationship
	// allocates the version (the mutation's state is the version), its
	// property list and the object — not a header, a state and links apiece. What
	// the maps and the endpoints' adjacency lists grow by is amortised well
	// below one allocation a relationship and rounds away.
	e := memEngine(t)
	a := seedNode(t, e, nil, nil)
	b := seedNode(t, e, nil, nil)
	fields := []value.Field{{Key: "since", Val: value.Int(2016)}}
	id, cts := uint64(0), e.Watermark()
	allocs := testing.AllocsPerRun(2000, func() {
		id, cts = id+1, cts+1
		m := mutation{
			key:     entKey{lock.KindRel, id},
			created: true,
			rel:     &RelState{Type: "KNOWS", Start: a, End: b, Props: value.PackFields(fields)},
		}
		if !e.install(&m, cts) {
			t.Fatal("not installed")
		}
	})
	if allocs != 3 {
		t.Errorf("a relationship with one property and one version is %v allocations, want 3", allocs)
	}
	if versions, entities := e.VersionCount(); versions != entities || e.GCBacklog() != 0 {
		t.Errorf("%d versions of %d entities, %d on the GC list: a single version is threaded once", versions, entities, e.GCBacklog())
	}
}
