package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"neograph/internal/ids"
	"neograph/internal/pagecache"
	"neograph/internal/record"
	"neograph/internal/value"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{CachePages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestTokensRoundTrip(t *testing.T) {
	s := openTestStore(t)
	tk := s.Tokens()
	a, err := tk.Get(TokenLabel, "Person")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := tk.Get(TokenLabel, "Company")
	c, _ := tk.Get(TokenLabel, "Person")
	if a != c || a == b {
		t.Fatalf("token ids: a=%d b=%d c=%d", a, b, c)
	}
	if name, ok := tk.Name(TokenLabel, a); !ok || name != "Person" {
		t.Fatalf("Name = %q, %v", name, ok)
	}
	if _, ok := tk.Name(TokenLabel, 999); ok {
		t.Error("unknown token should not resolve")
	}
	// Namespaces are independent.
	r, _ := tk.Get(TokenRelType, "Person")
	if _, ok := tk.Lookup(TokenPropKey, "Person"); ok {
		t.Error("propkey namespace should not see label")
	}
	if r != 0 {
		t.Errorf("first reltype token = %d, want 0", r)
	}
	if tk.Count(TokenLabel) != 2 {
		t.Errorf("label count = %d, want 2", tk.Count(TokenLabel))
	}
	if got := tk.All(TokenLabel); len(got) != 2 || got[0] != "Person" || got[1] != "Company" {
		t.Errorf("All = %v", got)
	}
}

func TestTokensPersist(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := s.Tokens().Get(TokenPropKey, "name")
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	id2, ok := s2.Tokens().Lookup(TokenPropKey, "name")
	if !ok || id1 != id2 {
		t.Fatalf("token lost across reopen: %d vs %d (%v)", id1, id2, ok)
	}
}

func TestPutGetNode(t *testing.T) {
	s := openTestStore(t)
	id := s.AllocNodeID()
	n := NodeData{
		ID:       id,
		Labels:   []string{"Person", "Admin"},
		Props:    value.Pack(value.Map{"name": value.String("ada"), "age": value.Int(36)}),
		CommitTS: 42,
	}
	if err := s.PutNode(n); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.CommitTS != 42 || got.Tombstone {
		t.Errorf("cts=%d tomb=%v", got.CommitTS, got.Tombstone)
	}
	if len(got.Labels) != 2 || got.Labels[0] != "Person" || got.Labels[1] != "Admin" {
		t.Errorf("labels = %v", got.Labels)
	}
	if !got.Props.ToMap().Equal(n.Props.ToMap()) {
		t.Errorf("props = %v, want %v", got.Props, n.Props)
	}
}

func TestGetNodeMissing(t *testing.T) {
	s := openTestStore(t)
	if _, err := s.GetNode(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	id := s.AllocNodeID()
	if _, err := s.GetNode(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("allocated-but-unwritten: err = %v, want ErrNotFound", err)
	}
}

func TestLargePropertySpills(t *testing.T) {
	s := openTestStore(t)
	big := strings.Repeat("x", 5000)
	id := mustNode(t, s, value.Map{"bio": value.String(big)})
	got, err := s.GetNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Props.Get("bio"); !v.Equal(value.String(big)) {
		t.Fatalf("spilled value corrupted: %v", v)
	}
	// Rewrite with a small value: dyn chain must be freed (ids recycled).
	freeBefore := s.dyn.alloc.FreeCount()
	if err := s.PutNode(NodeData{ID: id, Props: value.Pack(value.Map{"bio": value.String("s")}), CommitTS: 5}); err != nil {
		t.Fatal(err)
	}
	if s.dyn.alloc.FreeCount() <= freeBefore {
		t.Error("dyn chain not freed on rewrite")
	}
}

func TestRemoveNode(t *testing.T) {
	s := openTestStore(t)
	id := mustNode(t, s, value.Map{"k": value.Int(1)})
	mustRel(t, s, "R", id, id) // whether a node may go is the engine's to know, from its adjacency
	if err := s.RemoveNode(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetNode(id); !errors.Is(err, ErrNotFound) {
		t.Fatal("node still present after remove")
	}
	if err := s.RemoveNode(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double remove: %v", err)
	}
	// The ID is the caller's to recycle.
	if got := s.AllocNodeID(); got == id {
		t.Fatalf("AllocNodeID = %d, which nobody released", got)
	}
	s.ReleaseNodeID(id)
	if got := s.AllocNodeID(); got != id {
		t.Fatalf("AllocNodeID = %d, want recycled %d", got, id)
	}
}

func TestGetRelFields(t *testing.T) {
	s := openTestStore(t)
	a := mustNode(t, s, nil)
	b := mustNode(t, s, nil)
	rid := s.AllocRelID()
	in := RelData{
		ID: rid, Type: "WORKS_AT", StartNode: a, EndNode: b,
		Props: value.Pack(value.Map{"since": value.Int(2009)}), CommitTS: 77,
	}
	if err := s.PutRel(in); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetRel(rid)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != "WORKS_AT" || got.StartNode != a || got.EndNode != b || got.CommitTS != 77 {
		t.Fatalf("got %+v", got)
	}
	if !got.Props.ToMap().Equal(in.Props.ToMap()) {
		t.Fatalf("props = %v", got.Props)
	}
}

func TestRelRewrite(t *testing.T) {
	s := openTestStore(t)
	a := mustNode(t, s, nil)
	b := mustNode(t, s, nil)
	rid := s.AllocRelID()
	if err := s.PutRel(RelData{ID: rid, Type: "R", StartNode: a, EndNode: b, Props: value.Pack(value.Map{"w": value.Int(1)}), CommitTS: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutRel(RelData{ID: rid, Type: "R", StartNode: a, EndNode: b, Props: value.Pack(value.Map{"w": value.Int(2)}), CommitTS: 2}); err != nil {
		t.Fatal(err)
	}
	got, _ := s.GetRel(rid)
	if w, _ := got.Props.Get("w"); !w.Equal(value.Int(2)) || got.CommitTS != 2 {
		t.Fatalf("rewrite: %+v", got)
	}
	// Endpoint change is rejected.
	if err := s.PutRel(RelData{ID: rid, Type: "R", StartNode: b, EndNode: a}); err == nil {
		t.Fatal("endpoint change should fail")
	}
}

// A relationship never changes its endpoints, so a newer image with other
// endpoints than the record's is a new owner of a recycled ID, put before
// the previous owner's removal reached the file — whether that record is
// a tombstone or (the collector drops a dead entity from the checkpoint
// queue) still the live image. The new owner replaces the record. An image
// that is not newer is no later owner, and refused: nothing changes.
func TestRelPutOverEarlierOwner(t *testing.T) {
	for _, tombstone := range []bool{false, true} {
		s := openTestStore(t)
		a, b, c := mustNode(t, s, nil), mustNode(t, s, nil), mustNode(t, s, nil)
		other := mustRel(t, s, "R", a, b)
		rid := s.AllocRelID()
		first := RelData{ID: rid, Type: "R", StartNode: a, EndNode: b, Tombstone: tombstone, CommitTS: 5}
		if err := s.PutRel(first); err != nil {
			t.Fatal(err)
		}
		for _, cts := range []uint64{4, 5} {
			if err := s.PutRel(RelData{ID: rid, Type: "S", StartNode: b, EndNode: c, CommitTS: cts}); err == nil {
				t.Fatalf("put with other endpoints at timestamp %d over one of 5 (tombstone=%v) should fail", cts, tombstone)
			}
		}
		if got, err := s.GetRel(rid); err != nil || !reflect.DeepEqual(got, first) {
			t.Fatalf("tombstone=%v: rel after the refused puts = %+v, %v; want %+v", tombstone, got, err, first)
		}
		second := RelData{ID: rid, Type: "S", StartNode: b, EndNode: c, CommitTS: 9}
		if err := s.PutRel(second); err != nil {
			t.Fatalf("put over an earlier owner (tombstone=%v): %v", tombstone, err)
		}
		want := []RelData{{ID: other, Type: "R", StartNode: a, EndNode: b, CommitTS: 1}, second}
		if got := scanRels(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("tombstone=%v: rels = %+v, want %+v", tombstone, got, want)
		}
	}
}

// What a put costs the next flush: the pages its own records lie in. New
// relationships between nodes already flushed write no node page and no
// relationship page but their own — and, having no properties, no
// property page: their commit timestamps are in their records. A removal
// writes one page.
func TestRelPutDirtiesOnlyItsOwnPages(t *testing.T) {
	s, err := Open(t.TempDir(), Options{}) // every page stays cached: a write-back is a flush's
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const nodes, before, added = 2000, 1000, 500
	rng := rand.New(rand.NewSource(1))
	putRels := func(n int) (first, last ids.ID) {
		for i := 0; i < n; i++ {
			last = s.AllocRelID()
			r := RelData{ID: last, Type: "R", StartNode: ids.ID(rng.Intn(nodes)), EndNode: ids.ID(rng.Intn(nodes)), CommitTS: 100 + last}
			if err := s.PutRel(r); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = last
			}
		}
		return first, last
	}
	flushed := func() (nodePages, relPages, propPages uint64) {
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		st := s.CacheStats()
		return st["nodes"].Flushes, st["rels"].Flushes, st["props"].Flushes
	}
	for i := 0; i < nodes; i++ {
		mustNode(t, s, nil)
	}
	victim, _ := putRels(before)
	n0, r0, p0 := flushed()

	first, last := putRels(added)
	perPage := ids.ID(pagecache.PageSize / record.RelSize)
	n1, r1, p1 := flushed()
	if want := uint64(last/perPage - first/perPage + 1); n1 != n0 || r1-r0 != want || p1 != p0 {
		t.Fatalf("flush after %d new relationships wrote %d node pages, %d rel pages and %d property pages, want 0, %d and 0",
			added, n1-n0, r1-r0, p1-p0, want)
	}
	for id := first; id <= last; id++ {
		if r, err := s.GetRel(id); err != nil || r.CommitTS != 100+id || r.Props.Len() != 0 {
			t.Fatalf("rel %d = %+v, %v; want commit timestamp %d and no properties", id, r, err, 100+id)
		}
	}

	if err := s.RemoveRel(victim); err != nil {
		t.Fatal(err)
	}
	if n2, r2, _ := flushed(); n2 != n1 || r2-r1 != 1 {
		t.Fatalf("flush after one removal wrote %d node pages and %d rel pages, want 0 and 1", n2-n1, r2-r1)
	}
}

// A store written in an earlier format has other records — 64-byte
// relationships in format 1, a commit timestamp in a property record in
// format 2 — and read at this build's stride it would yield garbage. Its
// token file says which format it is, and Open refuses it by name,
// touching nothing. The file is written when the store is created, so a
// store of bare nodes, which registers no token, has it too.
func TestOpenRefusesAnotherFormatByName(t *testing.T) {
	for _, format := range []byte{1, 2} {
		dir := t.TempDir()
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if format == 1 {
			mustRel(t, s, "R", mustNode(t, s, nil), mustNode(t, s, nil))
		} else {
			mustNode(t, s, nil)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		tokens := filepath.Join(dir, "neostore.tokens.db")
		header, err := os.ReadFile(tokens)
		if err != nil {
			t.Fatal(err)
		}
		if format == 2 && string(header) != string(tokenMagic[:]) {
			t.Fatalf("token file of a store of one bare node = %q, want the format 3 header %q", header, tokenMagic)
		}
		header[7] = format
		if err := os.WriteFile(tokens, header, 0o644); err != nil {
			t.Fatal(err)
		}
		before := dirBytes(t, dir)
		_, err = Open(dir, Options{})
		if want := fmt.Sprintf("store format %d, this build reads 3", format); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open of a format %d store: %v", format, err)
		}
		if after := dirBytes(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("the refused Open of a format %d store changed the directory", format)
		}
	}
}

// dirBytes reads every file of dir.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

func TestScans(t *testing.T) {
	s := openTestStore(t)
	a := mustNode(t, s, nil)
	b := mustNode(t, s, nil)
	mustRel(t, s, "R", a, b)
	removed := mustNode(t, s, nil)
	if err := s.RemoveNode(removed); err != nil {
		t.Fatal(err)
	}
	var nodes, rels int
	if err := s.ScanNodes(func(NodeData) error { nodes++; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.ScanRels(func(RelData) error { rels++; return nil }); err != nil {
		t.Fatal(err)
	}
	if nodes != 2 || rels != 1 {
		t.Fatalf("scan found %d nodes, %d rels; want 2, 1", nodes, rels)
	}
}

// The record names both endpoints and that is all: a self-loop, and an
// edge whose end node another partition's store keeps, come back from a
// reopened store as they were put, like any other.
func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetIDStride(0, 2)
	a := mustNode(t, s, value.Map{"name": value.String("ada")})
	b := mustNode(t, s, nil)
	foreign := b + 1 // id % 2 == 1: partition 1's
	rels := []RelData{
		{ID: s.AllocRelID(), Type: "KNOWS", StartNode: a, EndNode: b, CommitTS: 2},
		{ID: s.AllocRelID(), Type: "SELF", StartNode: a, EndNode: a, CommitTS: 3},
		{ID: s.AllocRelID(), Type: "PAYS", StartNode: a, EndNode: foreign, Props: value.Pack(value.Map{"amt": value.Int(7)}), CommitTS: 4},
	}
	for _, r := range rels {
		if err := s.PutRel(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.SetIDStride(0, 2)
	got, err := s2.GetNode(a)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Props.Get("name"); !v.Equal(value.String("ada")) {
		t.Fatalf("props lost: %v", got.Props)
	}
	if got := scanRels(t, s2); !reflect.DeepEqual(got, rels) {
		t.Fatalf("rels after reopen = %+v, want %+v", got, rels)
	}
	// Allocators resumed: new IDs don't collide.
	if id := s2.AllocNodeID(); id != b+2 {
		t.Fatalf("resumed AllocNodeID = %d, want %d", id, b+2)
	}
}

func TestFileSizes(t *testing.T) {
	s := openTestStore(t)
	mustNode(t, s, value.Map{"k": value.Int(1)})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	sizes, err := s.FileSizes()
	if err != nil {
		t.Fatal(err)
	}
	if sizes["nodes"] == 0 || sizes["props"] == 0 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestTombstonePersisted(t *testing.T) {
	s := openTestStore(t)
	id := s.AllocNodeID()
	if err := s.PutNode(NodeData{ID: id, CommitTS: 9, Tombstone: true}); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Tombstone || got.CommitTS != 9 {
		t.Fatalf("tombstone round trip: %+v", got)
	}
}

func scanRels(t *testing.T, s *Store) []RelData {
	t.Helper()
	var out []RelData
	if err := s.ScanRels(func(r RelData) error { out = append(out, r); return nil }); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustNode(t *testing.T, s *Store, props value.Map) ids.ID {
	t.Helper()
	id := s.AllocNodeID()
	if err := s.PutNode(NodeData{ID: id, Props: value.Pack(props), CommitTS: 1}); err != nil {
		t.Fatal(err)
	}
	return id
}

func mustRel(t *testing.T, s *Store, typ string, a, b ids.ID) ids.ID {
	t.Helper()
	id := s.AllocRelID()
	if err := s.PutRel(RelData{ID: id, Type: typ, StartNode: a, EndNode: b, CommitTS: 1}); err != nil {
		t.Fatal(err)
	}
	return id
}
