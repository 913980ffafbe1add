package store

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"neograph/internal/ids"
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
	if _, ok := got.Props.Get(CommitTSKeyName); ok {
		t.Error("reserved cts property leaked into props")
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

func TestNodeRewritePreservesRelChain(t *testing.T) {
	s := openTestStore(t)
	a := mustNode(t, s, value.Map{"v": value.Int(1)})
	b := mustNode(t, s, nil)
	rid := s.AllocRelID()
	if err := s.PutRel(RelData{ID: rid, Type: "KNOWS", StartNode: a, EndNode: b, CommitTS: 2}); err != nil {
		t.Fatal(err)
	}
	// Rewrite node a with new props; chain must survive.
	if err := s.PutNode(NodeData{ID: a, Props: value.Pack(value.Map{"v": value.Int(2)}), CommitTS: 3}); err != nil {
		t.Fatal(err)
	}
	rels, err := s.NodeRels(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0] != rid {
		t.Fatalf("rels = %v, want [%d]", rels, rid)
	}
	got, _ := s.GetNode(a)
	if v, _ := got.Props.Get("v"); !v.Equal(value.Int(2)) {
		t.Fatalf("rewrite lost props: %v", got.Props)
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

func TestRemoveNodeWithRelsFails(t *testing.T) {
	s := openTestStore(t)
	a := mustNode(t, s, nil)
	b := mustNode(t, s, nil)
	rid := s.AllocRelID()
	if err := s.PutRel(RelData{ID: rid, Type: "R", StartNode: a, EndNode: b}); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveNode(a); err == nil {
		t.Fatal("remove of node with relationships should fail")
	}
	if err := s.RemoveRel(rid); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveNode(a); err != nil {
		t.Fatal(err)
	}
}

func TestRelChains(t *testing.T) {
	s := openTestStore(t)
	a := mustNode(t, s, nil)
	b := mustNode(t, s, nil)
	c := mustNode(t, s, nil)
	r1 := mustRel(t, s, "R", a, b)
	r2 := mustRel(t, s, "R", a, c)
	r3 := mustRel(t, s, "R", b, a) // incoming to a

	relsA, err := s.NodeRels(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(relsA) != 3 {
		t.Fatalf("node a has %d rels, want 3: %v", len(relsA), relsA)
	}
	// Chain inserts at head: newest first.
	if relsA[0] != r3 || relsA[1] != r2 || relsA[2] != r1 {
		t.Fatalf("chain order = %v, want [%d %d %d]", relsA, r3, r2, r1)
	}
	relsB, _ := s.NodeRels(b)
	if len(relsB) != 2 {
		t.Fatalf("node b has %d rels, want 2", len(relsB))
	}

	// Remove the middle of a's chain and re-walk.
	if err := s.RemoveRel(r2); err != nil {
		t.Fatal(err)
	}
	relsA, _ = s.NodeRels(a)
	if len(relsA) != 2 || relsA[0] != r3 || relsA[1] != r1 {
		t.Fatalf("after unlink: %v", relsA)
	}
	// Remove head.
	if err := s.RemoveRel(r3); err != nil {
		t.Fatal(err)
	}
	relsA, _ = s.NodeRels(a)
	if len(relsA) != 1 || relsA[0] != r1 {
		t.Fatalf("after head unlink: %v", relsA)
	}
}

func TestSelfLoop(t *testing.T) {
	s := openTestStore(t)
	a := mustNode(t, s, nil)
	r := mustRel(t, s, "SELF", a, a)
	rels, err := s.NodeRels(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0] != r {
		t.Fatalf("self loop chain = %v", rels)
	}
	got, err := s.GetRel(r)
	if err != nil {
		t.Fatal(err)
	}
	if got.StartNode != a || got.EndNode != a {
		t.Fatalf("self loop endpoints: %+v", got)
	}
	if err := s.RemoveRel(r); err != nil {
		t.Fatal(err)
	}
	rels, _ = s.NodeRels(a)
	if len(rels) != 0 {
		t.Fatalf("after self-loop removal: %v", rels)
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
	// Chain membership unchanged (still exactly once).
	rels, _ := s.NodeRels(a)
	if len(rels) != 1 {
		t.Fatalf("chain after rewrite: %v", rels)
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
// queue) still the live image. The record leaves the old endpoints' chains
// and joins the new ones. An image that is not newer is no later owner,
// and refused: nothing moves.
func TestRelPutOverEarlierOwner(t *testing.T) {
	for _, tombstone := range []bool{false, true} {
		s := openTestStore(t)
		a, b, c := mustNode(t, s, nil), mustNode(t, s, nil), mustNode(t, s, nil)
		other := mustRel(t, s, "R", a, b)
		rid := s.AllocRelID()
		if err := s.PutRel(RelData{ID: rid, Type: "R", StartNode: a, EndNode: b, Tombstone: tombstone, CommitTS: 5}); err != nil {
			t.Fatal(err)
		}
		for _, cts := range []uint64{4, 5} {
			if err := s.PutRel(RelData{ID: rid, Type: "S", StartNode: b, EndNode: c, CommitTS: cts}); err == nil {
				t.Fatalf("put with other endpoints at timestamp %d over one of 5 (tombstone=%v) should fail", cts, tombstone)
			}
		}
		if got, _ := s.NodeRels(a); !reflect.DeepEqual(got, []uint64{rid, other}) {
			t.Fatalf("tombstone=%v: chain of node %d after the refused puts = %v", tombstone, a, got)
		}
		if err := s.PutRel(RelData{ID: rid, Type: "S", StartNode: b, EndNode: c, CommitTS: 9}); err != nil {
			t.Fatalf("put over an earlier owner (tombstone=%v): %v", tombstone, err)
		}
		for node, want := range map[uint64][]uint64{a: {other}, b: {rid, other}, c: {rid}} {
			if got, err := s.NodeRels(node); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("tombstone=%v: chain of node %d = %v, %v; want %v", tombstone, node, got, err, want)
			}
		}
		if got, _ := s.GetRel(rid); got.Type != "S" || got.StartNode != b || got.EndNode != c || got.CommitTS != 9 {
			t.Fatalf("tombstone=%v: rel = %+v", tombstone, got)
		}
	}
}

// ForgetNodeRels is what lets a dead node's record go when a relationship
// record is still chained to it: the chain is emptied, the other
// endpoints' chains stay whole, and the erased records' IDs stay taken.
func TestForgetNodeRels(t *testing.T) {
	s := openTestStore(t)
	a, b, c := mustNode(t, s, nil), mustNode(t, s, nil), mustNode(t, s, nil)
	ab, ca, loop := mustRel(t, s, "R", a, b), mustRel(t, s, "R", c, a), mustRel(t, s, "R", a, a)
	bc := mustRel(t, s, "R", b, c)
	if err := s.RemoveNode(a); !errors.Is(err, ErrHasRels) {
		t.Fatalf("RemoveNode of a chained node: %v, want ErrHasRels", err)
	}
	if err := s.ForgetNodeRels(a); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveNode(a); err != nil {
		t.Fatalf("RemoveNode after ForgetNodeRels: %v", err)
	}
	for node, want := range map[uint64][]uint64{b: {bc}, c: {bc}} {
		if got, err := s.NodeRels(node); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("chain of node %d = %v, %v; want %v", node, got, err, want)
		}
	}
	for _, rid := range []uint64{ab, ca, loop} {
		if _, err := s.GetRel(rid); !errors.Is(err, ErrNotFound) {
			t.Fatalf("rel %d after ForgetNodeRels: %v", rid, err)
		}
	}
	if id := s.AllocRelID(); id == ab || id == ca || id == loop {
		t.Fatalf("AllocRelID = %d: a forgotten record's ID belongs to its new owner", id)
	}
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

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := mustNode(t, s, value.Map{"name": value.String("ada")})
	b := mustNode(t, s, nil)
	rid := mustRel(t, s, "KNOWS", a, b)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.GetNode(a)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Props.Get("name"); !v.Equal(value.String("ada")) {
		t.Fatalf("props lost: %v", got.Props)
	}
	rels, err := s2.NodeRels(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0] != rid {
		t.Fatalf("rels lost: %v", rels)
	}
	// Allocators resumed: new IDs don't collide.
	if id := s2.AllocNodeID(); id != 2 {
		t.Fatalf("resumed AllocNodeID = %d, want 2", id)
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
