package core

import (
	"errors"
	"reflect"
	"testing"

	"neograph/internal/store"
	"neograph/internal/value"
)

// diskEngine opens a persistent engine in a temp dir (or the given dir).
func diskEngine(t *testing.T, dir string, opts ...func(*Options)) *Engine {
	t.Helper()
	o := Options{Dir: dir, StoreCachePages: 64}
	for _, f := range opts {
		f(&o)
	}
	e, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestCloseReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a := seedNode(t, e, []string{"Person"}, value.Map{"name": value.String("ada")})
	b := seedNode(t, e, nil, nil)
	tx := e.Begin()
	r, err := tx.CreateRel("KNOWS", a, b, value.Map{"since": value.Int(2009)})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := diskEngine(t, dir)
	defer e2.Close()
	tx2 := e2.Begin()
	defer tx2.Abort()
	n, err := tx2.GetNode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n.Labels, []string{"Person"}) {
		t.Fatalf("labels = %v", n.Labels)
	}
	if v, _ := n.Props["name"].AsString(); v != "ada" {
		t.Fatalf("props = %v", n.Props)
	}
	rels, err := tx2.Relationships(a, Outgoing)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || rels[0].ID != r || rels[0].End != b {
		t.Fatalf("rels = %+v", rels)
	}
	// Indexes were rebuilt.
	ids, _ := tx2.NodesByLabel("Person")
	if !reflect.DeepEqual(ids, []uint64{a}) {
		t.Fatalf("label index after reopen = %v", ids)
	}
	// New writes continue from fresh IDs and timestamps.
	c, err := tx2.CreateNode(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c == b {
		t.Fatalf("reused live id %d", c)
	}
}

func TestCrashRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a := seedNode(t, e, []string{"L"}, value.Map{"v": value.Int(1)})
	b := seedNode(t, e, nil, nil)
	tx := e.Begin()
	r, err := tx.CreateRel("R", a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	// No checkpoint: the store files never saw these entities. Crash.
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	e2 := diskEngine(t, dir)
	defer e2.Close()
	tx2 := e2.Begin()
	defer tx2.Abort()
	n, err := tx2.GetNode(a)
	if err != nil {
		t.Fatalf("node lost after crash: %v", err)
	}
	if v, _ := n.Props["v"].AsInt(); v != 1 {
		t.Fatalf("recovered v = %d", v)
	}
	rels, _ := tx2.Relationships(a, Both)
	if len(rels) != 1 || rels[0].ID != r {
		t.Fatalf("recovered rels = %+v", rels)
	}
	if ids, _ := tx2.NodesByLabel("L"); !reflect.DeepEqual(ids, []uint64{a}) {
		t.Fatalf("recovered index = %v", ids)
	}
	// New node IDs must not collide with WAL-recovered ones.
	nid, _ := tx2.CreateNode(nil, nil)
	if nid == a || nid == b {
		t.Fatalf("recovered allocator reused id %d", nid)
	}
}

func TestCrashAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a := seedNode(t, e, nil, value.Map{"v": value.Int(1)})
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// More commits after the checkpoint, in the WAL only.
	tx := e.Begin()
	if err := tx.SetNodeProp(a, "v", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	e2 := diskEngine(t, dir)
	defer e2.Close()
	tx2 := e2.Begin()
	defer tx2.Abort()
	n, err := tx2.GetNode(a)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Props["v"].AsInt(); v != 2 {
		t.Fatalf("v = %d, want 2 (checkpoint image + WAL tail)", v)
	}
}

func TestCheckpointPersistsOnlyLatestVersion(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a := seedNode(t, e, nil, value.Map{"v": value.Int(0)})
	for i := 1; i <= 5; i++ {
		tx := e.Begin()
		if err := tx.SetNodeProp(a, "v", value.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	// 5 updates + 1 create of a, but one dirty entity: exactly one image
	// written (paper §4: only the most recent committed version persists).
	if s.CheckpointPuts != 1 {
		t.Fatalf("checkpoint puts = %d, want 1", s.CheckpointPuts)
	}
	st, err := e.Store().GetNode(a)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := st.Props.ToMap()["v"].AsInt(); v != 5 {
		t.Fatalf("persisted v = %d, want 5", v)
	}
	e.Close()
}

func TestDeletedEntityPersistsAsTombstoneThenDisappears(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a := seedNode(t, e, nil, nil)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	hold := e.Begin() // old reader keeps the tombstone alive
	tx := e.Begin()
	if err := tx.DeleteNode(a); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tombstone image persisted while the old reader lives (§4).
	nd, err := e.Store().GetNode(a)
	if err != nil {
		t.Fatal(err)
	}
	if !nd.Tombstone {
		t.Fatal("expected persisted tombstone")
	}
	hold.Abort()

	e.RunGC() // tombstone collectable now: store record removed
	if _, err := e.Store().GetNode(a); err == nil {
		t.Fatal("store record survived tombstone collection")
	}
	e.Close()
}

func TestWALTruncatedByCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir, func(o *Options) { o.NoSyncCommits = true })
	// Enough commits to roll several WAL segments would need MBs; instead
	// verify the size does not grow without bound across checkpoints.
	for i := 0; i < 50; i++ {
		seedNode(t, e, nil, value.Map{"pad": value.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")})
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Checkpoints != 1 || s.CheckpointPuts != 50 {
		t.Fatalf("stats = %+v", s)
	}
	e.Close()

	// Reopen: nothing to replay (all checkpointed), everything readable.
	e2 := diskEngine(t, dir)
	defer e2.Close()
	tx := e2.Begin()
	defer tx.Abort()
	all, err := tx.AllNodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 50 {
		t.Fatalf("nodes after reopen = %d, want 50", len(all))
	}
}

func TestRecoveryIdempotentReplay(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a := seedNode(t, e, nil, value.Map{"v": value.Int(1)})
	// Checkpoint persists v=1; the WAL still contains the commit record
	// (segment not truncated unless rolled). Replay must skip it.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := tx.SetNodeProp(a, "v", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	e2 := diskEngine(t, dir)
	tx2 := e2.Begin()
	n, _ := tx2.GetNode(a)
	if v, _ := n.Props["v"].AsInt(); v != 2 {
		t.Fatalf("v = %d, want 2", v)
	}
	// The already-checkpointed commit (v=1) was skipped during replay, so
	// the chain holds exactly the persisted base plus the replayed tail —
	// not three versions — and GC collapses it to the head.
	versions, entities := e2.VersionCount()
	if entities != 1 || versions != 2 {
		t.Fatalf("versions=%d entities=%d, want 2/1", versions, entities)
	}
	e2.RunGC()
	if versions, _ = e2.VersionCount(); versions != 1 {
		t.Fatalf("versions after GC = %d, want 1", versions)
	}
	tx2.Abort()
	e2.Close()
}

func TestRecoveredTombstoneGCs(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a := seedNode(t, e, nil, nil)
	tx := e.Begin()
	if err := tx.DeleteNode(a); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := e.Checkpoint(); err != nil { // persists the tombstone image
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	e2 := diskEngine(t, dir)
	defer e2.Close()
	// The recovered tombstone is on the GC list and collectable.
	rep := e2.RunGC()
	if rep.EntitiesDead != 1 {
		t.Fatalf("entities dead = %d, want 1", rep.EntitiesDead)
	}
	if _, err := e2.Store().GetNode(a); err == nil {
		t.Fatal("tombstone record survived")
	}
	tx2 := e2.Begin()
	defer tx2.Abort()
	if _, err := tx2.GetNode(a); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted node visible after recovery")
	}
}

func TestLargePropertyPersistence(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	big := make([]byte, 10000)
	for i := range big {
		big[i] = byte(i)
	}
	a := seedNode(t, e, nil, value.Map{"blob": value.Bytes(big)})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := diskEngine(t, dir)
	defer e2.Close()
	tx := e2.Begin()
	defer tx.Abort()
	n, err := tx.GetNode(a)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := n.Props["blob"].AsBytes()
	if !reflect.DeepEqual(got, big) {
		t.Fatalf("blob corrupted: %d bytes", len(got))
	}
}

// seedRel creates and commits one relationship, returning its ID.
func seedRel(t *testing.T, e *Engine, relType string, start, end uint64) uint64 {
	t.Helper()
	tx := e.Begin()
	id, err := tx.CreateRel(relType, start, end, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	return id
}

func mustDeleteRel(t *testing.T, e *Engine, id uint64) {
	t.Helper()
	tx := e.Begin()
	if err := tx.DeleteRel(id); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
}

// wantRel checks that rel id is visible with the given endpoints.
func wantRel(t *testing.T, e *Engine, id, start, end uint64) {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	r, err := tx.GetRel(id)
	if err != nil {
		t.Fatalf("rel %d: %v", id, err)
	}
	if r.Start != start || r.End != end {
		t.Fatalf("rel %d runs %d->%d, want %d->%d", id, r.Start, r.End, start, end)
	}
}

// An ID freed before the last checkpoint and re-used by an entity that so
// far lives only in the WAL tail is free in the record file; recovery must
// take it out of the rebuilt free list or the next allocation hands it out
// a second time.
func TestRecoveryReservesIDsReusedInWALTail(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a, b := seedNode(t, e, nil, nil), seedNode(t, e, nil, nil)
	old := seedRel(t, e, "R", a, b)
	keep := seedRel(t, e, "R", a, b) // a higher in-use ID keeps old's slot below the high water
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustDeleteRel(t, e, old)
	if rep := e.RunGC(); rep.EntitiesDead != 1 {
		t.Fatalf("entities dead = %d, want 1", rep.EntitiesDead)
	}
	if err := e.Checkpoint(); err != nil { // the freed slot reaches the file
		t.Fatal(err)
	}
	reused := seedRel(t, e, "R", b, a)
	if reused != old {
		t.Fatalf("new rel got id %d, want the recycled %d", reused, old)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	e2 := diskEngine(t, dir)
	defer e2.Close()
	wantRel(t, e2, reused, b, a)
	fresh := seedRel(t, e2, "R", a, a)
	if fresh == reused || fresh == keep {
		t.Fatalf("recovered allocator handed out live rel id %d again", fresh)
	}
	wantRel(t, e2, reused, b, a)
	wantRel(t, e2, keep, a, b)
}

// A relationship is deleted, its tombstone checkpointed and collected, and
// its ID re-used — all before a crash that loses the store's unflushed
// record removal. Recovery then finds the tombstone in the store and the
// ID's new owner in the WAL tail: the new relationship must install over
// the tombstone, and the next checkpoint must replace the dead record
// (other endpoints) with the new one.
func TestRecoveryReplaysIDReusedOverCheckpointedTombstone(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a, b := seedNode(t, e, nil, nil), seedNode(t, e, nil, nil)
	c, d := seedNode(t, e, nil, nil), seedNode(t, e, nil, nil)
	old := seedRel(t, e, "R", a, b)
	keep := seedRel(t, e, "R", a, b)
	mustDeleteRel(t, e, old)
	if err := e.Checkpoint(); err != nil { // tombstone image on disk
		t.Fatal(err)
	}
	if rep := e.RunGC(); rep.EntitiesDead != 1 { // removal stays in the page cache
		t.Fatalf("entities dead = %d, want 1", rep.EntitiesDead)
	}
	reused := seedRel(t, e, "S", c, d)
	if reused != old {
		t.Fatalf("new rel got id %d, want the recycled %d", reused, old)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	e2 := diskEngine(t, dir)
	wantRel(t, e2, reused, c, d)
	tx := e2.Begin()
	if rels, err := tx.Relationships(a, Both); err != nil || len(rels) != 1 || rels[0].ID != keep {
		t.Fatalf("rels of the dead relationship's endpoint = %+v, %v; want only %d", rels, err, keep)
	}
	tx.Abort()
	e2.RunGC()
	wantRel(t, e2, reused, c, d)
	fresh := seedRel(t, e2, "R", a, a)
	if fresh == reused || fresh == keep {
		t.Fatalf("recovered allocator handed out live rel id %d again", fresh)
	}
	if err := e2.Close(); err != nil { // checkpoints the re-used record
		t.Fatal(err)
	}

	e3 := diskEngine(t, dir)
	defer e3.Close()
	wantRel(t, e3, reused, c, d)
	wantRel(t, e3, keep, a, b)
	want := map[uint64][2]uint64{reused: {c, d}, keep: {a, b}, fresh: {a, a}}
	err := e3.Store().ScanRels(func(r store.RelData) error {
		if ends, ok := want[r.ID]; !ok || r.Tombstone || ends != [2]uint64{r.StartNode, r.EndNode} {
			t.Errorf("store holds rel %+v; want %v", r, want)
		}
		delete(want, r.ID)
		return nil
	})
	if err != nil || len(want) != 0 {
		t.Fatalf("scan of the store: %v; not found: %v", err, want)
	}
}

// The newest timestamps may belong to nothing a recovery can read: an
// entity created and deleted last, then reaped — its record gone from the
// store, its commits below the checkpoint's cut. The checkpoint record
// carries the last timestamp issued, and the oracle resumes above it.
func TestOracleResumesAboveReapedTimestamps(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	seedNode(t, e, nil, nil)
	gone := seedNode(t, e, nil, nil)
	tx := e.Begin()
	if err := tx.DeleteNode(gone); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	last := tx.CommitTS()
	for e.RunGC().EntitiesDead == 0 {
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	e2 := diskEngine(t, dir)
	defer e2.Close()
	tx = e2.Begin()
	if _, err := tx.CreateNode(nil, nil); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if tx.CommitTS() <= last {
		t.Fatalf("first commit after recovery has timestamp %d; %d was issued before the crash", tx.CommitTS(), last)
	}
}
