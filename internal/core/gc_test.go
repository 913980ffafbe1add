package core

import (
	"errors"
	"sync/atomic"
	"testing"

	"neograph/internal/value"
)

// updateN commits n single-property updates on node id.
func updateN(t *testing.T, e *Engine, id uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		tx := e.Begin()
		if err := tx.SetNodeProp(id, "v", value.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
}

func TestThreadedGCReclaimsSuperseded(t *testing.T) {
	e := memEngine(t)
	id := seedNode(t, e, nil, value.Map{"v": value.Int(0)})
	updateN(t, e, id, 10)

	versions, _ := e.VersionCount()
	if versions != 11 {
		t.Fatalf("versions before GC = %d, want 11", versions)
	}
	if e.GCBacklog() != 10 {
		t.Fatalf("backlog = %d, want 10", e.GCBacklog())
	}
	rep := e.RunGC()
	if rep.Collected != 10 {
		t.Fatalf("collected = %d, want 10", rep.Collected)
	}
	if rep.Scanned > rep.Collected+1 {
		t.Fatalf("threaded GC scanned %d > collected+1", rep.Scanned)
	}
	versions, _ = e.VersionCount()
	if versions != 1 {
		t.Fatalf("versions after GC = %d, want 1 (head)", versions)
	}
	// Head still readable.
	tx := e.Begin()
	defer tx.Abort()
	n, err := tx.GetNode(id)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := n.Props["v"].AsInt(); v != 9 {
		t.Fatalf("head v = %d, want 9", v)
	}
}

func TestGCRespectsActiveReaderHorizon(t *testing.T) {
	e := memEngine(t)
	id := seedNode(t, e, nil, value.Map{"v": value.Int(0)})

	oldReader := e.Begin() // pins the horizon at its snapshot
	before, err := oldReader.GetNode(id)
	if err != nil {
		t.Fatal(err)
	}
	updateN(t, e, id, 5)

	rep := e.RunGC()
	// The version oldReader reads (and everything at/above its snapshot)
	// must survive; only versions superseded at or below the horizon go.
	after, err := oldReader.GetNode(id)
	if err != nil {
		t.Fatalf("GC collected a version visible to an active reader: %v", err)
	}
	v0, _ := before.Props["v"].AsInt()
	v1, _ := after.Props["v"].AsInt()
	if v0 != v1 {
		t.Fatalf("reader's view changed across GC: %d -> %d", v0, v1)
	}
	_ = rep
	oldReader.Abort()

	// With the reader gone, a second run reclaims the rest.
	rep = e.RunGC()
	versions, _ := e.VersionCount()
	if versions != 1 {
		t.Fatalf("versions after reader exit = %d (collected %d)", versions, rep.Collected)
	}
}

func TestGCTombstoneRemovesEntity(t *testing.T) {
	e := memEngine(t)
	a := seedNode(t, e, []string{"L"}, value.Map{"k": value.Int(1)})
	b := seedNode(t, e, nil, nil)
	tx := e.Begin()
	r, err := tx.CreateRel("R", a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	tx2 := e.Begin()
	if err := tx2.DetachDeleteNode(a); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx2)

	rep := e.RunGC()
	if rep.EntitiesDead != 2 { // node a + rel r
		t.Fatalf("entities dead = %d, want 2", rep.EntitiesDead)
	}
	_, entities := e.VersionCount()
	if entities != 1 { // only node b remains
		t.Fatalf("entities = %d, want 1", entities)
	}
	// Cache maps and adjacency are clean.
	tx3 := e.Begin()
	defer tx3.Abort()
	if _, err := tx3.GetNode(a); !errors.Is(err, ErrNotFound) {
		t.Fatal("dead node resurrected")
	}
	if _, err := tx3.GetRel(r); !errors.Is(err, ErrNotFound) {
		t.Fatal("dead rel resurrected")
	}
	if rels, _ := tx3.Relationships(b, Both); len(rels) != 0 {
		t.Fatalf("adjacency leak: %v", rels)
	}
	// Index entries for the dead node are prunable.
	if ids, _ := tx3.NodesByLabel("L"); len(ids) != 0 {
		t.Fatalf("label index leak: %v", ids)
	}
}

func TestVacuumGCEquivalentResult(t *testing.T) {
	e := memEngine(t, func(o *Options) { o.GCMode = GCVacuum })
	id := seedNode(t, e, nil, value.Map{"v": value.Int(0)})
	updateN(t, e, id, 10)
	del := seedNode(t, e, nil, nil)
	tx := e.Begin()
	if err := tx.DeleteNode(del); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	rep := e.RunGC()
	if rep.Mode != GCVacuum {
		t.Fatal("wrong mode")
	}
	if rep.Collected != 12 { // 10 superseded + deleted node's create version + its tombstone
		t.Fatalf("vacuum collected = %d, want 12", rep.Collected)
	}
	// Vacuum's cost signature: scanned spans the whole cache, not just
	// the garbage (this is E4's claim).
	if rep.Scanned < rep.Collected {
		t.Fatalf("scanned = %d < collected", rep.Scanned)
	}
	versions, entities := e.VersionCount()
	if versions != 1 || entities != 1 {
		t.Fatalf("after vacuum: %d versions, %d entities", versions, entities)
	}
}

func TestGCIdempotentWhenClean(t *testing.T) {
	e := memEngine(t)
	seedNode(t, e, nil, nil)
	e.RunGC()
	rep := e.RunGC()
	if rep.Collected != 0 || rep.EntitiesDead != 0 {
		t.Fatalf("second GC reclaimed %+v", rep)
	}
}

func TestGCIndexPrune(t *testing.T) {
	e := memEngine(t)
	id := seedNode(t, e, []string{"L"}, value.Map{"p": value.Int(1)})
	materialise(t, e, "p")
	tx := e.Begin()
	if err := tx.RemoveLabel(id, "L"); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetNodeProp(id, "p", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)

	rep := e.RunGC()
	if rep.IndexPruned < 2 { // dead label entry + dead property entry
		t.Fatalf("index pruned = %d, want >= 2", rep.IndexPruned)
	}
}

func TestGCBacklogDrainsIncrementally(t *testing.T) {
	e := memEngine(t)
	id := seedNode(t, e, nil, value.Map{"v": value.Int(0)})

	reader := e.Begin() // pin
	updateN(t, e, id, 5)
	firstRep := e.RunGC()
	backlogWithReader := e.GCBacklog()
	reader.Abort()
	updateN(t, e, id, 3)
	secondRep := e.RunGC()

	if firstRep.Collected+secondRep.Collected != 8 {
		t.Fatalf("total collected = %d, want 8 (got %d then %d; backlog with reader %d)",
			firstRep.Collected+secondRep.Collected, firstRep.Collected, secondRep.Collected, backlogWithReader)
	}
	if e.GCBacklog() != 0 {
		t.Fatalf("backlog = %d after final GC", e.GCBacklog())
	}
}

func TestVersionBytesShrinkWithGC(t *testing.T) {
	e := memEngine(t)
	id := seedNode(t, e, nil, value.Map{"v": value.String("payload-payload-payload")})
	updateN(t, e, id, 20)
	before := e.VersionBytes()
	e.RunGC()
	after := e.VersionBytes()
	if after >= before {
		t.Fatalf("version bytes %d -> %d, want shrink", before, after)
	}
}

// TestSnapshotRegisteredBeforeItIsRead: a Begin stalled between its two
// steps — joining the active table and reading the watermark — while an
// update commits and a collection runs must still read a version: the one
// its snapshot timestamp selects. (Read first and registered second, the
// collector found no reader at the old watermark, unlinked the version that
// snapshot selects, and the read found nothing.)
func TestSnapshotRegisteredBeforeItIsRead(t *testing.T) {
	e := memEngine(t)
	id := seedNode(t, e, nil, value.Map{"v": value.Int(1)})

	reached, resume := make(chan struct{}), make(chan struct{})
	var stalled atomic.Bool
	e.beginGap = func() {
		if stalled.CompareAndSwap(false, true) { // only the first Begin, not the updater's
			close(reached)
			<-resume
		}
	}
	began := make(chan *Tx)
	go func() { began <- e.Begin() }()
	<-reached

	upd := e.Begin()
	if err := upd.SetNodeProp(id, "v", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, upd)
	rep := e.RunGC()
	close(resume)
	tx := <-began
	defer tx.Abort()

	n, err := tx.GetNode(id)
	if err != nil {
		t.Fatalf("snapshot %d (update at %d, collection at horizon %d took %d versions): %v",
			tx.StartTS(), upd.CommitTS(), rep.Horizon, rep.Collected, err)
	}
	want := int64(1)
	if tx.StartTS() >= upd.CommitTS() {
		want = 2
	}
	if v, _ := n.Props["v"].AsInt(); v != want {
		t.Fatalf("snapshot %d reads v=%d, want %d (update at %d)", tx.StartTS(), v, want, upd.CommitTS())
	}
	if rep.Horizon > tx.StartTS() {
		t.Errorf("the collector's horizon %d passed the stalled snapshot %d", rep.Horizon, tx.StartTS())
	}
}
