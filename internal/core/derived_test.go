package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"neograph/internal/ids"
	"neograph/internal/index"
	"neograph/internal/value"
)

// The structures derived from the data — the versioned indexes and the
// adjacency lists — must cost memory and collection work in proportion to
// what is live and what changed, never to what once was.

func heapInUse() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIndexMemoryFollowsLiveData rewrites one property of one node
// 150 000 times. Every rewrite stamps a fresh (key, value) pair; once the
// collector has run, exactly one pair is live, the index holds exactly
// that, and the heap is where it started (each dead pair used to stay
// behind as an empty posting: 26 MB).
func TestIndexMemoryFollowsLiveData(t *testing.T) {
	e := memEngine(t)
	id := seedNode(t, e, nil, value.Map{"v": value.Int(-1)})
	materialise(t, e, "v")
	updateN(t, e, id, 1000) // let the engine's own tables reach their working size
	e.RunGC()
	base := heapInUse()

	const rewrites = 150_000
	updateN(t, e, id, rewrites)
	if st := e.IndexStats()["node_prop"]; st.Entries != rewrites+1 || st.PendingRemovals != rewrites {
		t.Fatalf("before GC: %+v, want %d entries of which %d removed", st, rewrites+1, rewrites)
	}
	rep := e.RunGC()
	if rep.IndexPruned != rewrites || rep.IndexScanned != rewrites {
		t.Fatalf("GC pruned %d index entries examining %d, want %d both", rep.IndexPruned, rep.IndexScanned, rewrites)
	}
	if got, want := e.IndexStats()["node_prop"], (index.Stats{Keys: 1, Entries: 1}); got != want {
		t.Fatalf("after GC: %+v, want %+v", got, want)
	}
	if growth := heapInUse() - base; growth > 1<<20 {
		t.Errorf("heap grew %d B over %d rewrites of one property", growth, rewrites)
	}

	// A later pass pays for what changed since the last one, not for the
	// history before it.
	updateN(t, e, id, 100)
	if rep := e.RunGC(); rep.IndexPruned != 100 || rep.IndexScanned != 100 {
		t.Fatalf("GC after 100 more rewrites pruned %d examining %d", rep.IndexPruned, rep.IndexScanned)
	}
}

// TestIndexPruneTouchesOnlyGarbage: over an index of 100 000 keys, a
// collection after k removals examines k entries (plus at most the one
// that stops the walk), the paper's GC cost model applied to the index.
func TestIndexPruneTouchesOnlyGarbage(t *testing.T) {
	e := memEngine(t)
	materialise(t, e, "uid")
	const keys, batch = 100_000, 1000
	nodes := make([]ids.ID, 0, keys)
	for len(nodes) < keys {
		tx := e.Begin()
		for i := 0; i < batch; i++ {
			id, err := tx.CreateNode([]string{"N"}, value.Map{"uid": value.Int(int64(len(nodes)))})
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, id)
		}
		mustCommit(t, tx)
	}
	if rep := e.RunGC(); rep.IndexScanned != 0 {
		t.Fatalf("nothing was removed, yet GC examined %d index entries", rep.IndexScanned)
	}
	fresh := int64(0)
	rewrite := func(n ids.ID) {
		t.Helper()
		fresh--
		tx := e.Begin()
		if err := tx.SetNodeProp(n, "uid", value.Int(fresh)); err != nil {
			t.Fatal(err)
		}
		mustCommit(t, tx)
	}
	for _, k := range []int{1, 50, 700} {
		for i := 0; i < k; i++ {
			rewrite(nodes[i*7])
		}
		reader := e.Begin()
		rewrite(nodes[k*7]) // above the reader's horizon: it stops the walk
		rep := e.RunGC()
		reader.Abort()
		if rep.IndexPruned != k || rep.IndexScanned != k+1 {
			t.Errorf("k=%d: GC pruned %d index entries examining %d of %d, want %d and %d",
				k, rep.IndexPruned, rep.IndexScanned, keys, k, k+1)
		}
		e.RunGC()
	}
	if st := e.IndexStats()["node_prop"]; st.Keys != keys || st.Entries != keys || st.PendingRemovals != 0 {
		t.Fatalf("index holds %+v, want %d live keys", st, keys)
	}
}

func relIDs(rels []RelSnapshot) []ids.ID {
	out := make([]ids.ID, len(rels))
	for i, r := range rels {
		out[i] = r.ID
	}
	return out
}

// TestAdjacencyStaysOrdered: Relationships and Neighbors answer in ID
// order without duplicates — from the adjacency lists' own order, no sort
// — across creation, deletion and collection, recycled (lower) rel IDs,
// staged creations and self-loops.
func TestAdjacencyStaysOrdered(t *testing.T) {
	e := memEngine(t)
	a, b, c := seedNode(t, e, nil, nil), seedNode(t, e, nil, nil), seedNode(t, e, nil, nil)
	ab := seedRel(t, e, "R", a, b)
	ac := seedRel(t, e, "R", a, c)
	aa := seedRel(t, e, "R", a, a)
	ba := seedRel(t, e, "R", b, a)
	ac2 := seedRel(t, e, "R", a, c) // parallel edge

	check := func(tx *Tx, dir Direction, wantRels, wantNeighbors []ids.ID) {
		t.Helper()
		rels, err := tx.Relationships(a, dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := relIDs(rels); !slices.Equal(got, wantRels) {
			t.Errorf("Relationships(%v) = %v, want %v", dir, got, wantRels)
		}
		nb, err := tx.Neighbors(a, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(nb, wantNeighbors) {
			t.Errorf("Neighbors(%v) = %v, want %v", dir, nb, wantNeighbors)
		}
	}
	view := func(dir Direction, wantRels, wantNeighbors []ids.ID) {
		t.Helper()
		tx := e.Begin()
		defer tx.Abort()
		check(tx, dir, wantRels, wantNeighbors)
	}
	view(Both, []ids.ID{ab, ac, aa, ba, ac2}, []ids.ID{a, b, c})
	view(Outgoing, []ids.ID{ab, ac, aa, ac2}, []ids.ID{a, b, c})
	view(Incoming, []ids.ID{aa, ba}, []ids.ID{a, b})

	// Delete the two lowest and collect them: their IDs go back to the
	// allocator and their adjacency entries go.
	mustDeleteRel(t, e, ab)
	mustDeleteRel(t, e, ac)
	if rep := e.RunGC(); rep.EntitiesDead != 2 {
		t.Fatalf("GC reaped %d entities, want 2", rep.EntitiesDead)
	}
	view(Both, []ids.ID{aa, ba, ac2}, []ids.ID{a, b, c})

	// New relationships take the recycled IDs, below every installed one:
	// a staged creation is merged in order, and so is the installed entry.
	tx := e.Begin()
	ca, err := tx.CreateRel("R", c, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	aa2, err := tx.CreateRel("R", a, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ca >= aa || aa2 >= aa {
		t.Fatalf("expected recycled IDs below %d, got %d and %d", aa, ca, aa2)
	}
	lo, hi := min(ca, aa2), max(ca, aa2)
	check(tx, Both, []ids.ID{lo, hi, aa, ba, ac2}, []ids.ID{a, b, c})
	mustCommit(t, tx)
	view(Both, []ids.ID{lo, hi, aa, ba, ac2}, []ids.ID{a, b, c})
	view(Incoming, []ids.ID{lo, hi, aa, ba}, []ids.ID{a, b, c})
	view(Outgoing, []ids.ID{aa2, aa, ac2}, []ids.ID{a, c})

	// The lists themselves: sorted, one entry per relationship, a
	// self-loop carrying both orientations.
	want := map[ids.ID][]adjEntry{}
	for _, r := range []struct {
		id, start, end ids.ID
	}{{ca, c, a}, {aa2, a, a}, {aa, a, a}, {ba, b, a}, {ac2, a, c}} {
		if r.start == r.end {
			want[r.start] = append(want[r.start], newAdjEntry(r.id, adjOut|adjIn))
			continue
		}
		want[r.start] = append(want[r.start], newAdjEntry(r.id, adjOut))
		want[r.end] = append(want[r.end], newAdjEntry(r.id, adjIn))
	}
	got := map[ids.ID][]adjEntry{}
	for i := range e.stripes {
		for n, list := range e.stripes[i].adj {
			got[n] = list
		}
	}
	for _, list := range want {
		slices.Sort(list)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adjacency = %v, want %v", got, want)
	}
}

// TestAdjacencyBudget holds what adjacency costs: 8 B per edge end plus
// the list's growing room, and a map slot per node (a Go map per node
// made it ~34 B per end and ~540 B for a node of degree 16).
func TestAdjacencyBudget(t *testing.T) {
	const nodes, rels = 10_000, 80_000
	r := rand.New(rand.NewSource(1))
	base := heapInUse()
	e := memEngine(t)
	for rel := ids.ID(0); rel < rels; rel++ {
		e.addAdjacency(ids.ID(r.Intn(nodes)), rel, adjOut)
		e.addAdjacency(ids.ID(r.Intn(nodes)), rel, adjIn)
	}
	used := heapInUse() - base
	budget := int64(2*rels*16 + nodes*64)
	t.Logf("%d nodes, %d edge ends: %d B (%.1f B per end all told), budget %d", nodes, 2*rels, used, float64(used)/(2*rels), budget)
	if used > budget {
		t.Errorf("adjacency of %d nodes and %d edge ends holds %d B, budget %d", nodes, 2*rels, used, budget)
	}
	runtime.KeepAlive(e)
}
