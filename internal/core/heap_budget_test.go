package core_test

import (
	"runtime"
	"testing"

	"neograph"
	"neograph/internal/workload"
)

// heapBudgetPerEntity is what one resident entity of the social graph
// (12 % nodes with three properties and a label, 88 % relationships with
// one property, each with its single version, adjacency and index
// entries) may cost in live heap: 15 % above the 797 B it measures on
// the 2 000-person graph (913 B with a heap-allocated posting per index
// key and a Go map per node's adjacency; 1 610 B with a Go map per
// version as well). The store's page cache is part of the figure.
const heapBudgetPerEntity = 915 // bytes

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentHeapBudget holds the engine's bytes per resident entity
// under a budget, once loaded through the commit path and once recovered
// from the store: recovery must build the same layout a load leaves.
func TestResidentHeapBudget(t *testing.T) {
	dir := t.TempDir()
	opts := neograph.Options{Dir: dir, DisableSyncCommits: true}
	base := liveHeap()
	db, err := neograph.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.BuildSocial(db, workload.SocialConfig{People: 2000, AvgFriends: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	entities := uint64(len(g.People) + len(g.Rels))
	loaded := (liveHeap() - base) / entities
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	base = liveHeap()
	db, err = neograph.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	recovered := (liveHeap() - base) / entities
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	t.Logf("%d entities: %d B/entity loaded, %d B/entity recovered", entities, loaded, recovered)
	if loaded > heapBudgetPerEntity {
		t.Errorf("loaded graph holds %d B/entity, budget %d", loaded, heapBudgetPerEntity)
	}
	if recovered > heapBudgetPerEntity {
		t.Errorf("recovered graph holds %d B/entity, budget %d", recovered, heapBudgetPerEntity)
	}
}
