package core_test

import (
	"runtime"
	"testing"

	"neograph"
	"neograph/internal/pagecache"
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

// TestOpenPinsEachPageOnce holds Open to a page at a time: one pass over
// each record file for its free list, one more over what the scan reads —
// a chain that runs back into a page already passed may pin it again, so
// the budget is three pins a page, and two reads of it from the file. A
// scan that pinned a page per record took 378 a page on the benchmark's
// graph.
func TestOpenPinsEachPageOnce(t *testing.T) {
	opts := neograph.Options{Dir: t.TempDir(), DisableSyncCommits: true}
	db, err := neograph.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.BuildSocial(db, workload.SocialConfig{People: 2000, AvgFriends: 8, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if db, err = neograph.Open(opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := db.Engine().Store()
	sizes, err := st.FileSizes()
	if err != nil {
		t.Fatal(err)
	}
	for file, cs := range st.CacheStats() {
		pages := uint64(sizes[file]+pagecache.PageSize-1) / pagecache.PageSize
		t.Logf("%s: %d pages, %d hits, %d misses", file, pages, cs.Hits, cs.Misses)
		if pages == 0 {
			t.Errorf("%s: the graph left the file empty", file)
		}
		if cs.Hits+cs.Misses > 3*pages {
			t.Errorf("%s: Open pinned %d times for %d pages", file, cs.Hits+cs.Misses, pages)
		}
		if cs.Misses > 2*pages {
			t.Errorf("%s: Open read %d pages from a file of %d", file, cs.Misses, pages)
		}
	}
}
