package core_test

import (
	"runtime"
	"testing"

	"neograph"
	"neograph/internal/pagecache"
	"neograph/internal/workload"
)

// The budgets are what one resident entity of the social graph (12 %
// nodes with three properties and a label, 88 % relationships with one
// property, each with its single version and adjacency) may cost in live
// heap, the store's page cache included, on the 2 000-person graph.
//
// A property key has index entries from the first lookup that names it:
// an engine nobody has queried by property holds none, and measures
// 384 B an entity; one that has been asked for every key holds 515 B.
// Each budget is 15 % above. TestResidentLayout pins the structs the
// figures are made of.
const (
	heapBudgetPerEntity        = 442 // bytes, nothing looked up
	heapBudgetPerIndexedEntity = 592 // bytes, every property key looked up
)

// liveHeap returns the live heap after a forced collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// lookUpEveryKey is the first lookup of each of the social graph's four
// property keys.
func lookUpEveryKey(t *testing.T, db *neograph.DB) {
	t.Helper()
	err := db.View(func(tx *neograph.Tx) error {
		for _, key := range []string{"uid", "name", "balance"} {
			if _, err := tx.NodesByProperty(key, neograph.Int(0)); err != nil {
				return err
			}
		}
		_, err := tx.RelsByProperty("weight", neograph.Float(2))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Engine().IndexBuilds()); got != 4 {
		t.Fatalf("%d keys built, want the graph's 4", got)
	}
}

// TestResidentHeapBudget holds the engine's bytes per resident entity
// under its two budgets, once loaded through the commit path and once
// recovered from the store: recovery must build the same layout a load
// leaves, and so must the first lookups on either.
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
	lookUpEveryKey(t, db)
	loadedIndexed := (liveHeap() - base) / entities
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}

	base = liveHeap()
	db, err = neograph.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	recovered := (liveHeap() - base) / entities
	lookUpEveryKey(t, db)
	recoveredIndexed := (liveHeap() - base) / entities
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	t.Logf("%d entities, B/entity: loaded %d, with every key looked up %d; recovered %d, with every key looked up %d",
		entities, loaded, loadedIndexed, recovered, recoveredIndexed)
	for _, c := range []struct {
		what        string
		got, budget uint64
	}{
		{"loaded graph", loaded, heapBudgetPerEntity},
		{"recovered graph", recovered, heapBudgetPerEntity},
		{"loaded graph with every key looked up", loadedIndexed, heapBudgetPerIndexedEntity},
		{"recovered graph with every key looked up", recoveredIndexed, heapBudgetPerIndexedEntity},
	} {
		if c.got > c.budget {
			t.Errorf("%s holds %d B/entity, budget %d", c.what, c.got, c.budget)
		}
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
