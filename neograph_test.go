package neograph

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

func memDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := memDB(t)
	var alice, bob NodeID
	err := db.Update(0, func(tx *Tx) error {
		var err error
		alice, err = tx.CreateNode([]string{"Person"}, Props{"name": String("alice")})
		if err != nil {
			return err
		}
		bob, err = tx.CreateNode([]string{"Person"}, Props{"name": String("bob")})
		if err != nil {
			return err
		}
		_, err = tx.CreateRel("KNOWS", alice, bob, Props{"since": Int(2020)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.View(func(tx *Tx) error {
		people, err := tx.NodesByLabel("Person")
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(people, []NodeID{alice, bob}) {
			t.Errorf("people = %v", people)
		}
		nbrs, err := tx.Neighbors(alice, Outgoing, "KNOWS")
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(nbrs, []NodeID{bob}) {
			t.Errorf("neighbors = %v", nbrs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRetriesConflicts(t *testing.T) {
	db := memDB(t)
	var id NodeID
	if err := db.Update(0, func(tx *Tx) error {
		var err error
		id, err = tx.CreateNode(nil, Props{"n": Int(0)})
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Hammer one counter from many goroutines with retries: every
	// increment must eventually land (no lost updates, no starvation with
	// a generous retry budget).
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				errs[w] = db.Update(1000, func(tx *Tx) error {
					n, err := tx.GetNode(id)
					if err != nil {
						return err
					}
					cur, _ := n.Props["n"].AsInt()
					return tx.SetNodeProp(id, "n", Int(cur+1))
				})
				if errs[w] != nil {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	db.View(func(tx *Tx) error {
		n, _ := tx.GetNode(id)
		if v, _ := n.Props["n"].AsInt(); v != workers*perWorker {
			t.Fatalf("counter = %d, want %d", v, workers*perWorker)
		}
		return nil
	})
}

func TestUpdateAbortsOnError(t *testing.T) {
	db := memDB(t)
	boom := errors.New("boom")
	var id NodeID
	err := db.Update(0, func(tx *Tx) error {
		id, _ = tx.CreateNode(nil, nil)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	db.View(func(tx *Tx) error {
		if ok, _ := tx.NodeExists(id); ok {
			t.Fatal("aborted create leaked")
		}
		return nil
	})
}

func TestIsolationLevelsExposed(t *testing.T) {
	db := memDB(t)
	var id NodeID
	db.Update(0, func(tx *Tx) error {
		id, _ = tx.CreateNode(nil, Props{"v": Int(1)})
		return nil
	})

	si := db.BeginIsolation(SnapshotIsolation)
	rc := db.BeginIsolation(ReadCommitted)
	defer si.Abort()
	defer rc.Abort()

	db.Update(0, func(tx *Tx) error { return tx.SetNodeProp(id, "v", Int(2)) })

	nSI, _ := si.GetNode(id)
	nRC, _ := rc.GetNode(id)
	vSI, _ := nSI.Props["v"].AsInt()
	vRC, _ := nRC.Props["v"].AsInt()
	if vSI != 1 {
		t.Fatalf("SI read %d, want snapshot value 1", vSI)
	}
	if vRC != 2 {
		t.Fatalf("RC read %d, want latest committed 2", vRC)
	}
}

func TestIteratorAPI(t *testing.T) {
	db := memDB(t)
	db.Update(0, func(tx *Tx) error {
		for i := 0; i < 5; i++ {
			if _, err := tx.CreateNode([]string{"X"}, Props{"i": Int(int64(i))}); err != nil {
				return err
			}
		}
		return nil
	})
	db.View(func(tx *Tx) error {
		it, err := tx.IterateNodesByLabel("X")
		if err != nil {
			return err
		}
		count := 0
		for it.Next() {
			if !hasString(it.Node().Labels, "X") {
				t.Errorf("node %d missing label", it.Node().ID)
			}
			count++
		}
		if count != 5 {
			t.Fatalf("iterated %d, want 5", count)
		}
		return it.Err()
	})
}

func hasString(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func TestPersistentOpenClose(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var id NodeID
	db.Update(0, func(tx *Tx) error {
		id, _ = tx.CreateNode([]string{"Keep"}, Props{"k": String("v")})
		return nil
	})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	db2.View(func(tx *Tx) error {
		n, err := tx.GetNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := n.Props["k"].AsString(); v != "v" {
			t.Fatalf("props = %v", n.Props)
		}
		return nil
	})
}

// The store keeps an entity's commit timestamp in its record, so no
// property name is the store's: one named like the reserved key earlier
// store formats kept the timestamp under survives a checkpoint like any other.
func TestPropertyNamedLikeTheOldTimestampKeySurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var id NodeID
	if err := db.Update(0, func(tx *Tx) (err error) {
		if id, err = tx.CreateNode(nil, nil); err != nil {
			return err
		}
		return tx.SetNodeProp(id, "__neograph_cts", String("x"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.View(func(tx *Tx) error {
		n, err := tx.GetNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := n.Props["__neograph_cts"].AsString(); v != "x" {
			t.Fatalf("props after reopen = %v, want __neograph_cts = \"x\"", n.Props)
		}
		return nil
	})
}

func TestGCThroughPublicAPI(t *testing.T) {
	db := memDB(t)
	var id NodeID
	db.Update(0, func(tx *Tx) error {
		id, _ = tx.CreateNode(nil, Props{"v": Int(0)})
		return nil
	})
	for i := 0; i < 10; i++ {
		db.Update(0, func(tx *Tx) error { return tx.SetNodeProp(id, "v", Int(int64(i))) })
	}
	if db.GCBacklog() == 0 {
		t.Fatal("no GC backlog accumulated")
	}
	rep := db.RunGC()
	if rep.Collected == 0 {
		t.Fatal("GC collected nothing")
	}
	versions, _ := db.VersionCount()
	if versions != 1 {
		t.Fatalf("versions = %d", versions)
	}
}
