package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"neograph/internal/faultfs"
	"neograph/internal/value"
)

// copyDir returns a fresh copy of a crashed engine's directory: an Open
// may repair what it finds (a torn log tail, a whole store journal), and
// each of a test's Opens has to find the same files.
func copyDir(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.CopyFS(dst, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestRecoverIsWorkerCountInvariant recovers one crashed store — with
// everything in it whose order a recovery could get wrong — on 1, 2 and 8
// processors: on one the scan and the seeding are one loop, on more they
// are a pipeline of goroutines (seedFrom). What a reader, a writer, the
// collector or an allocation can observe afterwards must not depend on
// which it was.
func TestRecoverIsWorkerCountInvariant(t *testing.T) {
	dir := t.TempDir()
	e := openPartitioned(t, dir, 1, 2, func(o *Options) { o.StoreCachePages = 8 })
	u := redoUniverse
	commit := func(stage func(tx *Tx)) {
		t.Helper()
		tx := e.Begin()
		stage(tx)
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Enough nodes and relationships, each with a few properties, to fill
	// several pages of every file: property chains cross page boundaries,
	// and one value is long enough to spill into a chain of dynamic records.
	var nodes, rels []uint64
	long := value.String(strings.Repeat("spilled ", 60))
	commit(func(tx *Tx) {
		for i := 0; i < 400; i++ {
			props := value.Map{u.keys[i%4]: u.values[i%len(u.values)], u.keys[(i+1)%4]: value.Int(int64(i % 5))}
			if i%50 == 0 {
				props[u.keys[2]] = long
			}
			id, err := tx.CreateNode([]string{u.labels[i%3]}, props)
			if err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, id)
		}
	})
	commit(func(tx *Tx) {
		for i := 0; i < 600; i++ {
			from, to := nodes[(7*i)%len(nodes)], nodes[(11*i+3)%len(nodes)]
			if i%40 == 0 {
				to = from // a self-loop
			}
			props := value.Map{}
			for j := 0; j <= i%4; j++ {
				props[u.keys[j]] = u.values[(i+j)%len(u.values)]
			}
			id, err := tx.CreateRel(u.relTypes[i%2], from, to, props)
			if err != nil {
				t.Fatal(err)
			}
			rels = append(rels, id)
		}
	})
	// Edges to nodes of the other partition, committed in two phases.
	tx := e.Begin()
	for i := 0; i < 5; i++ {
		if _, err := tx.CreateRelCrossPartition(u.relTypes[0], nodes[i], 1000+2*uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Prepare(7, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.DecideTxn(7, true, nil); err != nil {
		t.Fatal(err)
	}
	// IDs freed and used again: delete, collect, checkpoint the removals,
	// create.
	commit(func(tx *Tx) {
		for _, id := range rels[100:140] {
			if err := tx.DeleteRel(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	e.RunGC()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	commit(func(tx *Tx) {
		for i := 0; i < 30; i++ {
			if _, err := tx.CreateRel(u.relTypes[1], nodes[i], nodes[i+1], value.Map{u.keys[3]: value.Bool(true)}); err != nil {
				t.Fatal(err)
			}
		}
	})
	// Tombstones in the store, several of one transaction: a pinned reader
	// keeps the collector off them until they are checkpointed.
	reader := e.Begin()
	commit(func(tx *Tx) {
		for _, id := range rels[300:320] {
			if err := tx.DeleteRel(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	commit(func(tx *Tx) {
		for _, id := range rels[320:330] {
			if err := tx.DeleteRel(id); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reader.Abort()
	// And a log tail over all of it.
	commit(func(tx *Tx) {
		for i, id := range nodes[:20] {
			if err := tx.SetNodeProp(id, u.keys[0], value.Int(int64(-i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.DeleteRel(rels[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.CreateNode([]string{u.labels[0]}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}

	// recovered is dumpEngine plus what it leaves out because a replica
	// need not share it: where the oracle and the allocators resume.
	recovered := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e := openPartitioned(t, copyDir(t, dir), 1, 2, func(o *Options) { o.StoreCachePages = 8 })
		defer e.Crash()
		rep := e.OpenReport()
		if want := map[bool]int{true: 1, false: 3}[procs == 1]; rep.Workers != want {
			t.Errorf("GOMAXPROCS %d: recovered on %d goroutines, want %d", procs, rep.Workers, want)
		}
		if rep.Nodes == 0 || rep.Rels == 0 || rep.WALRecords == 0 {
			t.Errorf("GOMAXPROCS %d: open report %+v", procs, rep)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "backlog %d last commit %d\n", e.GCBacklog(), e.oracle.LastCommit())
		b.WriteString(dumpEngine(t, e)) // collects: the tombstones' IDs go back in GC-list order
		for i := 0; i < 80; i++ {
			fmt.Fprintf(&b, "alloc node %d rel %d\n", e.allocNodeID(), e.allocRelID())
		}
		fmt.Fprintf(&b, "high water %d %d\n", e.store.NodeHighWater(), e.store.RelHighWater())
		return b.String()
	}
	want := recovered(1)
	if !strings.Contains(want, "rel ") || !strings.Contains(want, "1000") {
		t.Fatalf("the recovered graph is missing its relationships:\n%s", want)
	}
	for _, procs := range []int{2, 8} {
		if got := recovered(procs); got != want {
			t.Errorf("recovered on %d processors:\n%s\non 1:\n%s", procs, got, want)
		}
	}
}

// unreadableStore builds a checkpointed, crashed store whose files are
// larger than the page cache the test reopens it with, and returns its
// directory and how many nodes it holds.
func unreadableStore(t *testing.T) (dir string, nodes int) {
	t.Helper()
	dir = t.TempDir()
	e := diskEngine(t, dir)
	tx := e.Begin()
	for i := 0; i < 600; i++ {
		if _, err := tx.CreateNode([]string{"N"}, value.Map{"i": value.Int(int64(i)), "s": value.String("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	return dir, 600
}

// TestOpenFailsOnCorruptPropertyRecord: an entity whose property chain
// cannot be decoded fails Open with its name; recovery used to go on
// without it, its ID still allocated.
func TestOpenFailsOnCorruptPropertyRecord(t *testing.T) {
	dir, _ := unreadableStore(t)
	path := filepath.Join(dir, "neostore.props.db")
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const kindByte = 22 // record 0's inline value starts with its kind (record.propHeader + 1)
	buf[kindByte] ^= 0x7f
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(Options{Dir: dir})
	if err == nil {
		e.Crash()
		t.Fatal("Open succeeded over a corrupt property record")
	}
	if !strings.Contains(err.Error(), "node 0 of") || !strings.Contains(err.Error(), "neostore.nodes.db") {
		t.Errorf("the error does not name the node and its file: %v", err)
	}
}

// TestOpenFailsOnShortStoreRead: a store read cut short at any point of
// Open — in the free-list pass, in the scan, in the token file — fails
// Open; it must never yield a smaller graph.
func TestOpenFailsOnShortStoreRead(t *testing.T) {
	dir, nodes := unreadableStore(t)
	// Two pages per file: the scan has to read the property file again.
	open := func(inj *faultfs.Injector) (*Engine, error) {
		return Open(Options{Dir: copyDir(t, dir), StoreCachePages: 2, FS: inj})
	}
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	e, err := open(inj)
	if err != nil {
		t.Fatal(err)
	}
	e.Crash()
	reads := inj.Counts()["store.read"]
	if reads < 10 {
		t.Fatalf("only %d store reads at Open", reads)
	}
	for hit := 1; hit <= reads; hit++ {
		inj := faultfs.NewInjector(faultfs.OS{}, nil)
		inj.Arm(faultfs.Fault{Point: "store.read", Hit: hit, Mode: faultfs.ModeShortRead, TornBytes: 100})
		e, err := open(inj)
		if err != nil {
			continue
		}
		tx := e.Begin()
		got, _ := tx.AllNodes()
		tx.Abort()
		e.Crash()
		if inj.Fired() && len(got) != nodes {
			t.Errorf("store read %d cut short: Open succeeded with %d of %d nodes", hit, len(got), nodes)
		}
	}
}
