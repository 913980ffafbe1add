package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"neograph/internal/faultfs"
	"neograph/internal/value"
)

// dumpStore renders every image the store holds.
func dumpStore(t *testing.T, s *Store) string {
	t.Helper()
	var b strings.Builder
	err := s.ScanNodes(func(n NodeData) error {
		fmt.Fprintf(&b, "node %d %v %v cts %d dead %v\n", n.ID, n.Labels, n.Props.ToMap(), n.CommitTS, n.Tombstone)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = s.ScanRels(func(r RelData) error {
		fmt.Fprintf(&b, "rel %d %s %d->%d %v cts %d dead %v\n", r.ID, r.Type, r.StartNode, r.EndNode, r.Props.ToMap(), r.CommitTS, r.Tombstone)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// journalWorkload writes one generation of a small graph whose images
// span several pages of every file: long values spill into the dynamic
// store, and rewriting a generation frees and re-uses the slots of the one
// before — in place, which is what a torn flush would expose.
func journalWorkload(s *Store, gen int) error {
	const nodes = 300
	for i := 0; i < nodes; i++ {
		props := value.Map{"gen": value.Int(int64(gen)), "i": value.Int(int64(i))}
		if (i+gen)%3 == 0 {
			props["bio"] = value.String(strings.Repeat(fmt.Sprint(gen), 150+i))
		}
		if (i+gen)%2 == 0 {
			props["extra"] = value.Float(float64(gen))
		}
		n := NodeData{ID: uint64(i), Labels: []string{fmt.Sprint("G", gen%2)}, Props: value.Pack(props), CommitTS: uint64(gen)}
		if gen == 1 {
			n.ID = s.AllocNodeID()
		}
		if err := s.PutNode(n); err != nil {
			return err
		}
	}
	for i := 0; i+1 < nodes; i += 2 {
		r := RelData{ID: uint64(i / 2), Type: "R", StartNode: uint64(i), EndNode: uint64(i + 1),
			Props: value.Pack(value.Map{"gen": value.Int(int64(gen))}), CommitTS: uint64(gen)}
		if gen == 1 {
			r.ID = s.AllocRelID()
		}
		if err := s.PutRel(r); err != nil {
			return err
		}
	}
	if gen > 1 { // removals free slots too
		return s.RemoveRel(uint64(gen))
	}
	return nil
}

// Kill a flush at every file operation it performs (tearing every second
// write in half): what a reopen finds is the store as the previous flush
// left it or as this one would have — every image of it — never a mix.
func TestFlushIsAllOrNothing(t *testing.T) {
	run := func(fault *faultfs.Fault) (counts map[string]int, before, after, found string) {
		dir := t.TempDir()
		inj := faultfs.NewInjector(faultfs.OS{}, nil)
		s, err := Open(dir, Options{CachePages: 4, FS: inj}) // evictions in mid-generation
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(journalWorkload(s, 1), s.Flush()); err != nil {
			t.Fatal(err)
		}
		before = dumpStore(t, s)
		if err := journalWorkload(s, 2); err != nil {
			t.Fatal(err)
		}
		after = dumpStore(t, s)
		if fault != nil {
			inj.Arm(*fault) // counts from here: the operations of this flush
		} else {
			inj.Arm(faultfs.Fault{})
		}
		ferr := s.Flush()
		counts = inj.Counts()
		if fault != nil && (ferr == nil || !errors.Is(ferr, faultfs.ErrCrashed)) {
			t.Fatalf("%+v: Flush = %v, want the injected crash", *fault, ferr)
		}
		s.Crash()
		re, err := Open(dir, Options{CachePages: 64})
		if err != nil {
			t.Fatalf("%+v: reopen: %v", fault, err)
		}
		defer re.Close()
		if _, err := os.Stat(filepath.Join(dir, journalName)); !os.IsNotExist(err) {
			t.Errorf("%+v: the journal outlived the reopen: %v", fault, err)
		}
		return counts, before, after, dumpStore(t, re)
	}

	counts, before, after, found := run(nil)
	if found != after || before == after {
		t.Fatalf("a flush that completed did not take: found == before is %v", found == before)
	}
	rolledBack, rolledForward := 0, 0
	for _, point := range []string{"store.write", "store.read", "store.sync", "store.remove", "fs.open", "fs.sync"} {
		if counts[point] == 0 {
			t.Fatalf("the flush never reached %s: %v", point, counts)
		}
		for hit := 1; hit <= counts[point]; hit++ {
			fault := faultfs.Fault{Point: point, Hit: hit}
			if point == "store.write" && hit%2 == 0 {
				fault.Mode, fault.TornBytes = faultfs.ModeTornWrite, -1
			}
			_, before, after, found := run(&fault)
			switch found {
			case before:
				rolledBack++
			case after:
				rolledForward++
			default:
				t.Fatalf("%+v: the store is neither the previous flush nor this one", fault)
			}
		}
	}
	if rolledBack == 0 || rolledForward == 0 {
		t.Fatalf("%d crashes rolled back, %d forward: the matrix misses a side", rolledBack, rolledForward)
	}
}

// journalLabel puts the journal under a fault label of its own:
// "store.write" is then a write into a record file, the second half of a
// flush.
func journalLabel(path string) string {
	if filepath.Base(path) == journalName {
		return "journal"
	}
	return faultfs.DefaultLabel(path)
}

// An Open that finds a whole journal finishes the flush and says so
// (neograph_store_journal_replays_total); the next Open finds none.
func TestJournalReplayIsCounted(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS{}, journalLabel)
	s, err := Open(dir, Options{CachePages: 4, FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if s.JournalReplays() != 0 {
		t.Fatalf("a new store replayed %d journals", s.JournalReplays())
	}
	if err := journalWorkload(s, 1); err != nil {
		t.Fatal(err)
	}
	want := dumpStore(t, s)
	inj.Arm(faultfs.Fault{Point: "store.write", Hit: 2}) // the journal is whole, the copy into place begun
	if err := s.Flush(); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Flush = %v, want the injected crash", err)
	}
	s.Crash()
	for open, replays := range []uint64{1, 0} {
		re, err := Open(dir, Options{CachePages: 64})
		if err != nil {
			t.Fatal(err)
		}
		if re.JournalReplays() != replays {
			t.Errorf("open %d: %d journal replays, want %d", open, re.JournalReplays(), replays)
		}
		if got := dumpStore(t, re); got != want {
			t.Errorf("open %d: the flush was not finished", open)
		}
		re.Crash()
	}
}

// A flush whose journal was whole and whose copy into place then failed —
// the process lives: a full disk, not a crash — leaves record files that
// only that journal can repair. Whatever the store does next, it finishes
// that flush first: a crash while the next journal is being written must
// not find the files torn and the journal gone.
func TestFailedFlushIsFinishedBeforeTheNext(t *testing.T) {
	for _, crashAt := range []string{"journal.write", "store.write"} {
		dir := t.TempDir()
		inj := faultfs.NewInjector(faultfs.OS{}, journalLabel)
		s, err := Open(dir, Options{CachePages: 4, FS: inj})
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(journalWorkload(s, 1), s.Flush(), journalWorkload(s, 2)); err != nil {
			t.Fatal(err)
		}
		second := dumpStore(t, s)
		inj.Arm(faultfs.Fault{Point: "store.write", Hit: 3, Mode: faultfs.ModeWriteFail, TornBytes: -1})
		if err := s.Flush(); !errors.Is(err, faultfs.ErrWriteFailed) {
			t.Fatalf("Flush = %v, want the injected write failure", err)
		}
		if got := dumpStore(t, s); got != second {
			t.Fatal("the store reads differently after a failed flush")
		}
		// The next thing to happen is a crash: in the retried copy into place,
		// or — that having succeeded — while the third generation's pages are
		// on their way into the next journal.
		inj.Arm(faultfs.Fault{Point: crashAt, Hit: 2})
		if err := journalWorkload(s, 3); !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("%s: the third generation = %v, want the injected crash (%v)", crashAt, err, inj.Counts())
		}
		s.Crash()
		re, err := Open(dir, Options{CachePages: 64})
		if err != nil {
			t.Fatalf("%s: reopen: %v", crashAt, err)
		}
		if got := dumpStore(t, re); got != second {
			t.Errorf("%s: reopened, the store is not the second flush", crashAt)
		}
		re.Close()
	}
}
