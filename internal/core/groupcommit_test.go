package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"neograph/internal/ids"
	"neograph/internal/value"
	"neograph/internal/wal"
)

// TestGroupCommitConcurrentDurability commits from many goroutines with
// fsync enabled, crashes, and checks every acknowledged commit is
// replayed — and that the commits shared fsyncs.
func TestGroupCommitConcurrentDurability(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if e.batcher == nil {
		t.Fatal("durable engine should have a group-commit batcher")
	}

	const writers = 8
	const perWriter = 20
	var mu sync.Mutex
	committed := make(map[ids.ID]string)
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				tx := e.Begin()
				name := fmt.Sprintf("w%d-%d", i, j)
				id, err := tx.CreateNode([]string{"GC"}, value.Map{"name": value.String(name)})
				if err != nil {
					t.Errorf("create: %v", err)
					tx.Abort()
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				mu.Lock()
				committed[id] = name
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	st := e.Stats()
	if st.WALSyncedCommits != writers*perWriter {
		t.Fatalf("WALSyncedCommits = %d, want %d", st.WALSyncedCommits, writers*perWriter)
	}
	if st.WALFlushes == 0 || st.WALFlushes >= st.WALSyncedCommits {
		t.Fatalf("WALFlushes = %d for %d synced commits; want group commit to share fsyncs",
			st.WALFlushes, st.WALSyncedCommits)
	}
	t.Logf("%d commits over %d fsyncs (mean batch %.1f)",
		st.WALSyncedCommits, st.WALFlushes, float64(st.WALSyncedCommits)/float64(st.WALFlushes))

	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	tx := e2.Begin()
	defer tx.Abort()
	for id, want := range committed {
		snap, err := tx.GetNode(id)
		if err != nil {
			t.Fatalf("node %d (%s) lost after crash: %v", id, want, err)
		}
		if got := snap.Props["name"]; !got.Equal(value.String(want)) {
			t.Fatalf("node %d: name = %v, want %q", id, got, want)
		}
	}
}

// TestNoSyncCommitsBypassesBatcher checks the unsynced mode never touches
// the group-commit machinery.
func TestNoSyncCommitsBypassesBatcher(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), NoSyncCommits: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.batcher != nil {
		t.Fatal("NoSyncCommits engine should not construct a batcher")
	}
	tx := e.Begin()
	if _, err := tx.CreateNode([]string{"N"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.WALFlushes != 0 || st.WALSyncedCommits != 0 {
		t.Fatalf("unsynced commits recorded flush stats: %+v", st)
	}
}

// flakySyncer fails Sync after failAfter successes.
type flakySyncer struct {
	next      atomic.Uint64
	syncs     atomic.Uint64
	failAfter uint64
}

func (f *flakySyncer) NextLSN() uint64 { return f.next.Add(1) }
func (f *flakySyncer) Sync() error {
	if f.syncs.Add(1) > f.failAfter {
		return errors.New("injected fsync failure")
	}
	return nil
}

// TestGroupCommitFsyncFailureFailsCommit swaps in a batcher whose fsync
// fails and checks the commit reports the durability loss (and that the
// engine stays poisoned for later durable commits).
func TestGroupCommitFsyncFailureFailsCommit(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// Substitute a batcher over a failing disk. The WAL append itself
	// still succeeds — only durability is lost, which is exactly the
	// group-commit failure mode (install already happened).
	e.batcher.Close()
	e.batcher = wal.NewBatcher(&flakySyncer{})

	tx := e.Begin()
	if _, err := tx.CreateNode([]string{"X"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit claimed durability despite fsync failure")
	} else if !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("unexpected error: %v", err)
	}

	// Poisoned: the next durable commit fails too.
	tx2 := e.Begin()
	if _, err := tx2.CreateNode([]string{"Y"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err == nil {
		t.Fatal("engine accepted a durable commit after a failed fsync")
	}
}

// TestGroupCommitLatchNotHeldAcrossFsync regression-tests the latch rule:
// while one FCW committer is parked in a slow fsync, another must be able
// to validate and install. A held fsync stands in for a slow disk.
func TestGroupCommitLatchNotHeldAcrossFsync(t *testing.T) {
	e, err := Open(Options{Dir: t.TempDir(), Conflict: FirstCommitterWins})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	slow := gateBatcher(e)

	done := make(chan error, 1)
	go func() {
		tx := e.Begin()
		if _, err := tx.CreateNode([]string{"A"}, nil); err != nil {
			done <- err
			return
		}
		done <- tx.Commit() // parks in the blocked fsync
	}()

	// Wait until the first committer is inside Sync.
	<-slow.entered

	// The latches must be free: TryLock succeeds on every stripe while
	// the fsync is stuck.
	for i := range e.stripes {
		if !e.stripes[i].valMu.TryLock() {
			t.Fatalf("stripe %d validation latch is held across the fsync", i)
		}
		e.stripes[i].valMu.Unlock()
	}

	close(slow.release)
	if err := <-done; err != nil {
		t.Fatalf("first committer: %v", err)
	}
}

// blockingSyncer holds every Sync until release is closed, then syncs
// the log it wraps.
type blockingSyncer struct {
	wal.Syncer
	enterOnce sync.Once
	entered   chan struct{} // closed when the first Sync arrives
	release   chan struct{} // close to let every Sync through
}

func (b *blockingSyncer) Sync() error {
	b.enterOnce.Do(func() { close(b.entered) })
	<-b.release
	return b.Syncer.Sync()
}

// gateBatcher swaps e's group-commit batcher for one whose fsyncs wait
// for the returned syncer's release: a committer parks between its
// append and its fsync until the test lets it through.
func gateBatcher(e *Engine) *blockingSyncer {
	g := &blockingSyncer{Syncer: e.wal, entered: make(chan struct{}), release: make(chan struct{})}
	e.batcher.Close()
	e.batcher = wal.NewBatcher(g)
	return g
}
