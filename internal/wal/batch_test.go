package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neograph/internal/faultfs"
)

// TestBatcherGroupsConcurrentCommits drives many concurrent committers
// through Append+WaitDurable and checks that (a) every record is durable
// and replayable afterwards and (b) the batcher issued far fewer fsyncs
// than there were commits.
func TestBatcherGroupsConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(w)

	const writers = 16
	const perWriter = 25
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				lsn, err := w.Append([]byte(fmt.Sprintf("w%d-%d", i, j)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if err := b.WaitDurable(lsn); err != nil {
					t.Errorf("wait durable: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	st := b.Stats()
	if st.SyncedCommits != writers*perWriter {
		t.Fatalf("synced commits = %d, want %d", st.SyncedCommits, writers*perWriter)
	}
	if st.Flushes == 0 || st.Flushes >= st.SyncedCommits {
		t.Fatalf("flushes = %d for %d commits; want batching (0 < flushes < commits)", st.Flushes, st.SyncedCommits)
	}
	t.Logf("%d commits in %d flushes (mean batch %.1f)",
		st.SyncedCommits, st.Flushes, float64(st.SyncedCommits)/float64(st.Flushes))

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-replay: reopen and count records.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	n := 0
	if err := w2.ForEach(func(_ uint64, _ []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != writers*perWriter {
		t.Fatalf("replayed %d records, want %d", n, writers*perWriter)
	}
}

// failingSyncer fails every Sync after the first `okUntil` calls.
type failingSyncer struct {
	next    atomic.Uint64
	calls   atomic.Uint64
	okUntil uint64
}

func (f *failingSyncer) NextLSN() uint64 { return f.next.Load() }
func (f *failingSyncer) Sync() error {
	if f.calls.Add(1) > f.okUntil {
		return errors.New("injected fsync failure")
	}
	return nil
}

// TestBatcherFsyncFailurePropagates checks that a leader's failed fsync is
// reported to every waiter in the batch, and that the batcher stays
// poisoned afterwards (no later commit can claim durability).
func TestBatcherFsyncFailurePropagates(t *testing.T) {
	f := &failingSyncer{}
	b := NewBatcher(f)

	const waiters = 8
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn := f.next.Add(8) - 8 // simulate an append
			errs <- b.WaitDurable(lsn)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("a waiter observed durability despite the fsync failing")
		}
	}
	// Poisoned: a fresh waiter fails immediately even without a new flush.
	if err := b.WaitDurable(f.next.Add(8) - 8); err == nil {
		t.Fatal("batcher accepted a commit after a failed fsync")
	}
	if b.Err() == nil {
		t.Fatal("Err() should report the sticky failure")
	}
}

// TestBatcherDurableAcrossRotation checks that records sealed into a
// rotated segment still count as durable (rotation syncs the old file).
func TestBatcherDurableAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatcher(w)
	for i := 0; i < 20; i++ { // small segment: forces several rotations
		lsn, err := w.Append([]byte("0123456789abcdef"))
		if err != nil {
			t.Fatal(err)
		}
		if err := b.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(faultfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotations, got %d segment(s) in %s", len(segs), filepath.Join(dir))
	}
}

// gatedSyncer holds every Sync until release is closed, then syncs the
// log it wraps.
type gatedSyncer struct {
	*WAL
	enterOnce sync.Once
	entered   chan struct{} // closed when the first Sync arrives
	release   chan struct{} // close to let every Sync through
}

func (g *gatedSyncer) Sync() error {
	g.enterOnce.Do(func() { close(g.entered) })
	<-g.release
	return g.WAL.Sync()
}

// TestBatcherCloseWakesWaiters: committers parked in WaitDurable when
// Close starts are all woken — by the flush they rode, not by an error —
// and once Close returns, further waits and a second Close are refused.
func TestBatcherCloseWakesWaiters(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	defer w.Close()
	g := &gatedSyncer{WAL: w, entered: make(chan struct{}), release: make(chan struct{})}
	b := NewBatcher(g)

	const waiters = 8
	res := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		lsn, err := w.Append([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		go func() { res <- b.WaitDurable(lsn) }()
	}
	<-g.entered
	for b.Depth() < waiters { // one leader in Sync, the rest parked behind it
		runtime.Gosched()
	}
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	close(g.release)

	deadline := time.After(30 * time.Second)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-res:
			if err != nil {
				t.Errorf("WaitDurable = %v", err)
			}
		case <-deadline:
			t.Fatalf("%d waiter(s) still parked after Close", waiters-i)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	lsn, err := w.Append([]byte("late"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.WaitDurable(lsn); !errors.Is(err, ErrClosed) {
		t.Errorf("WaitDurable after Close = %v, want ErrClosed", err)
	}
	if err := b.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

// TestLingerCutShortByClose: a committer left lingering behind the flush
// that is in flight when Close starts is made durable, not failed — Close
// waits that flush out and its drain flush covers whoever is still
// parked.
func TestLingerCutShortByClose(t *testing.T) {
	w, _ := openTestWAL(t, Options{})
	defer w.Close()
	g := &gatedSyncer{WAL: w, entered: make(chan struct{}), release: make(chan struct{})}
	b := NewBatcher(g)

	wait := func(payload string) <-chan error {
		lsn, err := w.Append([]byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		res := make(chan error, 1)
		go func() { res <- b.WaitDurable(lsn) }()
		return res
	}
	leader := wait("leader")
	<-g.entered // the leader's fsync is in flight and covers only its record
	parked := wait("parked")
	for b.Depth() < 2 { // the second committer is queued behind the flush
		runtime.Gosched()
	}
	closed := make(chan error, 1)
	go func() { closed <- b.Close() }()
	close(g.release)

	deadline := time.After(30 * time.Second)
	for name, res := range map[string]<-chan error{"leader": leader, "parked": parked} {
		select {
		case err := <-res:
			if err != nil {
				t.Errorf("%s: WaitDurable = %v", name, err)
			}
		case <-deadline:
			t.Fatalf("%s: Close did not cut the wait short", name)
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := b.Stats(); got.Flushes != 2 || got.SyncedCommits != 2 {
		t.Errorf("stats = %+v, want 2 flushes for 2 commits", got)
	}
}
