package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"neograph/internal/faultfs"
	"neograph/internal/value"
)

// This file is the checkpoint half of the crash story: the WAL crash
// matrix (repl package) proves the log path; here the process dies at
// every store-file operation a checkpoint performs — page writes, page
// fsyncs, the checkpoint marker, the truncation-side WAL ops — and
// recovery must replay the retained WAL into an untorn store with every
// committed entity intact.

// checkpointWorkload commits a mix of nodes and relationships so a
// checkpoint touches both record stores plus the dynamic/property
// stores, and registers five tokens (CW, v, LINK, i, w) so the matrix
// crashes at each of five token-file appends.
const checkpointWorkload = 12

func runCheckpointWorkload(t *testing.T, e *Engine) []uint64 {
	t.Helper()
	ids := make([]uint64, 0, checkpointWorkload)
	for i := 0; i < checkpointWorkload; i++ {
		id := seedNode(t, e, []string{"CW"}, value.Map{"v": value.Int(int64(i))})
		ids = append(ids, id)
		if i > 0 && i%3 == 0 {
			tx := e.Begin()
			props := value.Map{"i": value.Int(int64(i)), "w": value.Int(int64(-i))}
			if _, err := tx.CreateRel("LINK", ids[i-1], id, props); err != nil {
				t.Fatal(err)
			}
			mustCommit(t, tx)
		}
	}
	return ids
}

// verifyWorkload asserts every committed entity survived, readable
// end to end (labels, props, and the adjacency recovery rebuilds from
// the relationship records — a torn page would surface here).
func verifyWorkload(t *testing.T, e *Engine, ids []uint64) {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	got, err := tx.NodesByLabel("CW")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("recovered %d CW nodes, want %d", len(got), len(ids))
	}
	for i, id := range ids {
		n, err := tx.GetNode(id)
		if err != nil {
			t.Fatalf("node %d lost: %v", id, err)
		}
		if v, _ := n.Props["v"].AsInt(); v != int64(i) {
			t.Fatalf("node %d has v=%d, want %d", id, v, i)
		}
		if i > 0 && i%3 == 0 {
			rels, err := tx.Relationships(id, Incoming, "LINK")
			if err != nil || len(rels) != 1 {
				t.Fatalf("node %d LINK adjacency broken: %d rels, err=%v", id, len(rels), err)
			}
			if w, _ := rels[0].Props["w"].AsInt(); w != int64(-i) {
				t.Fatalf("LINK into node %d has w=%d, want %d", id, w, -i)
			}
		}
	}
}

// recordCheckpointPoints returns, per crash point, the hit range
// [first, last] that falls inside Checkpoint() (as opposed to the
// commit workload before it).
func recordCheckpointPoints(t *testing.T) (before, after map[string]int) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	e, err := Open(Options{Dir: t.TempDir(), FS: inj, WALSegmentSize: 2048, StoreCachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	runCheckpointWorkload(t, e)
	before = inj.Counts()
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after = inj.Counts()
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	if after["store.write"] <= before["store.write"] || after["store.sync"] <= before["store.sync"] {
		t.Fatalf("checkpoint performed no store writes: before %v after %v", before, after)
	}
	return before, after
}

// runCheckpointCrashCase repeats the workload, kills the engine at the
// armed point inside Checkpoint, and asserts recovery yields an untorn,
// fully usable store.
func runCheckpointCrashCase(t *testing.T, fault faultfs.Fault) {
	t.Helper()
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	e, err := Open(Options{Dir: dir, FS: inj, WALSegmentSize: 2048, StoreCachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	ids := runCheckpointWorkload(t, e)
	inj.Arm(fault)
	cerr := e.Checkpoint()
	if cerr == nil && inj.Fired() {
		t.Fatal("checkpoint reported success after an injected crash")
	}
	if cerr != nil && !errors.Is(cerr, faultfs.ErrCrashed) {
		t.Fatalf("checkpoint failed with a non-injected error: %v", cerr)
	}
	e.Crash()

	// Recovery on the real filesystem: whatever prefix of the checkpoint
	// reached the store, the retained WAL must rebuild the full committed
	// state — replay is idempotent over already-persisted entities.
	re, err := Open(Options{Dir: dir, WALSegmentSize: 2048, StoreCachePages: 8})
	if err != nil {
		t.Fatalf("recovery after checkpoint crash: %v", err)
	}
	verifyWorkload(t, re, ids)

	// The recovered engine checkpoints and commits cleanly — no poisoned
	// state, no torn store pages resurfacing on the next write-back.
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("post-recovery checkpoint: %v", err)
	}
	seedNode(t, re, []string{"CW2"}, nil)
	verifyWorkload(t, re, ids)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCrashMatrix kills the engine at every store-file and
// WAL crash point inside Checkpoint — clean kills on every hit, torn
// writes on every even store-page write.
func TestCheckpointCrashMatrix(t *testing.T) {
	before, after := recordCheckpointPoints(t)
	cases := 0
	for point, total := range after {
		// Arm resets hit counts, so the armed hit is 1-based from the
		// start of the checkpoint: one case per op the recording pass saw
		// inside Checkpoint itself.
		for hit := 1; hit <= total-before[point]; hit++ {
			fault := faultfs.Fault{Point: point, Hit: hit, Mode: faultfs.ModeCrash}
			name := fmt.Sprintf("%s-%d-kill", point, hit)
			if point == "store.write" && hit%2 == 0 {
				fault.Mode, fault.TornBytes = faultfs.ModeTornWrite, -1
				name = fmt.Sprintf("%s-%d-torn", point, hit)
			}
			cases++
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				runCheckpointCrashCase(t, fault)
			})
		}
	}
	if cases < 8 {
		t.Fatalf("checkpoint crash matrix too small: %d cases (before %v, after %v)", cases, before, after)
	}
}

// TestCheckpointCrashThenSecondCheckpoint: a crash between two
// checkpoints must not lose entities only the FIRST checkpoint
// persisted — once the WAL below the cut is truncated, the store is the
// only copy, so the truncation must strictly follow the store fsync.
func TestCheckpointCrashThenSecondCheckpoint(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	e, err := Open(Options{Dir: dir, FS: inj, WALSegmentSize: 2048, StoreCachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	ids := runCheckpointWorkload(t, e)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Second round of commits, then die on its checkpoint's first store
	// fsync: the first checkpoint's truncation already dropped the early
	// WAL, so recovery must find those entities in the store alone.
	for i := 0; i < 5; i++ {
		ids = append(ids, seedNode(t, e, []string{"CW"}, value.Map{"v": value.Int(int64(checkpointWorkload + i))}))
	}
	// Arm resets hit counts, so hit 1 is the first store fsync of the
	// second checkpoint (no new tokens exist, so it is a page flush).
	inj.Arm(faultfs.Fault{Point: "store.sync", Hit: 1, Mode: faultfs.ModeCrash})
	if err := e.Checkpoint(); err == nil {
		t.Fatal("second checkpoint survived the injected crash")
	}
	e.Crash()

	re, err := Open(Options{Dir: dir, WALSegmentSize: 2048, StoreCachePages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	tx := re.Begin()
	defer tx.Abort()
	got, err := tx.NodesByLabel("CW")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("recovered %d CW nodes, want %d", len(got), len(ids))
	}
}

// TestFailedCheckpointsAreCounted: the background checkpointer has nobody
// to return an error to, and a store whose every checkpoint fails looked
// healthy from outside. A failed checkpoint is counted and leaves the age
// of the last good one running; the background loop keeps trying, and its
// next success resets the age.
func TestFailedCheckpointsAreCounted(t *testing.T) {
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	e, err := Open(Options{Dir: t.TempDir(), FS: inj, NoSyncCommits: true, CheckpointEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Crash()
	opened := e.LastCheckpoint()
	if opened.IsZero() {
		t.Fatal("no checkpoint age on a freshly opened store")
	}
	seedNode(t, e, nil, value.Map{"v": value.Int(1)})
	inj.Arm(faultfs.Fault{Point: "store.sync", Hit: 1, Mode: faultfs.ModeSyncFail})
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().CheckpointFailures == 0 || e.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer: %+v, fault fired %v", e.Stats(), inj.Fired())
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.Stats().CheckpointFailures; got != 1 {
		t.Errorf("one store fsync failed: %d checkpoint failures", got)
	}
	if !e.LastCheckpoint().After(opened) {
		t.Errorf("the checkpoint after the failed one left the age at Open's %v", opened)
	}
}
