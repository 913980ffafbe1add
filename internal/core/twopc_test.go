package core

import (
	"errors"
	"testing"

	"neograph/internal/value"
)

func openPartitioned(t *testing.T, dir string, partID, partCount int, extra func(*Options)) *Engine {
	t.Helper()
	opts := Options{Dir: dir, PartitionID: partID, PartitionCount: partCount}
	if extra != nil {
		extra(&opts)
	}
	e, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return e
}

// Prepared mutations must be invisible until the commit decision, then
// visible exactly as a normal commit, surviving the WAL round trip.
func TestPrepareDecideCommit(t *testing.T) {
	dir := t.TempDir()
	e := openPartitioned(t, dir, 0, 2, nil)
	defer e.Close()

	tx := e.Begin()
	id, err := tx.CreateNode([]string{"User"}, value.Map{"name": value.String("ada")})
	if err != nil {
		t.Fatalf("CreateNode: %v", err)
	}
	if id%2 != 0 {
		t.Fatalf("partition 0 of 2 allocated node %d (wrong congruence class)", id)
	}
	if _, err := tx.Prepare(77, 1, nil); err != nil {
		t.Fatalf("Prepare: %v", err)
	}

	// Not yet visible.
	r := e.Begin()
	if _, err := r.GetNode(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("prepared node visible before decision: err=%v", err)
	}
	r.Abort()

	if st := e.TxnStatus(77); st != TxnPending {
		t.Fatalf("TxnStatus = %v, want pending", st)
	}
	if _, _, err := e.DecideTxn(77, true, nil); err != nil {
		t.Fatalf("DecideTxn: %v", err)
	}
	r = e.Begin()
	n, err := r.GetNode(id)
	if err != nil {
		t.Fatalf("GetNode after decide: %v", err)
	}
	if !n.Props["name"].Equal(value.String("ada")) {
		t.Fatalf("node props = %v", n.Props)
	}
	r.Abort()
	// Idempotent / unknown retry.
	if _, _, err := e.DecideTxn(77, true, nil); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("second decide: %v, want ErrNotPrepared", err)
	}
}

// An abort decision discards the prepared mutations and recycles IDs.
func TestPrepareDecideAbort(t *testing.T) {
	e := openPartitioned(t, t.TempDir(), 1, 2, nil)
	defer e.Close()

	tx := e.Begin()
	id, err := tx.CreateNode(nil, nil)
	if err != nil {
		t.Fatalf("CreateNode: %v", err)
	}
	if _, err := tx.Prepare(5, 0, nil); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, _, err := e.DecideTxn(5, false, nil); err != nil {
		t.Fatalf("DecideTxn abort: %v", err)
	}
	r := e.Begin()
	if _, err := r.GetNode(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted prepared node visible: err=%v", err)
	}
	r.Abort()
	if st := e.TxnStatus(5); st != TxnUnknown {
		t.Fatalf("TxnStatus after abort = %v, want unknown (presumed abort)", st)
	}
}

// A prepared key must block every concurrent writer until the decision:
// lock-based transactions through the retained long locks, FCW through
// the prepared table.
func TestPreparedKeyBlocksWriters(t *testing.T) {
	for _, policy := range []ConflictPolicy{FirstUpdaterWins, FirstCommitterWins} {
		e := openPartitioned(t, t.TempDir(), 0, 1, func(o *Options) { o.Conflict = policy })

		setup := e.Begin()
		id, _ := setup.CreateNode([]string{"X"}, nil)
		if err := setup.Commit(); err != nil {
			t.Fatalf("setup commit: %v", err)
		}

		tx := e.Begin()
		if err := tx.SetNodeProp(id, "k", value.Int(1)); err != nil {
			t.Fatalf("stage: %v", err)
		}
		if _, err := tx.Prepare(9, 0, nil); err != nil {
			t.Fatalf("Prepare: %v", err)
		}

		w := e.Begin()
		err := w.SetNodeProp(id, "k", value.Int(2))
		if err == nil {
			err = w.Commit()
		} else {
			w.Abort()
		}
		if !errors.Is(err, ErrWriteConflict) {
			t.Fatalf("policy %v: concurrent write on prepared key: err=%v, want ErrWriteConflict", policy, err)
		}

		if _, _, err := e.DecideTxn(9, true, nil); err != nil {
			t.Fatalf("DecideTxn: %v", err)
		}
		// Guards released: the same write now succeeds.
		w = e.Begin()
		if err := w.SetNodeProp(id, "k", value.Int(3)); err != nil {
			t.Fatalf("policy %v: write after decide: %v", policy, err)
		}
		if err := w.Commit(); err != nil {
			t.Fatalf("policy %v: commit after decide: %v", policy, err)
		}
		e.Close()
	}
}

// A validate-only guard (remote partition's edge endpoint) must pin the
// node alive until the decision.
func TestValidateGuardBlocksDelete(t *testing.T) {
	e := openPartitioned(t, t.TempDir(), 0, 1, nil)
	defer e.Close()

	setup := e.Begin()
	id, _ := setup.CreateNode(nil, nil)
	if err := setup.Commit(); err != nil {
		t.Fatalf("setup: %v", err)
	}

	tx := e.Begin()
	if _, err := tx.Prepare(13, 1, []uint64{id}); err != nil {
		t.Fatalf("validate-only Prepare: %v", err)
	}
	w := e.Begin()
	err := w.DeleteNode(id)
	if err == nil {
		err = w.Commit()
	} else {
		w.Abort()
	}
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("delete of guarded endpoint: err=%v, want ErrWriteConflict", err)
	}
	if _, _, err := e.DecideTxn(13, true, nil); err != nil {
		t.Fatalf("DecideTxn: %v", err)
	}
	w = e.Begin()
	if err := w.DeleteNode(id); err != nil {
		t.Fatalf("delete after decide: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("commit delete after decide: %v", err)
	}
}

// A crash between prepare and decide must leave the transaction in
// doubt after recovery: invisible, guarded, and listed for the resolver;
// the decision then lands exactly once.
func TestPreparedSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	e := openPartitioned(t, dir, 0, 2, nil)

	tx := e.Begin()
	id, err := tx.CreateNode([]string{"Crash"}, nil)
	if err != nil {
		t.Fatalf("CreateNode: %v", err)
	}
	if _, err := tx.Prepare(21, 1, nil); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	e.Crash()

	e = openPartitioned(t, dir, 0, 2, nil)
	defer e.Close()
	doubt := e.InDoubt()
	if len(doubt) != 1 || doubt[0].Gtxn != 21 || doubt[0].CoordPart != 1 {
		t.Fatalf("InDoubt after recovery = %+v", doubt)
	}
	r := e.Begin()
	if _, err := r.GetNode(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("in-doubt node visible after recovery: err=%v", err)
	}
	r.Abort()
	// The in-doubt creation's ID must not be reallocated.
	alloc := e.Begin()
	nid, _ := alloc.CreateNode(nil, nil)
	if nid == id {
		t.Fatalf("in-doubt node ID %d reallocated", id)
	}
	alloc.Abort()
	if _, _, err := e.DecideTxn(21, true, nil); err != nil {
		t.Fatalf("DecideTxn after recovery: %v", err)
	}
	r = e.Begin()
	if _, err := r.GetNode(id); err != nil {
		t.Fatalf("node missing after recovered decide: %v", err)
	}
	r.Abort()
}

// A decided-and-crashed transaction must be fully committed after
// recovery, and the coordinator's unacked participant list must survive.
func TestDecisionSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	e := openPartitioned(t, dir, 0, 2, nil)

	tx := e.Begin()
	id, _ := tx.CreateNode([]string{"Decided"}, nil)
	if _, err := tx.Prepare(33, 0, nil); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, _, err := e.DecideTxn(33, true, []uint32{1}); err != nil {
		t.Fatalf("DecideTxn: %v", err)
	}
	e.Crash()

	e = openPartitioned(t, dir, 0, 2, nil)
	defer e.Close()
	r := e.Begin()
	if _, err := r.GetNode(id); err != nil {
		t.Fatalf("decided node missing after crash: %v", err)
	}
	r.Abort()
	if len(e.InDoubt()) != 0 {
		t.Fatalf("orphaned prepares after recovery: %+v", e.InDoubt())
	}
	und := e.UnackedDecisions()
	if len(und) != 1 || und[0].Gtxn != 33 || !und[0].Commit {
		t.Fatalf("UnackedDecisions after recovery = %+v", und)
	}
	if st := e.TxnStatus(33); st != TxnCommitted {
		t.Fatalf("TxnStatus = %v, want committed", st)
	}
	e.AckDecision(33, 1)
	if len(e.UnackedDecisions()) != 0 {
		t.Fatalf("decision still unacked after AckDecision")
	}
}

// Checkpoints must not truncate the only copy of an in-doubt
// transaction's mutations.
func TestCheckpointRetainsPreparedWAL(t *testing.T) {
	dir := t.TempDir()
	e := openPartitioned(t, dir, 0, 2, nil)

	tx := e.Begin()
	id, _ := tx.CreateNode([]string{"Pinned"}, nil)
	if _, err := tx.Prepare(55, 1, nil); err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	// Unrelated committed traffic plus a checkpoint that would otherwise
	// truncate everything.
	for i := 0; i < 10; i++ {
		w := e.Begin()
		w.CreateNode([]string{"Filler"}, nil)
		if err := w.Commit(); err != nil {
			t.Fatalf("filler commit: %v", err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	e.Crash()

	e = openPartitioned(t, dir, 0, 2, nil)
	defer e.Close()
	if len(e.InDoubt()) != 1 {
		t.Fatalf("in-doubt transaction lost across checkpoint+crash: %+v", e.InDoubt())
	}
	if _, _, err := e.DecideTxn(55, true, nil); err != nil {
		t.Fatalf("DecideTxn: %v", err)
	}
	r := e.Begin()
	if _, err := r.GetNode(id); err != nil {
		t.Fatalf("node missing: %v", err)
	}
	r.Abort()
}
