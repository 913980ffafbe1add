package core

import (
	"errors"
	"reflect"
	"testing"

	"neograph/internal/faultfs"
	"neograph/internal/lock"
	"neograph/internal/value"
)

// followLog feeds replica everything primary has logged that it lacks.
func followLog(t *testing.T, primary, replica *Engine) {
	t.Helper()
	err := primary.WAL().ReadRange(replica.AppliedLSN(), primary.AppliedLSN(), func(lsn uint64, payload []byte) error {
		return replica.ApplyReplicated(lsn, append([]byte(nil), payload...))
	})
	if err != nil {
		t.Fatalf("shipping the log: %v", err)
	}
}

// nodeAs reads node id as a fresh transaction of e sees it.
func nodeAs(t *testing.T, e *Engine, id uint64) (NodeSnapshot, error) {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	return tx.GetNode(id)
}

// A write to the log that fails half way (a full disk) aborts its commit
// and nothing else: the next commit is acknowledged at the position the
// log reports, survives a crash, and a reader of the durable range — the
// replication shipper — never meets the failed record's stray bytes.
// (Before the log rewound its segment, the next record sat behind them at
// an LSN that was not its offset, and the reopen cut the log there.)
func TestFailedAppendAbortsOnlyItsCommit(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	e := diskEngine(t, dir, func(o *Options) { o.FS = inj })
	replica := diskEngine(t, t.TempDir(), func(o *Options) { o.Replica = true })
	defer replica.Close()
	first := seedNode(t, e, []string{"First"}, nil)

	inj.Arm(faultfs.Fault{Point: "wal.write", Hit: 1, Mode: faultfs.ModeWriteFail, TornBytes: -1})
	tx := e.Begin()
	lost, err := tx.CreateNode([]string{"Second"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, faultfs.ErrWriteFailed) {
		t.Fatalf("Commit over a failing log write: %v, want the write's error", err)
	}
	if _, err := nodeAs(t, e, lost); !errors.Is(err, ErrNotFound) {
		t.Fatalf("the failed commit's node: %v, want ErrNotFound", err)
	}
	if got := e.WAL().AppendFailures(); got != 1 {
		t.Fatalf("AppendFailures = %d, want 1", got)
	}

	third := seedNode(t, e, []string{"Third"}, nil) // acknowledged: fsynced by group commit
	followLog(t, e, replica)
	for _, id := range []uint64{first, third} {
		if _, err := nodeAs(t, replica, id); err != nil {
			t.Errorf("replica: node %d: %v", id, err)
		}
	}
	e.Crash()
	e = diskEngine(t, dir)
	defer e.Close()
	for _, id := range []uint64{first, third} {
		if _, err := nodeAs(t, e, id); err != nil {
			t.Errorf("after crash and reopen: acknowledged node %d: %v", id, err)
		}
	}
}

// The first edge a delta log must pin: a change to an entity that is not
// there. The entity was deleted, a checkpoint persisted the tombstone and
// the collector reaped it — record and all — while a prepared transaction
// kept the log from being truncated; the crash that follows replays the
// entity's update and its delete over a store that has forgotten it. They
// replay as nothing: no version to patch, none to install, the ID stays
// free for its next owner.
func TestRedoOfAChangeToAReapedEntity(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	pin := seedNode(t, e, []string{"Pin"}, nil)
	victim := seedNode(t, e, []string{"Victim"}, value.Map{"v": value.Int(1)})
	if err := e.Checkpoint(); err != nil { // the creations leave the log
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := tx.SetNodeProp(pin, "held", value.Bool(true)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Prepare(1, 1, nil); err != nil { // in doubt: pins the log from here on
		t.Fatal(err)
	}
	tx = e.Begin()
	if err := tx.SetNodeProp(victim, "v", value.Int(2)); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	tx = e.Begin()
	if err := tx.DeleteNode(victim); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := e.Checkpoint(); err != nil { // persists the tombstone, truncates nothing
		t.Fatal(err)
	}
	if rep := e.RunGC(); rep.EntitiesDead != 1 {
		t.Fatalf("the collector reaped %d entities, want the victim", rep.EntitiesDead)
	}
	if err := e.Checkpoint(); err != nil { // flushes the removal; the log stays pinned
		t.Fatal(err)
	}
	e.Crash()

	e = diskEngine(t, dir)
	defer e.Close()
	if d := e.InDoubt(); len(d) != 1 {
		t.Fatalf("InDoubt = %+v: the test needs the log to have been pinned", d)
	}
	if o := e.getObject(entKey{lock.KindNode, victim}); o != nil {
		t.Fatalf("the replay brought node %d back into the cache (head %+v)", victim, o.chain.Head())
	}
	if _, err := nodeAs(t, e, victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("reaped node %d: %v", victim, err)
	}
	checkAllocators(t, "recovered", e)
	heir := seedNode(t, e, []string{"Heir"}, value.Map{"v": value.Int(3)})
	if heir != victim {
		t.Fatalf("the reaped ID %d is not free after recovery (the next node got %d)", victim, heir)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
}

// The second edge: a property list may hold an explicit Null (a creation
// keeps what its map holds), so a delta marks a removed key with a mark of
// its own — and a redo tells "now Null" from "gone".
func TestRedoKeepsNullApartFromRemoved(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	replica := diskEngine(t, t.TempDir(), func(o *Options) { o.Replica = true })
	defer replica.Close()
	id := seedNode(t, e, nil, value.Map{"null": value.Null, "goes": value.Null, "stays": value.Int(1)})
	tx := e.Begin()
	if err := tx.RemoveNodeProp(id, "goes"); err != nil {
		t.Fatal(err)
	}
	if err := tx.SetNodeProps(id, value.Map{"stays": value.Int(2), "absent": value.Null}); err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	want := value.Map{"null": value.Null, "stays": value.Int(2)}

	followLog(t, e, replica)
	e.Crash()
	e = diskEngine(t, dir)
	defer e.Close()
	for who, eng := range map[string]*Engine{"recovered": e, "replica": replica} {
		n, err := nodeAs(t, eng, id)
		if err != nil || !reflect.DeepEqual(n.Props, want) {
			t.Errorf("%s: props = %v, %v; want %v", who, n.Props, err, want)
		}
	}
}

// An ID the collector freed and a later commit re-used, all since the
// store's last flush: the crash loses the removal, so a recovery finds
// the previous owner's record — a live image, the tombstone never having
// been checkpointed — under a log that re-creates the ID. The store must
// take the new owner over the old (it used to refuse every checkpoint
// from then on: "endpoints changed on rewrite"), and an endpoint of the
// old relationship must still be removable.
func TestRecycledIDOverAStaleRecord(t *testing.T) {
	dir := t.TempDir()
	e := diskEngine(t, dir)
	a, b, c := seedNode(t, e, nil, nil), seedNode(t, e, nil, nil), seedNode(t, e, nil, nil)
	tx := e.Begin()
	old, err := tx.CreateRel("OLD", a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = e.Begin()
	if err := tx.DetachDeleteNode(a); err != nil { // deletes the relationship with it
		t.Fatal(err)
	}
	mustCommit(t, tx)
	e.RunGC() // reaps both; the removals stay in the store's cache
	tx = e.Begin()
	heir, err := tx.CreateRel("NEW", b, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tx)
	if heir != old {
		t.Fatalf("relationship ID %d was not handed out again (got %d): the test needs it to be", old, heir)
	}
	e.Crash()

	e = diskEngine(t, dir)
	defer e.Close()
	e.RunGC() // node a's tombstone: its record is still chained to the old relationship's
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	tx = e.Begin()
	defer tx.Abort()
	if r, err := tx.GetRel(heir); err != nil || r.Type != "NEW" || r.Start != b || r.End != c {
		t.Fatalf("relationship %d = %+v, %v", heir, r, err)
	}
	if _, err := tx.GetNode(a); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted node %d: %v", a, err)
	}
	if _, err := e.store.GetNode(a); err == nil {
		t.Errorf("the store still holds deleted node %d: a restart would bring it back", a)
	}
	checkAllocators(t, "recovered", e)
}
