package repl_test

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"neograph/internal/core"
	"neograph/internal/faultfs"
	"neograph/internal/repl"
	"neograph/internal/value"
)

// This file proves the failover story end to end with deterministic
// fault injection: a primary killed at every WAL crash point, a replica
// promoted in its place, and the invariants that make the pairing safe —
// zero acknowledged-commit loss under synchronous replication, prefix
// consistency under async, and epoch fencing against the dead timeline.

// crashWorkload is the number of committed transactions each crash-matrix
// case attempts. Small enough to keep the matrix fast, large enough that
// every commit-path WAL op (append header, append payload, group-commit
// fsync) recurs at several log positions.
const crashWorkload = 8

// tryCommitNode is commitNode without the fatal-on-error: crash cases
// expect the tail of the workload to fail.
func tryCommitNode(e *core.Engine, label string, v int64) (uint64, uint64, error) {
	tx := e.Begin()
	id, err := tx.CreateNode([]string{label}, value.Map{"v": value.Int(v)})
	if err != nil {
		tx.Abort()
		return 0, 0, err
	}
	if err := tx.Commit(); err != nil {
		return 0, 0, err
	}
	return id, tx.CommitLSN(), nil
}

// recordCrashPoints runs the crash-matrix workload against an injector
// with no fault armed and returns the per-point hit counts — the
// registry the matrix enumerates. No replica is attached: the WAL
// write/sync schedule is a function of the commit sequence alone.
func recordCrashPoints(t *testing.T) map[string]int {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	e, err := core.Open(core.Options{Dir: t.TempDir(), FS: inj, WALSegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < crashWorkload; i++ {
		if _, _, err := tryCommitNode(e, "W", int64(i)); err != nil {
			t.Fatalf("recording commit %d: %v", i, err)
		}
	}
	counts := inj.Counts()
	if err := e.Crash(); err != nil {
		t.Fatal(err)
	}
	return counts
}

// runCrashCase kills the primary with the given fault mid-workload,
// promotes its replica, and asserts the loss invariant for the
// replication mode: with syncReplicas=1 every acknowledged commit must
// survive promotion; in async mode the replica must hold a prefix of the
// committed sequence. Finally the promoted node must accept writes at a
// bumped epoch.
func runCrashCase(t *testing.T, fault faultfs.Fault, syncReplicas int) {
	t.Helper()
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	inj.Arm(fault)

	primary, err := core.Open(core.Options{Dir: t.TempDir(), FS: inj, WALSegmentSize: 2048})
	if err != nil {
		// Early crash points fire inside Open itself (e.g. recovery's
		// pre-replay sync): the primary never comes up, so nothing was
		// acknowledged and there is nothing to lose — but the failure must
		// be the injected crash, not a latent bug.
		if errors.Is(err, faultfs.ErrCrashed) {
			return
		}
		t.Fatalf("open primary: %v", err)
	}
	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{
		HeartbeatEvery: 5 * time.Millisecond,
		SyncReplicas:   syncReplicas,
		// Never degrade: an acknowledged commit must mean "on the replica"
		// for the zero-loss assertion to be meaningful.
		SyncTimeout: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	replica := openReplica(t, t.TempDir())
	applier := fastApplier(t, replica, ship.Addr())

	// Workload: sequential commits until the injected crash kills the
	// primary (or the workload completes, for faults scheduled past it).
	type ackedCommit struct {
		id uint64
		v  int64
	}
	var acked []ackedCommit
	for i := 0; i < crashWorkload; i++ {
		id, _, err := tryCommitNode(primary, "W", int64(i))
		if err != nil {
			break
		}
		acked = append(acked, ackedCommit{id, int64(i)})
	}

	// Kill whatever is left of the primary and promote the replica.
	ship.Close()
	primary.Crash() // teardown of a crashed engine; errors expected

	applier.Close()
	if err := replica.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}

	// Loss accounting.
	tx := replica.Begin()
	defer tx.Abort()
	ids, err := tx.NodesByLabel("W")
	if err != nil {
		t.Fatal(err)
	}
	var have []int64
	for _, id := range ids {
		n, err := tx.GetNode(id)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := n.Props["v"].AsInt()
		have = append(have, v)
	}
	sort.Slice(have, func(i, j int) bool { return have[i] < have[j] })
	// Prefix consistency in every mode: the replica's workload state must
	// be exactly the first M commits for some M.
	for i, v := range have {
		if v != int64(i) {
			t.Fatalf("replica state is not a commit prefix: %v", have)
		}
	}
	if syncReplicas > 0 {
		// Zero acknowledged-commit loss: the quorum held every Commit()
		// that returned nil until the replica durably acked it.
		if len(have) < len(acked) {
			t.Fatalf("sync mode lost acknowledged commits: acked %d, replica has %d (%v)",
				len(acked), len(have), have)
		}
		for _, ac := range acked {
			if _, err := tx.GetNode(ac.id); err != nil {
				t.Fatalf("acked node %d (v=%d) lost after promotion: %v", ac.id, ac.v, err)
			}
		}
	}

	// The promoted node is a writable primary on the next epoch.
	if epoch, _ := replica.Epoch(); epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	if replica.IsReplica() {
		t.Fatal("promoted engine still reports replica mode")
	}
	if _, _, err := tryCommitNode(replica, "PostPromote", 1); err != nil {
		t.Fatalf("promoted node rejects writes: %v", err)
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMatrixPromotion is the crash matrix of the issue: a recording
// pass registers every WAL crash point the workload passes through, and
// the primary is then killed once at each (point, hit) — write points
// alternating clean-kill and torn-write modes, fsync points as kills —
// always under SyncReplicas=1, asserting zero acknowledged-commit loss
// across kill -> promote.
func TestCrashMatrixPromotion(t *testing.T) {
	counts := recordCrashPoints(t)
	writes, syncs := counts["wal.write"], counts["wal.sync"]
	if writes < crashWorkload || syncs < crashWorkload { // a record is one write: header and payload leave together
		t.Fatalf("crash-point registry too small: %v", counts)
	}
	for hit := 1; hit <= writes; hit++ {
		fault := faultfs.Fault{Point: "wal.write", Hit: hit, Mode: faultfs.ModeCrash}
		name := fmt.Sprintf("write-%d-kill", hit)
		if hit%2 == 0 {
			// Torn variant: half the frame reaches the disk. The torn tail
			// must never be acknowledged or shipped.
			fault.Mode, fault.TornBytes = faultfs.ModeTornWrite, -1
			name = fmt.Sprintf("write-%d-torn", hit)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runCrashCase(t, fault, 1)
		})
	}
	for hit := 1; hit <= syncs; hit++ {
		fault := faultfs.Fault{Point: "wal.sync", Hit: hit, Mode: faultfs.ModeCrash}
		t.Run(fmt.Sprintf("sync-%d-kill", hit), func(t *testing.T) {
			t.Parallel()
			runCrashCase(t, fault, 1)
		})
	}
}

// TestCrashMatrixAsyncPrefix samples the same matrix in async mode
// (SyncReplicas=0): acknowledged commits may be lost, but the replica
// must still promote to a clean prefix of the primary's history.
func TestCrashMatrixAsyncPrefix(t *testing.T) {
	counts := recordCrashPoints(t)
	for _, fault := range []faultfs.Fault{
		{Point: "wal.write", Hit: counts["wal.write"] / 2, Mode: faultfs.ModeTornWrite, TornBytes: -1},
		{Point: "wal.write", Hit: counts["wal.write"] - 1, Mode: faultfs.ModeCrash},
		{Point: "wal.sync", Hit: counts["wal.sync"] / 2, Mode: faultfs.ModeCrash},
	} {
		fault := fault
		t.Run(fmt.Sprintf("%s-%d", fault.Point, fault.Hit), func(t *testing.T) {
			t.Parallel()
			runCrashCase(t, fault, 0)
		})
	}
}

// TestPromotionBasic: promote a converged replica after a clean primary
// death, and prove the promotion survives a restart (epoch and data are
// persistent, and the node reopens as a primary).
func TestPromotionBasic(t *testing.T) {
	primary := openPrimary(t, t.TempDir())
	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rdir := t.TempDir()
	replica := openReplica(t, rdir)
	applier := fastApplier(t, replica, ship.Addr())
	for i := 0; i < 50; i++ {
		commitNode(t, primary, "Pre", int64(i))
	}
	waitConverged(t, applier, primary)

	// Promote on a live replica must be refused until the applier stops;
	// on a non-replica it must be refused outright.
	if err := primary.Promote(); !errors.Is(err, core.ErrNotReplica) {
		t.Fatalf("promote of a primary err = %v, want ErrNotReplica", err)
	}

	ship.Close()
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	applier.Close()
	if err := replica.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := replica.Promote(); !errors.Is(err, core.ErrNotReplica) {
		t.Fatalf("second promote err = %v, want ErrNotReplica", err)
	}
	if got := countLabel(t, replica, "Pre"); got != 50 {
		t.Fatalf("promoted node has %d Pre nodes, want 50", got)
	}
	commitNode(t, replica, "Post", 1)
	if epoch, _ := replica.Epoch(); epoch != 2 {
		t.Fatalf("epoch = %d, want 2", epoch)
	}

	// Restart: the epoch file and data survive, and the node comes back
	// as a writable primary.
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := core.Open(core.Options{Dir: rdir, WALSegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if epoch, _ := reopened.Epoch(); epoch != 2 {
		t.Fatalf("epoch after restart = %d, want 2", epoch)
	}
	if got := countLabel(t, reopened, "Post"); got != 1 {
		t.Fatalf("post-promotion commit lost across restart: %d", got)
	}
	commitNode(t, reopened, "Post", 2)
}

// TestDivergenceRejected is the satellite divergence scenario: the old
// primary dies holding commits it never shipped, the replica is
// promoted, and the demoted primary's attempts to rejoin — in either
// role — are refused by the epoch checks rather than silently applied.
func TestDivergenceRejected(t *testing.T) {
	pdir := t.TempDir()
	primary := openPrimary(t, pdir)
	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	replica := openReplica(t, t.TempDir())
	applier := fastApplier(t, replica, ship.Addr())
	for i := 0; i < 20; i++ {
		commitNode(t, primary, "Shared", int64(i))
	}
	waitConverged(t, applier, primary)

	// The primary keeps committing after shipping stops: these records
	// exist only on its timeline.
	ship.Close()
	for i := 0; i < 5; i++ {
		commitNode(t, primary, "Diverged", int64(i))
	}
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}

	// Failover.
	applier.Close()
	if err := replica.Promote(); err != nil {
		t.Fatal(err)
	}
	ship2, err := repl.NewShipper(replica, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ship2.Close()
	baseline := countLabel(t, replica, "Shared")

	// The demoted primary restarts as a replica of the promoted node. Its
	// log runs past the fork point, so the promoted node must refuse it.
	old, err := core.Open(core.Options{Dir: pdir, Replica: true, WALSegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	oldApplied := old.AppliedLSN()
	oldApplier := fastApplier(t, old, ship2.Addr())
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := oldApplier.Status()
		if strings.Contains(st.LastError, "diverged") && strings.Contains(st.LastError, "re-seed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no divergence rejection; status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := old.AppliedLSN(); got != oldApplied {
		t.Fatalf("demoted primary applied %d bytes from the new timeline", got-oldApplied)
	}
	if got := countLabel(t, old, "Diverged"); got != 5 {
		t.Fatalf("demoted primary's local state changed: %d Diverged nodes", got)
	}
	oldApplier.Close()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	// And the reverse pairing: a node that has seen epoch 2 pointed at a
	// stale epoch-1 primary must refuse the stream.
	stale, err := core.Open(core.Options{Dir: pdir, WALSegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer stale.Close()
	staleShip, err := repl.NewShipper(stale, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer staleShip.Close()
	follower := openReplica(t, t.TempDir())
	defer follower.Close()
	fApplier := fastApplier(t, follower, ship2.Addr())
	waitConverged(t, fApplier, replica) // adopts epoch 2
	fApplier.Close()
	if epoch, _ := follower.Epoch(); epoch != 2 {
		t.Fatalf("follower epoch = %d, want 2", epoch)
	}
	fApplier2 := fastApplier(t, follower, staleShip.Addr())
	defer fApplier2.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		st := fApplier2.Status()
		if strings.Contains(st.LastError, "stale") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no stale-primary rejection; status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Promoted node's state never moved.
	if got := countLabel(t, replica, "Shared"); got != baseline {
		t.Fatalf("promoted node's state changed: %d", got)
	}
	if got := countLabel(t, replica, "Diverged"); got != 0 {
		t.Fatalf("diverged commits leaked onto the new timeline: %d", got)
	}
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDoublePromotionFencesOldTimeline: fencing must remember EVERY
// fork point, not just the newest. A node diverged before the first
// promotion tries to rejoin after a second promotion — its log end sits
// below the newest fork point, so a latest-fork-only check would wave
// it through and silently merge a timeline dead for two generations.
func TestDoublePromotionFencesOldTimeline(t *testing.T) {
	adir := t.TempDir()
	nodeA := openPrimary(t, adir)
	shipA, err := repl.NewShipper(nodeA, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	nodeB := openReplica(t, t.TempDir())
	applierB := fastApplier(t, nodeB, shipA.Addr())
	for i := 0; i < 10; i++ {
		commitNode(t, nodeA, "Shared", int64(i))
	}
	waitConverged(t, applierB, nodeA)

	// A diverges past the coming fork point, then dies.
	shipA.Close()
	for i := 0; i < 3; i++ {
		commitNode(t, nodeA, "DeadTimeline", int64(i))
	}
	if err := nodeA.Crash(); err != nil {
		t.Fatal(err)
	}

	// First promotion: B becomes epoch 2 and grows the log well past A's
	// end, then hands off to C via a second promotion (epoch 3).
	applierB.Close()
	if err := nodeB.Promote(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		commitNode(t, nodeB, "Epoch2", int64(i))
	}
	shipB, err := repl.NewShipper(nodeB, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	nodeC := openReplica(t, t.TempDir())
	applierC := fastApplier(t, nodeC, shipB.Addr())
	waitConverged(t, applierC, nodeB)
	applierC.Close()
	shipB.Close()
	if err := nodeB.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodeC.Promote(); err != nil {
		t.Fatal(err)
	}
	if epoch, _ := nodeC.Epoch(); epoch != 3 {
		t.Fatalf("nodeC epoch = %d, want 3", epoch)
	}
	shipC, err := repl.NewShipper(nodeC, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer shipC.Close()

	// A rejoins C. Its log end is far below C's epoch-3 fork point but
	// past the epoch-2 one — the history check must refuse it.
	oldA, err := core.Open(core.Options{Dir: adir, Replica: true, WALSegmentSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer oldA.Close()
	applied := oldA.AppliedLSN()
	applierA := fastApplier(t, oldA, shipC.Addr())
	defer applierA.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := applierA.Status()
		if strings.Contains(st.LastError, "diverged") && strings.Contains(st.LastError, "epoch-2 fork point") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("old timeline not fenced after double promotion; status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := oldA.AppliedLSN(); got != applied {
		t.Fatalf("dead-timeline node applied %d bytes from epoch 3", got-applied)
	}
	if err := nodeC.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReconnectConvergesAfterPromotion: a surviving replica keeps
// retrying the dead primary's replication address with capped, jittered
// backoff; when the promoted node starts shipping on that same address,
// the replica reconnects, adopts the new epoch and converges.
func TestReconnectConvergesAfterPromotion(t *testing.T) {
	primary := openPrimary(t, t.TempDir())
	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	addr := ship.Addr()

	candidate := openReplica(t, t.TempDir())
	candApplier := fastApplier(t, candidate, addr)
	survivor := openReplica(t, t.TempDir())
	defer survivor.Close()
	survApplier := fastApplier(t, survivor, addr)
	defer survApplier.Close()

	for i := 0; i < 30; i++ {
		commitNode(t, primary, "Pre", int64(i))
	}
	waitConverged(t, candApplier, primary)
	waitConverged(t, survApplier, primary)

	// Primary dies; the survivor's applier now spins against a dead
	// address with backoff.
	ship.Close()
	if err := primary.Crash(); err != nil {
		t.Fatal(err)
	}
	candApplier.Close()
	if err := candidate.Promote(); err != nil {
		t.Fatal(err)
	}
	// Give the survivor time to fail into its backoff loop, then start
	// shipping from the promoted node on the very same address.
	time.Sleep(50 * time.Millisecond)
	ship2, err := repl.NewShipper(candidate, addr, repl.ShipperOptions{HeartbeatEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ship2.Close()

	commitNode(t, candidate, "Post", 1)
	waitConverged(t, survApplier, candidate)
	if got := countLabel(t, survivor, "Post"); got != 1 {
		t.Fatalf("survivor missed post-failover commit: %d", got)
	}
	if got := countLabel(t, survivor, "Pre"); got != 30 {
		t.Fatalf("survivor lost history: %d", got)
	}
	if epoch, _ := survivor.Epoch(); epoch != 2 {
		t.Fatalf("survivor epoch = %d, want 2 after reconnecting to the promoted node", epoch)
	}
	if err := candidate.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncReplicasQuorumAndDegrade: with SyncReplicas=1 and no replica,
// commits degrade to async after the timeout (and are counted); with a
// connected replica the quorum ack means the write is readable on the
// replica the moment Commit returns.
func TestSyncReplicasQuorumAndDegrade(t *testing.T) {
	primary := openPrimary(t, t.TempDir())
	defer primary.Close()
	ship, err := repl.NewShipper(primary, "127.0.0.1:0", repl.ShipperOptions{
		HeartbeatEvery: 5 * time.Millisecond,
		SyncReplicas:   1,
		SyncTimeout:    150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ship.Close()

	// No replica: the commit must still be acknowledged, after roughly
	// the degrade window, and counted.
	t0 := time.Now()
	commitNode(t, primary, "Degraded", 1)
	if d := time.Since(t0); d < 100*time.Millisecond {
		t.Fatalf("degraded commit returned after %v, want >= ~150ms wait", d)
	}
	if got := ship.Degraded(); got != 1 {
		t.Fatalf("Degraded() = %d, want 1", got)
	}

	// A connection that only handshakes — claiming the caught-up position
	// but never sending a durable ack — must not vote: the handshake
	// position is the replica's applied-but-possibly-unsynced log end.
	conn, err := net.Dial("tcp", ship.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeRawHandshake(conn, primary.DurableLSN()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the shipper register it
	commitNode(t, primary, "Degraded", 2)
	if got := ship.Degraded(); got != 2 {
		t.Fatalf("handshake-only connection satisfied the quorum: Degraded() = %d, want 2", got)
	}
	conn.Close()

	// With a caught-up replica the quorum assembles and the committed
	// write is immediately readable there — no WaitApplied needed.
	replica := openReplica(t, t.TempDir())
	defer replica.Close()
	applier := fastApplier(t, replica, ship.Addr())
	defer applier.Close()
	waitConverged(t, applier, primary)
	for i := 0; i < 10; i++ {
		id, _, err := tryCommitNode(primary, "Quorum", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		tx := replica.Begin()
		if _, err := tx.GetNode(id); err != nil {
			t.Fatalf("commit %d acked but not on replica: %v", i, err)
		}
		tx.Abort()
	}
	if got := ship.Degraded(); got != 2 {
		t.Fatalf("quorum commits degraded: Degraded() = %d, want still 2", got)
	}
}
