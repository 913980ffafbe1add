// 2PC crash matrix: a cross-partition commit is interrupted by process
// crashes at every point of the protocol — participant prepared,
// coordinator prepared, decision logged, decision pushed, decision
// acked — with the coordinator, the participant, or the whole fleet
// dying. After restart the real recovery machinery (WAL replay +
// Coordinator.ResolveInDoubt / RepushDecisions over live TCP) must
// converge to: every acknowledged commit durable on ALL partitions,
// every unacknowledged transaction atomically absent, and no prepared
// transaction left orphaned.
package server_test

import (
	"testing"
	"time"

	"neograph"
	"neograph/internal/fleet"
	"neograph/internal/partition"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// crashFleet is a 2-partition fleet whose nodes can crash (WAL kept,
// caches dropped) and reopen on fresh ports, with every coordinator
// adopting the re-versioned topology. The coordinators' background
// recovery loops never run (see idleCoordinator) — the matrix drives
// recovery passes explicitly so every interleaving is deterministic.
type crashFleet struct {
	t       *testing.T
	nodes   []*fleet.Node
	version uint64 // of the partition map last adopted
}

func startCrashFleet(t *testing.T) *crashFleet {
	t.Helper()
	fl, err := fleet.Start(fleet.Spec{Partitions: 2, DB: neograph.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	f := &crashFleet{t: t, version: fl.PartitionMap().Version}
	for _, g := range fl.Groups {
		idleCoordinator(g[0])
		f.nodes = append(f.nodes, g[0])
	}
	t.Cleanup(func() {
		for _, n := range f.nodes {
			n.Close() // restarted nodes are not in fl.Groups
		}
		fl.Close()
	})
	return f
}

// idleCoordinator replaces n's coordinator with one that was never
// started: same topology, no background passes. (A closed coordinator has
// closed its sessions and reaches nobody.)
func idleCoordinator(n *fleet.Node) {
	n.Coord.Close()
	part := uint32(n.Config.DB.PartitionID)
	n.Coord = partition.NewCoordinator(part, n.Topo, n.Srv.Local(), n.DB.AppliedLSN(), nil)
	n.Srv.SetPartition(n.Coord, part, n.Topo.Count())
}

// crash kills partition part the hard way: coordinator and server torn
// down, database crashed without flushing.
func (f *crashFleet) crash(part int) {
	f.t.Helper()
	if err := f.nodes[part].Crash(); err != nil {
		f.t.Fatalf("crash partition %d: %v", part, err)
	}
}

// reopen restarts a crashed partition from what its WAL holds, on a fresh
// port (the old one may have been taken since), and hands every node a
// newer map naming it — that is how a real fleet learns a restarted
// peer's address. A node still down keeps its stale entry until its own
// reopen.
func (f *crashFleet) reopen(part int) {
	f.t.Helper()
	cfg := f.nodes[part].Config
	cfg.Addr = ""
	n, err := fleet.StartNode(cfg)
	if err != nil {
		f.t.Fatalf("reopen partition %d: %v", part, err)
	}
	idleCoordinator(n)
	f.nodes[part] = n
	f.version++
	pm := wire.PartitionMap{Version: f.version, Count: len(f.nodes)}
	for p, nd := range f.nodes {
		pm.Groups = append(pm.Groups, wire.PartitionGroup{ID: uint32(p), Addrs: []string{nd.Addr()}})
	}
	for _, nd := range f.nodes {
		nd.Topo.Adopt(&pm)
	}
}

// recoverAll drives resolver and repusher passes on every node until no
// partition holds an in-doubt prepare or an unacknowledged decision.
func (f *crashFleet) recoverAll() {
	f.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		clean := true
		for _, n := range f.nodes {
			n.Coord.ResolveInDoubt()
			n.Coord.RepushDecisions()
		}
		for _, n := range f.nodes {
			if len(n.DB.InDoubt()) > 0 || len(n.DB.Engine().UnackedDecisions()) > 0 {
				clean = false
			}
		}
		if clean {
			return
		}
		if time.Now().After(deadline) {
			for part, n := range f.nodes {
				f.t.Logf("partition %d: in-doubt %v, unacked %v", part, n.DB.InDoubt(), n.DB.Engine().UnackedDecisions())
			}
			f.t.Fatal("recovery did not converge: orphaned prepares or unacked decisions remain")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// newAnchor commits one node on partition part and returns its ID.
func (f *crashFleet) newAnchor(part int) neograph.NodeID {
	f.t.Helper()
	tx := f.nodes[part].DB.Begin()
	id, err := tx.CreateNode([]string{"Anchor"}, nil)
	if err != nil {
		f.t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		f.t.Fatal(err)
	}
	if id%uint64(len(f.nodes)) != uint64(part) {
		f.t.Fatalf("anchor %d allocated off-partition (partition %d)", id, part)
	}
	return id
}

// hasProp reports whether the node carries the marker property.
func (f *crashFleet) hasProp(part int, id neograph.NodeID) bool {
	f.t.Helper()
	tx := f.nodes[part].DB.Begin()
	defer tx.Abort()
	n, err := tx.GetNode(id)
	if err != nil {
		f.t.Fatalf("partition %d node %d: %v", part, id, err)
	}
	_, ok := n.Props["x"]
	return ok
}

func markerOp(id neograph.NodeID) wire.Request {
	return wire.Request{Op: wire.OpSetNodeProp, ID: id, Key: "x", Value: value.EncodeValue(neograph.Int(1))}
}

// twopcStep is one point in the cross-partition commit protocol. The
// transaction counts as ACKNOWLEDGED to the client from stepDecided on:
// the coordinator's durable decision record is the commit point.
type twopcStep int

const (
	stepParticipantPrepared twopcStep = iota // participant holds 'P'
	stepAllPrepared                          // coordinator holds 'P' too
	stepDecided                              // coordinator logged 'D' commit — ACKED
	stepPushed                               // participant applied the decision
	stepAcked                                // coordinator logged 'E'
)

// runUpTo drives the scripted 2PC for marker writes on both anchors up
// to and including step, exactly as Coordinator.CommitBatch orders it.
func (f *crashFleet) runUpTo(step twopcStep, gtxn uint64, a0, a1 neograph.NodeID) {
	f.t.Helper()
	must := func(resp *wire.Response) {
		f.t.Helper()
		if !resp.OK {
			f.t.Fatalf("2PC step failed: %s", resp.Error)
		}
	}
	must(f.nodes[1].Srv.Local().PrepareBatch(gtxn, 0, []wire.Request{markerOp(a1)}, nil))
	if step < stepAllPrepared {
		return
	}
	must(f.nodes[0].Srv.Local().PrepareBatch(gtxn, 0, []wire.Request{markerOp(a0)}, nil))
	if step < stepDecided {
		return
	}
	if _, _, err := f.nodes[0].DB.Engine().DecideTxn(gtxn, true, []uint32{0, 1}); err != nil {
		f.t.Fatal(err)
	}
	if step < stepPushed {
		return
	}
	if _, _, err := f.nodes[1].DB.Engine().DecideTxn(gtxn, true, nil); err != nil {
		f.t.Fatal(err)
	}
	if step < stepAcked {
		return
	}
	f.nodes[0].DB.Engine().AckDecision(gtxn, 0)
	f.nodes[0].DB.Engine().AckDecision(gtxn, 1)
}

// assertOutcome checks the matrix invariants: an acked transaction is
// committed on every partition, an unacked one on none, and nobody
// holds an in-doubt prepare.
func (f *crashFleet) assertOutcome(acked bool, a0, a1 neograph.NodeID) {
	f.t.Helper()
	for part, id := range []neograph.NodeID{a0, a1} {
		if got := f.hasProp(part, id); got != acked {
			f.t.Errorf("partition %d: marker present=%v, want %v (acked=%v)", part, got, acked, acked)
		}
	}
	if f.hasProp(0, a0) != f.hasProp(1, a1) {
		f.t.Error("atomicity violated: partitions disagree on the transaction outcome")
	}
	for part, n := range f.nodes {
		if d := n.DB.InDoubt(); len(d) != 0 {
			f.t.Errorf("partition %d: orphaned prepares %v", part, d)
		}
	}
}

// TestTwoPCCrashMatrix crashes the whole fleet at every protocol step.
func TestTwoPCCrashMatrix(t *testing.T) {
	steps := []struct {
		name  string
		step  twopcStep
		acked bool
	}{
		{"participant-prepared", stepParticipantPrepared, false},
		{"all-prepared", stepAllPrepared, false},
		{"decided", stepDecided, true},
		{"pushed", stepPushed, true},
		{"acked", stepAcked, true},
	}
	for i, s := range steps {
		s := s
		gtxn := uint64(1000 + i)
		t.Run(s.name, func(t *testing.T) {
			f := startCrashFleet(t)
			a0, a1 := f.newAnchor(0), f.newAnchor(1)
			f.runUpTo(s.step, gtxn, a0, a1)
			f.crash(0)
			f.crash(1)
			f.reopen(0)
			f.reopen(1)
			f.recoverAll()
			f.assertOutcome(s.acked, a0, a1)
		})
	}
}

// TestTwoPCCrashMatrixCoordinatorOnly crashes only the coordinator; the
// participant resolves through txn_status against the restarted one.
func TestTwoPCCrashMatrixCoordinatorOnly(t *testing.T) {
	steps := []struct {
		name  string
		step  twopcStep
		acked bool
	}{
		{"all-prepared", stepAllPrepared, false}, // no decision → presumed abort
		{"decided", stepDecided, true},           // durable 'D' → participant learns commit
	}
	for i, s := range steps {
		s := s
		gtxn := uint64(2000 + i)
		t.Run(s.name, func(t *testing.T) {
			f := startCrashFleet(t)
			a0, a1 := f.newAnchor(0), f.newAnchor(1)
			f.runUpTo(s.step, gtxn, a0, a1)
			f.crash(0)
			f.reopen(0)
			f.recoverAll()
			f.assertOutcome(s.acked, a0, a1)
		})
	}
}

// TestTwoPCCrashMatrixParticipantOnly crashes only the participant; the
// live coordinator repushes its durable decision to the restarted one.
func TestTwoPCCrashMatrixParticipantOnly(t *testing.T) {
	steps := []struct {
		name  string
		step  twopcStep
		acked bool
	}{
		{"participant-prepared", stepParticipantPrepared, false},
		{"decided", stepDecided, true},
		{"pushed", stepPushed, true},
	}
	for i, s := range steps {
		s := s
		gtxn := uint64(3000 + i)
		t.Run(s.name, func(t *testing.T) {
			f := startCrashFleet(t)
			a0, a1 := f.newAnchor(0), f.newAnchor(1)
			f.runUpTo(s.step, gtxn, a0, a1)
			f.crash(1)
			f.reopen(1)
			f.recoverAll()
			f.assertOutcome(s.acked, a0, a1)
		})
	}
}

// TestTwoPCCrashAbortDecision: an explicit abort decision also survives
// a fleet crash — the participant must not commit a transaction the
// coordinator durably aborted.
func TestTwoPCCrashAbortDecision(t *testing.T) {
	f := startCrashFleet(t)
	a0, a1 := f.newAnchor(0), f.newAnchor(1)
	const gtxn = 4000
	f.runUpTo(stepAllPrepared, gtxn, a0, a1)
	if _, _, err := f.nodes[0].DB.Engine().DecideTxn(gtxn, false, nil); err != nil {
		t.Fatal(err)
	}
	f.crash(0)
	f.crash(1)
	f.reopen(0)
	f.reopen(1)
	f.recoverAll()
	f.assertOutcome(false, a0, a1)
}

// TestTwoPCRecoveredPreparedBlocksWriters: an in-doubt prepare that
// survived a crash still holds its locks until resolved — a conflicting
// writer is refused, not silently interleaved.
func TestTwoPCRecoveredPreparedBlocksWriters(t *testing.T) {
	f := startCrashFleet(t)
	a0, a1 := f.newAnchor(0), f.newAnchor(1)
	const gtxn = 5000
	f.runUpTo(stepAllPrepared, gtxn, a0, a1)
	f.crash(1)
	f.reopen(1)

	tx := f.nodes[1].DB.Begin()
	err := tx.SetNodeProp(a1, "x", neograph.Int(9))
	if err == nil {
		err = tx.Commit()
	} else {
		tx.Abort()
	}
	if err == nil {
		t.Fatal("write to a recovered in-doubt key should conflict")
	}

	f.recoverAll()
	f.assertOutcome(false, a0, a1)
	// The key is writable again once the prepare resolved.
	tx = f.nodes[1].DB.Begin()
	if err := tx.SetNodeProp(a1, "y", neograph.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
