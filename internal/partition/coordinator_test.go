package partition_test

import (
	"testing"
	"time"

	"neograph"
	"neograph/internal/fleet"
	"neograph/internal/partition"
	"neograph/internal/value"
	"neograph/internal/wire"
)

// TestRestartedParticipantReachedOnNextRPC: the coordinator holds a parked
// session to a participant; the participant's primary restarts — same
// address — between its prepare and the decide. The decide is the
// coordinator's next rpc to it: it finds the parked session dead, redials
// through the same cache and is acknowledged in that one pass.
func TestRestartedParticipantReachedOnNextRPC(t *testing.T) {
	f, err := fleet.Start(fleet.Spec{Partitions: 2, DB: neograph.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Close() }()
	n0, n1 := f.Groups[0][0], f.Groups[1][0]
	// Partition 0's own coordinator would repush in the background; every
	// push below is this test's, through a coordinator that never started.
	n0.Coord.Close()
	coord := partition.NewCoordinator(0, n0.Topo, n0.Srv.Local(), n0.DB.AppliedLSN(), nil)
	defer coord.Close()

	anchor := func(n *fleet.Node) neograph.NodeID {
		t.Helper()
		tx := n.DB.Begin()
		id, err := tx.CreateNode(nil, nil)
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mark := func(id neograph.NodeID, key string) wire.Request {
		return wire.Request{Op: wire.OpSetNodeProp, ID: id, Key: key, Value: value.EncodeValue(neograph.Int(1))}
	}
	must := func(resp *wire.Response) {
		t.Helper()
		if !resp.OK {
			t.Fatal(resp.Error)
		}
	}
	a0, a1 := anchor(n0), anchor(n1)

	// One whole cross-partition commit parks a session to partition 1.
	must(coord.CommitBatch([]wire.Request{mark(a0, "warm"), mark(a1, "warm")}, time.Time{}))

	const gtxn = 1 << 40 // partition 0's ID space, far above anything minted here
	must(n1.Srv.Local().PrepareBatch(gtxn, 0, []wire.Request{mark(a1, "x")}, nil))
	must(n0.Srv.Local().PrepareBatch(gtxn, 0, []wire.Request{mark(a0, "x")}, nil))
	if err := n1.Crash(); err != nil {
		t.Fatal(err)
	}
	if n1, err = fleet.StartNode(n1.Config); err != nil { // same directory, same ports
		t.Fatal(err)
	}
	f.Groups[1][0] = n1
	if _, _, err := n0.DB.Engine().DecideTxn(gtxn, true, []uint32{1}); err != nil {
		t.Fatal(err)
	}

	coord.RepushDecisions()
	if left := n0.DB.Engine().UnackedDecisions(); len(left) != 0 {
		t.Fatalf("one repush pass over a stale session left %+v unacknowledged", left)
	}
	tx := n1.DB.Begin()
	defer tx.Abort()
	n, err := tx.GetNode(a1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := n.Props["x"]; !ok {
		t.Error("the restarted participant never applied the decision")
	}
}
