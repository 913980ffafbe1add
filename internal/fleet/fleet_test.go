package fleet_test

import (
	"context"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/cluster"
	"neograph/internal/fleet"
)

// fleetGoroutines returns the stacks of live goroutines that are running
// neograph code, other than the calling test's own.
func fleetGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for i, g := range strings.Split(string(buf), "\n\n") {
		if i > 0 && strings.Contains(g, "neograph/") { // the first stack is the caller's
			out = append(out, g)
		}
	}
	return out
}

// TestFleetFailoverAndTeardown stands up the whole stack the package
// assembles — 2 partitions x (primary + sync replica), coordinators and
// cluster controllers on every node — and checks the two things the
// package owns: a fleet that works end to end across a primary's death,
// and a teardown that is idempotent and leaves nothing running.
func TestFleetFailoverAndTeardown(t *testing.T) {
	if leaked := fleetGoroutines(); len(leaked) != 0 {
		t.Fatalf("goroutines already running before the fleet started:\n%s", strings.Join(leaked, "\n\n"))
	}
	dir := t.TempDir()
	f, err := fleet.Start(fleet.Spec{
		Partitions: 2,
		Replicas:   1,
		// Quorum 1 with the default degrade window: the promoted node is
		// left without a replica and must fall back to async to stay
		// writable.
		DB: neograph.Options{Dir: dir, SyncReplicas: 1},
		Cluster: &cluster.Options{
			SuspectAfter:    150 * time.Millisecond,
			ElectionTimeout: 800 * time.Millisecond,
			ProbeEvery:      40 * time.Millisecond,
			ProbeTimeout:    300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for p, g := range f.Groups {
		if len(g) != 2 || g[0].Coord == nil || g[0].Ctrl == nil || g[1].Coord == nil || g[1].Ctrl == nil {
			t.Fatalf("partition %d is not primary+replica with coordinators and controllers: %+v", p, g)
		}
		if st := g[1].DB.ReplStatus(); st.Role != "replica" || !st.Connected {
			t.Fatalf("partition %d: Start returned before its replica attached: %+v", p, st)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := client.OpenRouter(ctx, client.RouterConfig{Partitions: f.PartitionMap(), ProbeEvery: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// One account per partition, then a cross-partition transfer: both
	// property writes commit atomically through 2PC. (No cross-partition
	// edge: the source partition cannot checkpoint one yet — its store
	// links a relationship into both endpoints' chains and the far
	// endpoint is not local — which would fail the clean Close below. See
	// ROADMAP.)
	var acct [2]neograph.NodeID
	for p := range acct {
		err := r.Pool(uint32(p)).Write(ctx, "t", func(c *client.Client) error {
			var err error
			acct[p], err = c.CreateNode(ctx, []string{"Account"}, nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.PartitionOf(acct[p]); got != uint32(p) {
			t.Fatalf("node %d created on partition %d is owned by partition %d", acct[p], p, got)
		}
	}
	var b client.Batch
	b.SetNodeProp(acct[0], "balance", neograph.Int(60))
	b.SetNodeProp(acct[1], "balance", neograph.Int(40))
	if _, err := r.RunBatch(ctx, "t", &b); err != nil {
		t.Fatalf("cross-partition batch: %v", err)
	}

	// Partition 1's primary dies hard; its controller-run group promotes
	// the replica on its own. The replica catches up first: a participant
	// acknowledges a 2PC decision before its own sync replica holds it, so
	// a crash inside that window turns the acknowledged batch into a
	// presumed abort on the promoted node (see ROADMAP).
	dead, heir := f.Groups[1][0], f.Groups[1][1]
	if err := heir.DB.WaitApplied(dead.DB.DurableLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := dead.Crash(); err != nil {
		t.Fatal(err)
	}
	// No prepare may be left in doubt (holding its keys) on the new primary.
	for deadline := time.Now().Add(15 * time.Second); heir.DB.ReplStatus().Role != "primary" || len(heir.DB.InDoubt()) != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("partition 1 never failed over cleanly: %+v, in doubt %v", heir.DB.ReplStatus(), heir.DB.InDoubt())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Writes to partition 1 resume on the promoted node (a write is also
	// what makes the partition's pool re-discover its primary: a pool
	// whose only replica got promoted has no read candidate left until
	// then), the fleet commits a fresh cross-partition batch across it,
	// and the batch acknowledged before the crash survived beside both.
	err = r.Write(ctx, "t", uint64(acct[1]), func(c *client.Client) error {
		return c.SetNodeProp(ctx, acct[1], "resumed", neograph.Int(1))
	})
	if err != nil {
		t.Fatalf("write to partition 1 after failover: %v", err)
	}
	var b2 client.Batch
	b2.SetNodeProp(acct[0], "after", neograph.Int(1))
	b2.SetNodeProp(acct[1], "after", neograph.Int(1))
	if _, err := r.RunBatch(ctx, "t", &b2); err != nil {
		t.Fatalf("cross-partition batch after failover: %v", err)
	}
	// Checked on the primaries themselves: a replica read gated on the
	// batch's causality token can still be stale (the token a 2PC commit
	// returns is not a log position yet — see ROADMAP).
	for p, db := range []*neograph.DB{f.Groups[0][0].DB, heir.DB} {
		err := db.View(func(tx *neograph.Tx) error {
			n, err := tx.GetNode(acct[p])
			if err != nil {
				return err
			}
			balance, _ := n.Props["balance"].AsInt()
			after, _ := n.Props["after"].AsInt()
			if want := []int64{60, 40}[p]; balance != want || after != 1 {
				t.Errorf("partition %d after failover: balance=%d after=%d, want %d and 1", p, balance, after, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("read partition %d: %v", p, err)
		}
	}

	// Teardown: idempotent at both levels, closing a crashed node is a
	// no-op, and no goroutine of the fleet outlives it.
	r.Close()
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := dead.Close(); err != nil {
		t.Fatalf("close after crash: %v", err)
	}
	var leaked []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if leaked = fleetGoroutines(); len(leaked) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(leaked) != 0 {
		t.Fatalf("%d fleet goroutines still running after Close:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
	}
}

// TestStartOwnsItsTempDir: with no Dir the fleet runs on a temporary
// directory that Close removes; a failing Start leaves nothing behind.
func TestStartOwnsItsTempDir(t *testing.T) {
	f, err := fleet.Start(fleet.Spec{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := f.Groups[0][0].Config.DB.Dir
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("temp dir %s survived Close (err %v)", dir, err)
	}

	if _, err := fleet.Start(fleet.Spec{DB: neograph.Options{Dir: "/dev/null/not-a-dir"}}); err == nil {
		t.Fatal("Start on an impossible directory succeeded")
	}
	if leaked := fleetGoroutines(); len(leaked) != 0 {
		t.Fatalf("failed Start left goroutines:\n%s", strings.Join(leaked, "\n\n"))
	}
}
