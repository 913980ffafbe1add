package fleet_test

import (
	"context"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/cluster"
	"neograph/internal/faultfs"
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
	// property writes and the edge between the accounts commit atomically
	// through 2PC. The edge lives on partition 0, whose clean Close below
	// must checkpoint it.
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
	b.CreateRel("PAYS", acct[0], acct[1], nil)
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
	// Read through the router under the batches' causality token: from
	// partition 0's replica, and from the promoted node (partition 1 has no
	// replica left).
	for p := range acct {
		err := r.Read(ctx, "t", uint64(acct[p]), func(c *client.Client) error {
			n, err := c.GetNode(ctx, acct[p])
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

// TestCrossPartitionEdgeSurvivesCheckpoint: an edge whose end node lives
// on another partition is stored with its start node, and that partition
// must be able to checkpoint it, close cleanly and find it again after a
// restart. (The store used to link a relationship into both endpoints'
// chains; the far endpoint is not a local node, so every checkpoint after
// such an edge failed with "link rel N to missing node M".)
func TestCrossPartitionEdgeSurvivesCheckpoint(t *testing.T) {
	f, err := fleet.Start(fleet.Spec{Partitions: 2, DB: neograph.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { f.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := client.OpenRouter(ctx, client.RouterConfig{Partitions: f.PartitionMap()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var acct [2]neograph.NodeID
	for p := range acct {
		err := r.Pool(uint32(p)).Write(ctx, "", func(c *client.Client) error {
			var err error
			acct[p], err = c.CreateNode(ctx, []string{"Account"}, nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// One edge by the single-op path, one inside a batch, one the other
	// way round — so both partitions hold an edge with a far endpoint.
	var edges [3]neograph.RelID
	err = r.Write(ctx, "", uint64(acct[0]), func(c *client.Client) error {
		var err error
		edges[0], err = c.CreateRel(ctx, "PAYS", acct[0], acct[1], neograph.Props{"n": neograph.Int(1)})
		return err
	})
	if err != nil {
		t.Fatalf("cross-partition create_rel: %v", err)
	}
	var b client.Batch
	b.SetNodeProp(acct[1], "seen", neograph.Int(1))
	e1 := b.CreateRel("PAYS", acct[0], acct[1], nil)
	e2 := b.CreateRel("OWES", acct[1], acct[0], nil)
	res, err := r.RunBatch(ctx, "", &b)
	if err != nil {
		t.Fatalf("cross-partition batch: %v", err)
	}
	edges[1], _ = res.ID(e1)
	edges[2], _ = res.ID(e2)

	for p, g := range f.Groups {
		if err := g[0].DB.Checkpoint(); err != nil {
			t.Fatalf("partition %d checkpoint with a cross-partition edge: %v", p, err)
		}
	}
	r.Close()
	if err := f.Close(); err != nil {
		t.Fatalf("clean close: %v", err)
	}
	for p, g := range f.Groups {
		n, err := fleet.StartNode(g[0].Config)
		if err != nil {
			t.Fatalf("partition %d reopen: %v", p, err)
		}
		f.Groups[p][0] = n
	}
	for i, want := range []struct {
		start, end neograph.NodeID
		typ        string
	}{{acct[0], acct[1], "PAYS"}, {acct[0], acct[1], "PAYS"}, {acct[1], acct[0], "OWES"}} {
		db := f.Groups[r.PartitionOf(want.start)][0].DB
		err := db.View(func(tx *neograph.Tx) error {
			rels, err := tx.Relationships(want.start, neograph.Outgoing, want.typ)
			if err != nil {
				return err
			}
			for _, rel := range rels {
				if rel.ID == edges[i] && rel.End == want.end {
					return nil
				}
			}
			t.Errorf("edge %d (%d -[%s]-> %d) not found on its start node after reopen: %+v", edges[i], want.start, want.typ, want.end, rels)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrossPartitionTokenIsLogPosition: the read-your-writes token a
// cross-partition batch returns is the home partition's decision record's
// end position — so it advances the router's gate for that partition and a
// replica read carrying it observes the batch. (It used to be the commit
// timestamp, a small number that never advanced a gate set by any earlier
// write.)
func TestCrossPartitionTokenIsLogPosition(t *testing.T) {
	f, err := fleet.Start(fleet.Spec{Partitions: 2, Replicas: 1, DB: neograph.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	r, err := client.OpenRouter(ctx, client.RouterConfig{Partitions: f.PartitionMap()})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

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
	}
	home, replica := f.Groups[0][0].DB, f.Groups[0][1].DB
	for i := int64(1); i <= 50; i++ {
		before := r.Token(0, "t")
		var b client.Batch
		b.SetNodeProp(acct[0], "v", neograph.Int(i))
		b.SetNodeProp(acct[1], "v", neograph.Int(i))
		res, err := r.RunBatch(ctx, "t", &b) // a tie between the partitions: partition 0 is home
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		tok := r.Token(0, "t")
		if tok <= before || tok != res.LSN() || tok > home.DurableLSN() {
			t.Fatalf("batch %d: token %d (batch LSN %d) after %d with the home log durable to %d: not the decision's log position",
				i, tok, res.LSN(), before, home.DurableLSN())
		}
		// The replica behind the token holds the write...
		if err := replica.WaitApplied(tok, 10*time.Second); err != nil {
			t.Fatal(err)
		}
		err = replica.View(func(tx *neograph.Tx) error {
			v, _, err := tx.NodeProp(acct[0], "v")
			if got, _ := v.AsInt(); err != nil || got != i {
				t.Errorf("batch %d: replica at token %d reads v=%d (%v)", i, tok, got, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// ...and so does a routed read carrying it.
		err = r.Read(ctx, "t", uint64(acct[0]), func(c *client.Client) error {
			n, err := c.GetNode(ctx, acct[0])
			if got, _ := n.Props["v"].AsInt(); err != nil || got != i {
				t.Errorf("batch %d: routed read under the token sees v=%d (%v)", i, got, err)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// walGate is the real file system, except that once armed it holds the
// next append to a WAL segment until released — which is where a prepare
// sits after validation and before the engine knows the transaction.
type walGate struct {
	faultfs.OS
	armed   atomic.Bool
	parked  chan struct{} // receives once an append is being held
	release chan struct{} // send to let it through
}

func (g *walGate) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.OS.OpenFile(name, flag, perm)
	if err != nil || faultfs.DefaultLabel(name) != "wal" {
		return f, err
	}
	return &gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	faultfs.File
	g *walGate
}

func (f *gatedFile) Write(p []byte) (int, error) {
	if f.g.armed.CompareAndSwap(true, false) {
		f.g.parked <- struct{}{}
		<-f.g.release
	}
	return f.File.Write(p)
}

// TestResolverWaitsForCoordinatorStillPreparing: a coordinator prepares
// its participants in plan order, which may put a remote partition before
// its own; until its own prepare is logged its engine knows nothing of
// the transaction. A participant's resolver asking in that window must
// hear "pending", not "unknown" — it used to presume abort and discard a
// prepare the coordinator then committed, losing that partition's share
// of an acknowledged batch.
func TestResolverWaitsForCoordinatorStillPreparing(t *testing.T) {
	gate := &walGate{parked: make(chan struct{}), release: make(chan struct{})}
	f, err := fleet.Start(fleet.Spec{
		Partitions: 2,
		DB:         neograph.Options{Dir: t.TempDir()},
		Each: func(part, _ int, cfg *fleet.Config) {
			if part == 0 {
				cfg.DB.FS = gate
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	home, remote := f.Groups[0][0], f.Groups[1][0]

	var acct [2]neograph.NodeID
	for p, n := range []*fleet.Node{home, remote} {
		err := n.DB.Update(0, func(tx *neograph.Tx) error {
			var err error
			acct[p], err = tx.CreateNode([]string{"Account"}, nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := client.Dial(ctx, home.Addr()) // partition 0 coordinates
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The plan's order is a map's (the remote partition leads about one
	// time in eight): try until it does.
	for attempt := int64(1); ; attempt++ {
		if attempt > 256 {
			t.Fatal("256 batches and none prepared the remote partition first")
		}
		var b client.Batch
		b.SetNodeProp(acct[0], "v", neograph.Int(attempt))
		b.SetNodeProp(acct[1], "v", neograph.Int(attempt))
		gate.armed.Store(true)
		done := make(chan error, 1)
		go func() {
			_, err := c.RunBatch(ctx, &b)
			done <- err
		}()
		<-gate.parked // the home prepare is validated and not yet logged
		remoteFirst := len(remote.DB.Engine().InDoubt()) == 1
		if remoteFirst {
			remote.Coord.ResolveInDoubt() // the 500 ms tick, landing in the window
		}
		gate.release <- struct{}{}
		if err := <-done; err != nil {
			t.Fatalf("batch %d: %v", attempt, err)
		}
		if !remoteFirst {
			continue
		}
		err := remote.DB.View(func(tx *neograph.Tx) error {
			v, _, err := tx.NodeProp(acct[1], "v")
			if got, _ := v.AsInt(); err != nil || got != attempt {
				t.Errorf("batch %d was acknowledged, yet the remote partition holds v=%d (%v): its prepare was presumed aborted", attempt, got, err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return
	}
}
