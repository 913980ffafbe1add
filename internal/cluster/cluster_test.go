package cluster_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/cluster"
	"neograph/internal/faultfs"
	"neograph/internal/fleet"
)

// These tests run the whole self-driving stack end to end: real DBs,
// real servers, real controllers, over loopback TCP. The scenarios are
// the ISSUE's acceptance matrix — auto-failover with zero acknowledged
// loss, primary kills at recorded WAL crash points, no false failover on
// replica death, and a node that slept through consecutive promotions
// being fenced and then re-seeding itself back into the fleet.

type tcluster struct {
	t     *testing.T
	nodes []*fleet.Node // index 0 is the initial primary
	dead  map[*fleet.Node]bool
}

// startCluster boots n nodes — node index 0 as the initial primary, the
// rest as its replicas — each with a server and a fast-tuned controller.
// primaryFS optionally routes the primary's file I/O through a fault
// injector for the crash matrix.
func startCluster(t *testing.T, n, syncReplicas int, primaryFS faultfs.FS) *tcluster {
	t.Helper()
	f, err := fleet.Start(fleet.Spec{
		Replicas: n - 1,
		DB: neograph.Options{
			Dir:                t.TempDir(),
			WALSegmentSize:     4096,
			SyncReplicas:       syncReplicas,
			SyncReplicaTimeout: -1, // never degrade: acked means replicated
		},
		Cluster: &cluster.Options{
			SuspectAfter:    150 * time.Millisecond,
			ElectionTimeout: 800 * time.Millisecond,
			ProbeEvery:      40 * time.Millisecond,
			ProbeTimeout:    300 * time.Millisecond,
		},
		Each: func(_, member int, c *fleet.Config) {
			if member == 0 {
				c.DB.FS = primaryFS
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &tcluster{t: t, nodes: f.Groups[0], dead: map[*fleet.Node]bool{}}
	// Hard deaths all round: restarted nodes replace their slot in
	// f.Groups[0] (c.nodes aliases it), so this covers them too.
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			c.kill(nd)
		}
		f.Close()
	})
	return c
}

// kill simulates a hard node death: controller gone, listener gone,
// engine crashed without flushing. Idempotent.
func (c *tcluster) kill(nd *fleet.Node) {
	c.dead[nd] = true
	nd.Crash()
}

// restart reopens a killed node from its surviving directory as a
// replica of replicaOf (possibly a dead address — the controller's job
// is to find the real primary), with a fresh server and controller; the
// new incarnation takes the old one's slot in c.nodes.
func (c *tcluster) restart(nd *fleet.Node, replicaOf string) {
	c.t.Helper()
	if !c.dead[nd] {
		c.t.Fatal("restart of a live node")
	}
	cfg := nd.Config
	cfg.DB.ReplicaOf = replicaOf
	cfg.DB.FS = nil
	re, err := fleet.StartNode(cfg)
	if err != nil {
		c.t.Fatal(err)
	}
	for i := range c.nodes {
		if c.nodes[i] == nd {
			c.nodes[i] = re
		}
	}
}

// replAddr is the WAL-shipping address nd serves if/when it is primary.
func replAddr(nd *fleet.Node) string { return nd.Config.DB.ReplicationAddr }

// waitPrimary polls until exactly one live node reports the primary
// role and returns it. Two simultaneous primaries fail immediately —
// that is the split-brain the epoch fencing must prevent.
func (c *tcluster) waitPrimary(timeout time.Duration) *fleet.Node {
	t := c.t
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var prim *fleet.Node
		n := 0
		for _, nd := range c.nodes {
			if c.dead[nd] {
				continue
			}
			if st := nd.DB.ReplStatus(); st.Role == "primary" {
				prim, n = nd, n+1
			}
		}
		if n > 1 {
			t.Fatalf("%d simultaneous primaries", n)
		}
		if n == 1 {
			return prim
		}
		if time.Now().After(deadline) {
			t.Fatal("no node promoted itself")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitFollowing polls until nd streams from replAddr with a live
// connection.
func (c *tcluster) waitFollowing(nd *fleet.Node, replAddr string, timeout time.Duration) {
	t := c.t
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := nd.DB.ReplStatus()
		if st.Role == "replica" && st.PrimaryAddr == replAddr && st.Connected {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d never followed %s; status %+v", nd.Config.Cluster.NodeID, replAddr, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// settle waits for every live replica to stream from the given primary.
func (c *tcluster) settle(prim *fleet.Node, timeout time.Duration) {
	c.t.Helper()
	for _, nd := range c.nodes {
		if c.dead[nd] || nd == prim {
			continue
		}
		c.waitFollowing(nd, replAddr(prim), timeout)
	}
}

// writeAcked commits n labelled nodes through addr one at a time,
// returning how many were acknowledged and the first error.
func writeAcked(t *testing.T, addr, label string, n, base int) (int, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl, err := client.Dial(ctx, addr)
	if err != nil {
		return 0, err
	}
	defer cl.Close()
	for i := 0; i < n; i++ {
		if _, err := cl.CreateNode(ctx, []string{label},
			neograph.Props{"i": neograph.Int(int64(base + i))}); err != nil {
			return i, err
		}
	}
	return n, nil
}

// countVia counts label through a node's server (so replicas answer at
// their applied position, exactly what a client would see).
func countVia(t *testing.T, addr, label string) int {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := client.Dial(ctx, addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer cl.Close()
	ids, err := cl.NodesByLabel(ctx, label)
	if err != nil {
		t.Fatalf("count %s on %s: %v", label, addr, err)
	}
	return len(ids)
}

// waitCount polls until addr serves exactly want label-nodes.
func waitCount(t *testing.T, addr, label string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if got := countVia(t, addr, label); got == want {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("%s serves %d %s nodes, want %d", addr, got, label, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestAutoFailover is the headline scenario: the primary dies hard and,
// with no operator in the loop, the fleet detects it, elects the
// most-advanced replica, promotes it, re-points the survivor, and loses
// no acknowledged commit.
func TestAutoFailover(t *testing.T) {
	c := startCluster(t, 3, 1, nil)
	c.settle(c.nodes[0], 10*time.Second)

	const acked = 20
	if n, err := writeAcked(t, c.nodes[0].Addr(), "Acked", acked, 0); err != nil {
		t.Fatalf("write %d: %v", n, err)
	}

	c.kill(c.nodes[0])
	w := c.waitPrimary(10 * time.Second)
	if w == c.nodes[0] {
		t.Fatal("dead node counted as primary")
	}
	if ep, _ := w.DB.Epoch(); ep != 2 {
		t.Fatalf("winner epoch = %d, want 2", ep)
	}

	// The loser re-targets at the winner automatically.
	var surv *fleet.Node
	for _, nd := range c.nodes[1:] {
		if nd != w {
			surv = nd
		}
	}
	c.waitFollowing(surv, replAddr(w), 10*time.Second)

	// Zero acknowledged-commit loss, and the fleet is writable again.
	if got := countVia(t, w.Addr(), "Acked"); got != acked {
		t.Fatalf("winner has %d acked nodes, want %d", got, acked)
	}
	if _, err := writeAcked(t, w.Addr(), "Acked", 1, acked); err != nil {
		t.Fatalf("write after auto-failover: %v", err)
	}
	waitCount(t, surv.Addr(), "Acked", acked+1, 10*time.Second)
	if ep, _ := surv.DB.Epoch(); ep != 2 {
		t.Fatalf("survivor epoch = %d, want 2", ep)
	}
}

// TestReplicaDeathNoFailover: losing a replica must not trigger an
// election — the primary keeps its role and epoch and keeps serving
// writes. One node's silence is not a cluster emergency.
func TestReplicaDeathNoFailover(t *testing.T) {
	c := startCluster(t, 3, 0, nil)
	c.settle(c.nodes[0], 10*time.Second)
	if _, err := writeAcked(t, c.nodes[0].Addr(), "Pre", 5, 0); err != nil {
		t.Fatal(err)
	}

	c.kill(c.nodes[2])
	// Several suspicion windows pass; nothing may change hands.
	time.Sleep(1 * time.Second)
	if st := c.nodes[0].DB.ReplStatus(); st.Role != "primary" {
		t.Fatalf("primary role changed to %q after a replica died", st.Role)
	}
	if ep, _ := c.nodes[0].DB.Epoch(); ep != 1 {
		t.Fatalf("epoch bumped to %d by a replica death", ep)
	}
	if st := c.nodes[1].DB.ReplStatus(); st.Role != "replica" || !st.Connected {
		t.Fatalf("surviving replica disturbed: %+v", st)
	}
	if _, err := writeAcked(t, c.nodes[0].Addr(), "Pre", 5, 5); err != nil {
		t.Fatalf("write after replica death: %v", err)
	}
	waitCount(t, c.nodes[1].Addr(), "Pre", 10, 10*time.Second)
}

// TestClusterCrashMatrixPrimary kills the primary at recorded WAL crash
// points — mid-record-write and mid-fsync — while acknowledged writes
// are in flight, and asserts the fleet self-heals with zero acked loss
// and exactly one epoch-2 leader.
func TestClusterCrashMatrixPrimary(t *testing.T) {
	const workload = 12

	// Recording pass: which wal-side ops does the acked workload perform?
	rec := faultfs.NewInjector(faultfs.OS{}, nil)
	c := startCluster(t, 3, 1, rec)
	c.settle(c.nodes[0], 10*time.Second)
	base := rec.Counts()
	if n, err := writeAcked(t, c.nodes[0].Addr(), "Acked", workload, 0); err != nil {
		t.Fatalf("recording write %d: %v", n, err)
	}
	counts := rec.Counts()
	type pt struct {
		point string
		hits  int
	}
	var points []pt
	for _, p := range []string{"wal.write", "wal.sync"} {
		if d := counts[p] - base[p]; d > 0 {
			points = append(points, pt{p, d})
		} else {
			t.Fatalf("workload performed no %s ops: %v", p, counts)
		}
	}

	// Hits are sampled first/middle/last per point: the interesting
	// states are "nothing durable yet", "mid-stream", and "mid-final-op".
	for _, p := range points {
		hits := []int{1, (p.hits + 1) / 2, p.hits}
		seen := map[int]bool{}
		for _, hit := range hits {
			if seen[hit] {
				continue
			}
			seen[hit] = true
			fault := faultfs.Fault{Point: p.point, Hit: hit, Mode: faultfs.ModeCrash}
			t.Run(fmt.Sprintf("%s-%d", p.point, hit), func(t *testing.T) {
				t.Parallel()
				runPrimaryKillCase(t, fault, workload)
			})
		}
	}
}

func runPrimaryKillCase(t *testing.T, fault faultfs.Fault, workload int) {
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	c := startCluster(t, 3, 1, inj)
	c.settle(c.nodes[0], 10*time.Second)

	inj.Arm(fault)
	acked, werr := writeAcked(t, c.nodes[0].Addr(), "Acked", workload, 0)
	if werr == nil {
		if inj.Fired() {
			t.Fatal("every write acknowledged after an injected crash")
		}
		return // fault drifted past the workload's ops: vacuous pass
	}

	// The engine is storage-dead; a real process would exit. Kill it so
	// the fleet sees a dead node, not a zombie answering probes.
	c.kill(c.nodes[0])
	w := c.waitPrimary(10 * time.Second)
	var surv *fleet.Node
	for _, nd := range c.nodes[1:] {
		if nd != w {
			surv = nd
		}
	}
	c.waitFollowing(surv, replAddr(w), 10*time.Second)

	// Every acknowledged commit survived the failover. (The write that
	// crashed may or may not have replicated before dying — both are
	// correct — so the surviving count is bounded below by the acks.)
	got := countVia(t, w.Addr(), "Acked")
	if got < acked {
		t.Fatalf("acknowledged-commit loss: %d acked, %d survived", acked, got)
	}
	if ep, _ := w.DB.Epoch(); ep != 2 {
		t.Fatalf("winner epoch = %d, want 2", ep)
	}

	// The healed fleet accepts and replicates new writes.
	if _, err := writeAcked(t, w.Addr(), "Acked", 3, got); err != nil {
		t.Fatalf("write after crash failover: %v", err)
	}
	waitCount(t, surv.Addr(), "Acked", got+3, 10*time.Second)
}

// TestFencedAfterMissedPromotionsAutoReseeds is the satellite extending
// TestDoublePromotionFencesOldTimeline to the automatic path: the
// original primary sleeps through TWO elections (epoch 1 → 2 → 3),
// restarts pointing at its own long-dead address, and the controller —
// not an operator — must discover the real primary, hit the fork-point
// fence, and re-seed the node back to full convergence.
func TestFencedAfterMissedPromotionsAutoReseeds(t *testing.T) {
	c := startCluster(t, 4, 1, nil)
	c.settle(c.nodes[0], 10*time.Second)
	total := 0
	write := func(addr string, n int) {
		t.Helper()
		if _, err := writeAcked(t, addr, "Acked", n, total); err != nil {
			t.Fatalf("write at %d: %v", total, err)
		}
		total += n
	}
	write(c.nodes[0].Addr(), 8)

	// First missed promotion: epoch 2.
	c.kill(c.nodes[0])
	w1 := c.waitPrimary(10 * time.Second)
	c.settle(w1, 10*time.Second)
	write(w1.Addr(), 8)

	// Second missed promotion: epoch 3.
	c.kill(w1)
	w2 := c.waitPrimary(10 * time.Second)
	c.settle(w2, 10*time.Second)
	if ep, _ := w2.DB.Epoch(); ep != 3 {
		t.Fatalf("second winner epoch = %d, want 3", ep)
	}
	write(w2.Addr(), 8)

	// The original primary wakes up with an epoch-1 log extending past
	// both fork points, pointed at its own dead address. Left alone, the
	// controller must re-target it to w2, get fenced, and re-seed.
	c.restart(c.nodes[0], replAddr(c.nodes[0]))
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := c.nodes[0].DB.ReplStatus()
		ep, _ := c.nodes[0].DB.Epoch()
		if st.Role == "replica" && st.Connected && ep == 3 &&
			countVia(t, c.nodes[0].Addr(), "Acked") == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fenced node never re-seeded: status %+v epoch %d count %d",
				st, ep, countVia(t, c.nodes[0].Addr(), "Acked"))
		}
		time.Sleep(25 * time.Millisecond)
	}
	// And it is a first-class replica again: it follows new writes.
	write(w2.Addr(), 4)
	waitCount(t, c.nodes[0].Addr(), "Acked", total, 10*time.Second)
}
