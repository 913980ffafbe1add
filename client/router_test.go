package client_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"neograph"
	"neograph/internal/fleet"
	"neograph/internal/wire"

	. "neograph/client"
)

// startPartitions brings up an in-process partitioned fleet: one primary
// per partition, coordinators wired, served over real TCP.
func startPartitions(t *testing.T, count int) *fleet.Fleet {
	t.Helper()
	f, err := fleet.Start(fleet.Spec{Partitions: count, DB: neograph.Options{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func openRouter(t *testing.T, f *fleet.Fleet) *Router {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := OpenRouter(ctx, RouterConfig{
		Partitions: f.PartitionMap(),
		ProbeEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestRouterStriding: each partition allocates only its own congruence
// class, and single-entity ops route to the owner.
func TestRouterStriding(t *testing.T) {
	f := startPartitions(t, 2)
	r := openRouter(t, f)
	ctx := context.Background()

	// Create a node on each partition explicitly.
	var ids []neograph.NodeID
	for part := uint32(0); part < 2; part++ {
		p := part
		err := r.Pool(p).Write(ctx, "tok", func(c *Client) error {
			id, err := c.CreateNode(ctx, []string{"P"}, neograph.Props{"part": neograph.Int(int64(p))})
			ids = append(ids, id)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		if r.PartitionOf(id) != uint32(i) {
			t.Fatalf("node %d allocated on partition %d has id %% 2 == %d", id, i, id%2)
		}
	}

	// Routed reads land on the owner and see the node.
	for i, id := range ids {
		err := r.Read(ctx, "tok", id, func(c *Client) error {
			n, err := c.GetNode(ctx, id)
			if err != nil {
				return err
			}
			if got := n.Props["part"]; !got.Equal(neograph.Int(int64(i))) {
				t.Fatalf("node %d: part prop %v", id, got)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// A misrouted direct op is refused with the owner named.
	err := r.Pool(0).Write(ctx, "tok", func(c *Client) error {
		_, err := c.GetNode(ctx, ids[1])
		return err
	})
	if err == nil {
		t.Fatal("reading partition 1's node via partition 0 should fail")
	}
}

// TestRouterScanFanOut: label scans merge every partition's slice.
func TestRouterScanFanOut(t *testing.T) {
	f := startPartitions(t, 2)
	r := openRouter(t, f)
	ctx := context.Background()

	const n = 10
	for i := 0; i < n; i++ {
		if err := r.WriteAny(ctx, "tok", func(c *Client) error {
			_, err := c.CreateNode(ctx, []string{"Scan"}, nil)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	ids, err := r.NodesByLabel(ctx, "tok", "Scan")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n {
		t.Fatalf("scan found %d of %d nodes", len(ids), n)
	}
	// Round-robin creation spread the nodes over both partitions.
	var byPart [2]int
	for _, id := range ids {
		byPart[id%2]++
	}
	if byPart[0] == 0 || byPart[1] == 0 {
		t.Fatalf("creation not spread: %v", byPart)
	}
}

// TestRouterCrossPartitionBatch: one batch creating nodes on both
// partitions plus an edge between them commits atomically through 2PC,
// and the results merge back in batch order.
func TestRouterCrossPartitionBatch(t *testing.T) {
	f := startPartitions(t, 2)
	r := openRouter(t, f)
	ctx := context.Background()

	// Seed one node per partition.
	var anchor [2]neograph.NodeID
	for part := uint32(0); part < 2; part++ {
		p := part
		if err := r.Pool(p).Write(ctx, "tok", func(c *Client) error {
			id, err := c.CreateNode(ctx, []string{"Anchor"}, nil)
			anchor[p] = id
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Batch anchored on both partitions: set a prop on each anchor and
	// connect them. Home partition = owner of the edge's start.
	var b Batch
	i0 := b.SetNodeProp(anchor[0], "touched", neograph.Bool(true))
	i1 := b.SetNodeProp(anchor[1], "touched", neograph.Bool(true))
	ir := b.CreateRel("LINKS", anchor[0], anchor[1], nil)
	res, err := r.RunBatch(ctx, "tok", &b)
	if err != nil {
		t.Fatal(err)
	}
	relID, err := res.ID(ir)
	if err != nil {
		t.Fatal(err)
	}
	if r.PartitionOf(relID) != r.PartitionOf(anchor[0]) {
		t.Fatalf("edge %d not on start node's partition", relID)
	}
	_ = i0
	_ = i1

	// Both partitions observe their half.
	if err := r.Read(ctx, "tok", anchor[0], func(c *Client) error {
		n, err := c.GetNode(ctx, anchor[0])
		if err != nil {
			return err
		}
		if !n.Props["touched"].Equal(neograph.Bool(true)) {
			t.Fatal("partition 0 write lost")
		}
		rels, err := c.Relationships(ctx, anchor[0], "out")
		if err != nil {
			return err
		}
		if len(rels) != 1 || rels[0].End != anchor[1] {
			t.Fatalf("edge not visible on source: %+v", rels)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Read(ctx, "tok", anchor[1], func(c *Client) error {
		n, err := c.GetNode(ctx, anchor[1])
		if err != nil {
			return err
		}
		if !n.Props["touched"].Equal(neograph.Bool(true)) {
			t.Fatal("partition 1 write lost")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRouterCrossPartitionBatchAtomicAbort: a cross-partition batch
// whose later op fails must leave no partition changed.
func TestRouterCrossPartitionBatchAtomicAbort(t *testing.T) {
	f := startPartitions(t, 2)
	r := openRouter(t, f)
	ctx := context.Background()

	var anchor [2]neograph.NodeID
	for part := uint32(0); part < 2; part++ {
		p := part
		if err := r.Pool(p).Write(ctx, "tok", func(c *Client) error {
			id, err := c.CreateNode(ctx, []string{"A"}, nil)
			anchor[p] = id
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}

	var b Batch
	b.SetNodeProp(anchor[0], "x", neograph.Int(1))
	b.SetNodeProp(anchor[1], "x", neograph.Int(1))
	b.DeleteNode(anchor[0] + 2*1000) // nonexistent node on partition 0
	if _, err := r.RunBatch(ctx, "tok", &b); err == nil {
		t.Fatal("batch with a failing op should fail")
	}

	for part := uint32(0); part < 2; part++ {
		p := part
		if err := r.Read(ctx, "tok", anchor[p], func(c *Client) error {
			n, err := c.GetNode(ctx, anchor[p])
			if err != nil {
				return err
			}
			if _, ok := n.Props["x"]; ok {
				t.Fatalf("partition %d kept an aborted write", p)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRouterNoPartitionOwner: a partition with a dead primary surfaces
// the structured error at the deadline, naming the partition.
func TestRouterNoPartitionOwner(t *testing.T) {
	f := startPartitions(t, 2)
	r := openRouter(t, f)

	// Kill partition 1 entirely.
	f.Groups[1][0].Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := r.Write(ctx, "tok", 1 /* partition 1's ID space */, func(c *Client) error {
		_, e := c.CreateNode(ctx, nil, nil)
		return e
	})
	if err == nil {
		t.Fatal("write to a dead partition should fail")
	}
	if !errors.Is(err, ErrNoPartitionOwner) {
		t.Fatalf("want ErrNoPartitionOwner, got %v", err)
	}
	var npo *NoPartitionOwnerError
	if !errors.As(err, &npo) || npo.Partition != 1 {
		t.Fatalf("structured error: %v", err)
	}

	// Partition 0 still serves.
	if err := r.Write(context.Background(), "tok", 0, func(c *Client) error {
		_, e := c.CreateNode(context.Background(), nil, nil)
		return e
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRouterRejectsDuplicateGroup: a map that names partition 0 twice
// and partition 1 never has the right number of groups; it must not open
// (a write hashed to partition 1 would find no pool).
func TestOpenRouterRejectsDuplicateGroup(t *testing.T) {
	f := startPartitions(t, 2)
	pm := f.PartitionMap()
	pm.Groups[1].ID = 0
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := OpenRouter(ctx, RouterConfig{Partitions: pm})
	if err == nil {
		defer r.Close()
		err = r.Write(ctx, "", 1, func(*Client) error { return nil })
		t.Fatalf("a map naming partition 0 twice opened (write to partition 1: %v)", err)
	}
}

// TestOpenRouterRejectedOpenLeaksNothing: a map whose SECOND group is bad
// is refused before the first — live — group is dialled: no session and no
// probe goroutine outlives the refusal.
func TestOpenRouterRejectedOpenLeaksNothing(t *testing.T) {
	f := startPartitions(t, 2)
	for name, spoil := range map[string]func(g *wire.PartitionGroup){
		"out of range": func(g *wire.PartitionGroup) { g.ID = 5 },
		"no addresses": func(g *wire.PartitionGroup) { g.Addrs = nil },
	} {
		t.Run(name, func(t *testing.T) {
			pm := f.PartitionMap()
			spoil(&pm.Groups[1])
			baseline := runtime.NumGoroutine()
			if r, err := OpenRouter(context.Background(), RouterConfig{Partitions: pm}); err == nil {
				r.Close()
				t.Fatal("a bad second group opened")
			}
			// In-process servers: a leaked connection is a handler goroutine
			// here too, beside the leaked pool's probe loop.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after a rejected open, %d before it", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
