// Partitioned: the vertex space hash-partitioned over two primary
// groups, each with its own replica — driven through client.Router,
// which hashes every operation to the owning partition. Shows the
// strided ID allocation, a cross-partition edge committed atomically
// with two-phase commit, and an in-group failover the router and the
// surviving coordinators follow automatically.
//
//	go run ./examples/partitioned
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/fleet"
)

const parts = 2

func main() {
	ctx := context.Background()

	// ---- the fleet: two partition groups, each a primary shipping its
	// WAL to a replica, both behind TCP servers, both running a partition
	// coordinator (the replica too — promotion must inherit the 2PC
	// resolver duties). Partition p allocates only IDs with id % 2 == p;
	// SyncReplicas 1 means an acked write survives primary loss.
	f, err := fleet.Start(fleet.Spec{Partitions: parts, Replicas: 1, DB: neograph.Options{SyncReplicas: 1}})
	check(err)
	defer func() { check(f.Close()) }() // a clean close checkpoints every node, cross-partition edges included
	for p, g := range f.Groups {
		fmt.Printf("partition %d: primary %s, replica %s\n", p, g[0].Addr(), g[1].Addr())
	}

	// ---- a partition-aware router: one pool per group, every call
	// hashed to the partition that owns the entity.
	router, err := client.OpenRouter(ctx, client.RouterConfig{Partitions: f.PartitionMap()})
	check(err)
	defer router.Close()

	// ---- strided allocation: each partition hands out the IDs it owns
	// (id % 2 == partition), so ownership is computable from the ID alone.
	const user = "teller"
	var byPart [parts]neograph.NodeID
	for i := 0; i < 4; i++ {
		var b client.Batch
		ref := b.CreateNode([]string{"Account"}, neograph.Props{"n": neograph.Int(int64(i))})
		res, err := router.RunBatch(ctx, user, &b)
		check(err)
		id, _ := res.ID(ref)
		byPart[uint64(id)%parts] = id
		fmt.Printf("account %d -> node %d, owned by partition %d\n", i, id, uint64(id)%parts)
	}
	a0, a1 := byPart[0], byPart[1]

	// ---- single-partition writes take the ordinary fast path: the
	// router hashes the ID and the owner commits alone, no coordination.
	check(router.Write(ctx, user, uint64(a0), func(c *client.Client) error {
		return c.SetNodeProp(ctx, a0, "balance", neograph.Int(100))
	}))

	// ---- a cross-partition edge: one batch touching both partitions is
	// committed with two-phase commit — the home partition prepares both
	// sides, hardens the decision in its WAL, and the edge plus both
	// property writes become visible atomically (or not at all).
	var b client.Batch
	b.SetNodeProp(a0, "balance", neograph.Int(60))
	b.SetNodeProp(a1, "balance", neograph.Int(40))
	b.CreateRel("PAYS", a0, a1, neograph.Props{"amount": neograph.Int(40)})
	_, err = router.RunBatch(ctx, user, &b)
	check(err)
	fmt.Printf("cross-partition transfer %d -> %d committed via 2PC\n", a0, a1)

	// The edge lives on the source partition (its owner):
	check(router.Read(ctx, user, uint64(a0), func(c *client.Client) error {
		nbrs, err := c.Neighbors(ctx, a0, "out")
		fmt.Printf("partition %d: node %d -> neighbors %v\n", uint64(a0)%parts, a0, nbrs)
		return err
	}))

	// ---- in-group failover: partition 1's primary dies; its replica is
	// promoted in place. The router re-probes the group and re-routes;
	// the promoted node's coordinator takes over 2PC duties.
	fmt.Println("\n-- killing partition 1's primary --")
	g1 := f.Groups[1]
	shipAddr := g1[0].DB.ReplicationAddress()
	check(g1[0].Close())

	cl, err := client.Dial(ctx, g1[1].Addr())
	check(err)
	st, err := cl.Promote(ctx, shipAddr)
	cl.Close()
	check(err)
	fmt.Printf("promoted %s: role=%s epoch=%d\n", g1[1].Addr(), st.Role, st.Epoch)
	time.Sleep(200 * time.Millisecond) // let pools re-probe the group

	// Writes to partition 1 resume on the promoted primary, and a fresh
	// cross-partition 2PC commit spans the old partition-0 primary and
	// the newly promoted partition-1 primary.
	var b2 client.Batch
	b2.SetNodeProp(a0, "balance", neograph.Int(50))
	b2.SetNodeProp(a1, "balance", neograph.Int(50))
	b2.CreateRel("PAYS", a0, a1, neograph.Props{"amount": neograph.Int(10)})
	_, err = router.RunBatch(ctx, user, &b2)
	check(err)
	fmt.Println("cross-partition transfer committed across the failover")

	for p := 0; p < parts; p++ {
		check(router.Read(ctx, user, uint64(byPart[p]), func(c *client.Client) error {
			n, err := c.GetNode(ctx, byPart[p])
			if err != nil {
				return err
			}
			bal, _ := n.Props["balance"].AsInt()
			fmt.Printf("partition %d (%s): node %d balance=%d\n", p, c.RemoteAddr(), byPart[p], bal)
			return nil
		}))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
