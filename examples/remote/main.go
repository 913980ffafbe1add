// Remote: a 1-primary/2-replica fleet served over TCP, driven through
// the public neograph/client SDK — pipelined batches (one round trip),
// topology-aware pooled routing with read-your-writes causality tokens,
// and a live failover the pool follows automatically.
//
//	go run ./examples/remote
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

func main() {
	ctx := context.Background()

	// ---- the fleet: one primary shipping its WAL to two replicas,
	// each node behind a TCP server (all in-process for the demo).
	// SyncReplicas 1: an acked write survives primary loss.
	f, err := fleet.Start(fleet.Spec{Replicas: 2, DB: neograph.Options{SyncReplicas: 1}})
	check(err)
	defer f.Close()
	primary, replicas := f.Groups[0][0], f.Groups[0][1:]
	replAddr := primary.DB.ReplicationAddress()
	fmt.Printf("fleet: primary %s, replicas %s + %s\n",
		primary.Addr(), replicas[0].Addr(), replicas[1].Addr())

	// ---- a topology-aware pool over the fleet.
	router, err := client.OpenRouter(ctx, client.RouterConfig{
		Partitions: client.Group(primary.Addr(), replicas[0].Addr(), replicas[1].Addr()),
		Policy:     client.LeastLag,
	})
	check(err)
	defer router.Close()
	pool := router.Pool(0) // one group: its pool is the whole fleet

	// ---- build a small social graph in ONE round trip per batch.
	const user = "alice" // the causality token for this session
	var ada, bob neograph.NodeID
	check(pool.Write(ctx, user, func(c *client.Client) error {
		b := &client.Batch{}
		ia := b.CreateNode([]string{"Person"}, neograph.Props{"name": neograph.String("ada")})
		ib := b.CreateNode([]string{"Person"}, neograph.Props{"name": neograph.String("bob")})
		res, err := c.RunBatch(ctx, b)
		if err != nil {
			return err
		}
		ada, _ = res.ID(ia)
		bob, _ = res.ID(ib)
		b2 := &client.Batch{}
		b2.CreateRel("KNOWS", ada, bob, neograph.Props{"since": neograph.Int(2016)})
		b2.SetNodeProp(ada, "age", neograph.Int(36))
		_, err = c.RunBatch(ctx, b2)
		return err
	}))
	fmt.Printf("wrote ada=%d bob=%d in 2 batched round trips (token LSN %d)\n",
		ada, bob, pool.Token(user))

	// ---- read-your-writes from a replica: the pool injects the token's
	// LSN as the wait_lsn gate, so even a lagging replica shows the write.
	check(pool.Read(ctx, user, func(c *client.Client) error {
		n, err := c.GetNode(ctx, ada)
		if err != nil {
			return err
		}
		nbrs, err := c.Neighbors(ctx, ada, "out")
		if err != nil {
			return err
		}
		fmt.Printf("replica %s: ada %v -> neighbors %v (own writes visible)\n",
			c.RemoteAddr(), n.Props["name"], nbrs)
		return nil
	}))

	// ---- failover: the primary dies; an operator promotes replica 0
	// onto the dead primary's shipping address so replica 1 re-points.
	fmt.Println("\n-- killing the primary --")
	primary.Close()
	cl, err := client.Dial(ctx, replicas[0].Addr())
	check(err)
	st, err := cl.Promote(ctx, replAddr)
	cl.Close()
	check(err)
	fmt.Printf("promoted %s: role=%s epoch=%d\n", replicas[0].Addr(), st.Role, st.Epoch)

	// The pool's next write hits the dead primary, probes the fleet,
	// finds the promoted node and retries — transparently.
	check(pool.Write(ctx, user, func(c *client.Client) error {
		return c.SetNodeProp(ctx, ada, "age", neograph.Int(37))
	}))
	fmt.Printf("write resumed on new primary %s (token LSN %d)\n",
		pool.PrimaryAddr(), pool.Token(user))

	// Read-your-writes still holds across the epoch bump.
	time.Sleep(200 * time.Millisecond) // let the surviving replica re-point
	check(pool.Read(ctx, user, func(c *client.Client) error {
		n, err := c.GetNode(ctx, ada)
		if err != nil {
			return err
		}
		age, _ := n.Props["age"].AsInt()
		fmt.Printf("read from %s after failover: ada.age=%d\n", c.RemoteAddr(), age)
		return nil
	}))

	for _, r := range replicas {
		st := r.DB.ReplStatus()
		fmt.Printf("node: role=%s applied=%d epoch=%d\n", st.Role, st.AppliedLSN, st.Epoch)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
