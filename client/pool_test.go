package client_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"neograph"
	. "neograph/client"
	"neograph/internal/cluster"
	"neograph/internal/fleet"
	"neograph/internal/server"
)

// poolFleet is one primary and two replicas, each behind a server.
type poolFleet struct {
	pdb, r1db, r2db    *neograph.DB
	psrv, r1srv, r2srv *server.Server
	replAddr           string // the primary's WAL-shipping address
}

// primarySync makes only the initial primary wait for a replica quorum;
// a replica promoted mid-test acknowledges on its own.
func primarySync(_, member int, c *fleet.Config) {
	if member == 0 {
		c.DB.SyncReplicas = 1
	}
}

// startFleet builds a 1-primary/2-replica fleet under synchronous quorum
// 1, so an acknowledged write is durable on at least one replica and a
// failover promotion can lose nothing acknowledged.
func startFleet(t *testing.T) *poolFleet {
	t.Helper()
	f, err := fleet.Start(fleet.Spec{Replicas: 2, DB: neograph.Options{Dir: t.TempDir()}, Each: primarySync})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	g := f.Groups[0]
	return &poolFleet{
		pdb: g[0].DB, r1db: g[1].DB, r2db: g[2].DB,
		psrv: g[0].Srv, r1srv: g[1].Srv, r2srv: g[2].Srv,
		replAddr: g[0].DB.ReplicationAddress(),
	}
}

func (f *poolFleet) poolConfig(policy Policy) RouterConfig {
	return RouterConfig{
		Partitions: Group(f.psrv.Addr(), f.r1srv.Addr(), f.r2srv.Addr()),
		Policy:     policy,
		ProbeEvery: 50 * time.Millisecond,
	}
}

// openPool opens an unpartitioned fleet the one way there is — a one-group
// router — and returns its only pool; closing the pool closes everything
// the router holds.
func openPool(ctx context.Context, cfg RouterConfig) (*Pool, error) {
	r, err := OpenRouter(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return r.Pool(0), nil
}

func TestPoolRoutesReadsToReplicas(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	p, err := openPool(ctx, f.poolConfig(RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var id neograph.NodeID
	err = p.Write(ctx, "u", func(c *Client) error {
		var err error
		id, err = c.CreateNode(ctx, []string{"Routed"}, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Token("u") == 0 {
		t.Fatal("write recorded no causality token LSN")
	}

	// Round-robin reads rotate across both replicas; the primary serves
	// no read while replicas are healthy.
	served := map[string]int{}
	for i := 0; i < 6; i++ {
		err := p.Read(ctx, "u", func(c *Client) error {
			served[c.RemoteAddr().String()]++
			_, err := c.GetNode(ctx, id)
			return err // read-your-writes: gated on the token's LSN
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if served[f.psrv.Addr()] != 0 {
		t.Errorf("primary served %d reads with healthy replicas", served[f.psrv.Addr()])
	}
	if served[f.r1srv.Addr()] == 0 || served[f.r2srv.Addr()] == 0 {
		t.Errorf("round-robin did not rotate: %v", served)
	}
}

func TestPoolLeastLagPrefersFreshReplica(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	p, err := openPool(ctx, f.poolConfig(LeastLag))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Write(ctx, "", func(c *Client) error {
		_, err := c.CreateNode(ctx, nil, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Both replicas are live; least-lag must pick a replica, not the
	// primary fallback.
	var addr string
	if err := p.Read(ctx, "", func(c *Client) error {
		addr = c.RemoteAddr().String()
		_, err := c.AllNodes(ctx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if addr == f.psrv.Addr() {
		t.Error("least-lag routed a read to the primary with live replicas")
	}
}

func TestPoolReadsFallBackToPrimary(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	// Replicas are configured but their servers are gone: reads must fall
	// through to the primary instead of failing.
	f.r1srv.Close()
	f.r2srv.Close()
	p, err := openPool(ctx, f.poolConfig(LeastLag))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"OnlyPrimary"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	var addr string
	if err := p.Read(ctx, "u", func(c *Client) error {
		addr = c.RemoteAddr().String()
		ids, err := c.NodesByLabel(ctx, "OnlyPrimary")
		if err == nil && len(ids) != 1 {
			return fmt.Errorf("read %d nodes, want 1", len(ids))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if addr != f.psrv.Addr() {
		t.Errorf("read served by %s, want primary %s", addr, f.psrv.Addr())
	}
}

// TestPoolFailover is the acceptance scenario: kill the primary, promote
// the most-advanced replica, and the pool (a) keeps serving reads
// throughout, (b) re-discovers the new primary and resumes writes, and
// (c) loses no acknowledged write — read-your-writes tokens recorded
// before the failover still gate correctly across the epoch bump.
func TestPoolFailover(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	p, err := openPool(ctx, f.poolConfig(LeastLag))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const before = 20
	for i := 0; i < before; i++ {
		if err := p.Write(ctx, "u", func(c *Client) error {
			_, err := c.CreateNode(ctx, []string{"Acked"}, neograph.Props{"i": neograph.Int(int64(i))})
			return err
		}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	preToken := p.Token("u")
	if preToken == 0 {
		t.Fatal("no token LSN recorded")
	}

	// Primary dies hard.
	f.psrv.Close()
	f.pdb.Crash()

	// Reads keep working against the replica fleet (gated on the token,
	// so every acknowledged write is observed).
	if err := p.Read(ctx, "u", func(c *Client) error {
		ids, err := c.NodesByLabel(ctx, "Acked")
		if err != nil {
			return err
		}
		if len(ids) != before {
			return fmt.Errorf("replica read saw %d acked nodes, want %d", len(ids), before)
		}
		return nil
	}); err != nil {
		t.Fatalf("read during primary outage: %v", err)
	}

	// Operator promotes the most-advanced replica onto the dead
	// primary's shipping address, over the wire, so the survivor
	// re-points automatically.
	promoteDB, promoteSrv := f.r1db, f.r1srv
	if f.r2db.AppliedLSN() > f.r1db.AppliedLSN() {
		promoteDB, promoteSrv = f.r2db, f.r2srv
	}
	cl, err := Dial(ctx, promoteSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Promote(ctx, f.replAddr)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if st.Role != "primary" {
		t.Fatalf("post-promotion role = %q", st.Role)
	}

	// Writes resume: the first attempt hits the dead primary, the pool
	// probes ReplStatus across the fleet and retries on the new one.
	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"Acked"}, neograph.Props{"i": neograph.Int(before)})
		return err
	}); err != nil {
		t.Fatalf("write after failover: %v", err)
	}
	if got := p.PrimaryAddr(); got != promoteSrv.Addr() {
		t.Errorf("pool primary = %s, want promoted %s", got, promoteSrv.Addr())
	}
	if p.Token("u") <= preToken {
		t.Errorf("token LSN did not advance across the epoch bump: %d -> %d", preToken, p.Token("u"))
	}

	// Zero client-visible lost acknowledged writes: every pre-failover
	// write plus the post-failover one is readable, token-gated.
	if err := p.Read(ctx, "u", func(c *Client) error {
		ids, err := c.NodesByLabel(ctx, "Acked")
		if err != nil {
			return err
		}
		if len(ids) != before+1 {
			return fmt.Errorf("saw %d acked nodes after failover, want %d", len(ids), before+1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = promoteDB
}

// TestPoolTokenNotCreditedWithStrangerWrites: sessions are recycled
// across causality tokens; a token whose fn performed no commit must not
// inherit the session's previous borrower's commit LSN as a read gate.
func TestPoolTokenNotCreditedWithStrangerWrites(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	cfg := f.poolConfig(LeastLag)
	cfg.ConnsPerHost = 1 // force session reuse across tokens
	p, err := openPool(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Write(ctx, "writer", func(c *Client) error {
		_, err := c.CreateNode(ctx, nil, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if p.Token("writer") == 0 {
		t.Fatal("writer token not recorded")
	}
	// Same session, different token, no commit performed by fn.
	if err := p.Write(ctx, "reader", func(c *Client) error {
		_, err := c.AllNodes(ctx)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if lsn := p.Token("reader"); lsn != 0 {
		t.Errorf("token with no writes inherited gate LSN %d from a recycled session", lsn)
	}
}

// TestPoolDemotedHostRejoinsReads: after a failover the ex-primary's
// address must re-enter the read rotation once it reports the replica
// role again — otherwise every failover permanently shrinks the fleet.
func TestPoolDemotedHostRejoinsReads(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	cfg := f.poolConfig(RoundRobin)
	cfg.ProbeEvery = 30 * time.Millisecond
	p, err := openPool(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// lone knows the primary and only the replica about to be promoted.
	lone, err := openPool(ctx, RouterConfig{
		Partitions: Group(f.psrv.Addr(), f.r1srv.Addr()), ProbeEvery: cfg.ProbeEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()

	// Fail over: kill the primary, promote replica 1 onto its address.
	f.psrv.Close()
	f.pdb.Crash()
	cl, err := Dial(ctx, f.r1srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Promote(ctx, f.replAddr); err != nil {
		t.Fatal(err)
	}
	cl.Close()

	// Reads first, before any write re-discovers the primary: once lone's
	// probe sees replica 1's new role its read rotation is empty and the
	// primary on record is dead, so Read itself must find the new one.
	for until := time.Now().Add(10 * cfg.ProbeEvery); time.Now().Before(until); time.Sleep(cfg.ProbeEvery / 3) {
		if err := lone.Read(ctx, "", func(c *Client) error {
			_, err := c.AllNodes(ctx)
			return err
		}); err != nil {
			t.Fatalf("read through a pool whose only replica was promoted: %v", err)
		}
	}
	if got := lone.PrimaryAddr(); got != f.r1srv.Addr() {
		t.Fatalf("reads left the pool's primary at %s, want the promoted %s", got, f.r1srv.Addr())
	}

	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"F"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// The promoted host must leave the read rotation; replica 2 is the
	// only replica left, so with the dead ex-primary gone every read
	// lands on it — and NOT on the new primary unless r2 dies.
	deadline := time.Now().Add(5 * time.Second)
	for {
		served := map[string]int{}
		for i := 0; i < 4; i++ {
			if err := p.Read(ctx, "u", func(c *Client) error {
				served[c.RemoteAddr().String()]++
				_, err := c.AllNodes(ctx)
				return err
			}); err != nil {
				t.Fatal(err)
			}
		}
		if served[f.r1srv.Addr()] == 0 && served[f.r2srv.Addr()] == 4 {
			break // promoted host out of rotation, survivor serves all
		}
		if time.Now().After(deadline) {
			t.Fatalf("read rotation never settled after failover: %v", served)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPoolCloseReleasesInFlight: a session still executing when Close
// runs must be closed on release, not parked into a dead free-list.
func TestPoolCloseReleasesInFlight(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	p, err := openPool(ctx, f.poolConfig(LeastLag))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	var held *Client
	done := make(chan error, 1)
	go func() {
		done <- p.Read(ctx, "", func(c *Client) error {
			held = c
			close(started)
			time.Sleep(300 * time.Millisecond) // Close lands mid-call
			_, err := c.AllNodes(ctx)
			return err
		})
	}()
	<-started
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Logf("in-flight read during Close: %v (allowed)", err)
	}
	// The released session must have been closed, not leaked: a call on
	// its connection fails.
	if err := held.Ping(context.Background()); err == nil {
		t.Error("session released after Close still has a live connection")
	}
	if err := p.Read(ctx, "", func(c *Client) error { return nil }); err == nil {
		t.Error("read on a closed pool succeeded")
	}
}

// TestPoolAbandonedTxNotRecycled: a session released with an open
// explicit transaction must not be handed to the next borrower — their
// "auto-committed" writes would silently stage into the zombie
// transaction and never commit.
func TestPoolAbandonedTxNotRecycled(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	cfg := f.poolConfig(LeastLag)
	cfg.ConnsPerHost = 1 // force maximal session reuse
	p, err := openPool(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// fn opens a transaction, stages a write, and bails without closing it.
	if err := p.Write(ctx, "bad", func(c *Client) error {
		if err := c.Begin(ctx, ""); err != nil {
			return err
		}
		if _, err := c.CreateNode(ctx, []string{"Zombie"}, nil); err != nil {
			return err
		}
		return fmt.Errorf("caller bug: abandoning the transaction")
	}); err == nil {
		t.Fatal("abandoning write unexpectedly succeeded")
	}

	// The next borrower's auto-committed write must actually commit.
	if err := p.Write(ctx, "good", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"Durable"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(ctx, f.psrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ids, err := cl.NodesByLabel(ctx, "Durable")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("auto-committed write after abandoned tx: %d nodes visible, want 1 (staged into a zombie transaction?)", len(ids))
	}
	if ids, _ := cl.NodesByLabel(ctx, "Zombie"); len(ids) != 0 {
		t.Fatalf("abandoned transaction's write leaked: %v", ids)
	}
}

// TestPoolWriteSurfacesErrNoPrimary: with every primary gone and nobody
// promoting, Write must back off through discovery retries and surface
// a wrapped ErrNoPrimary — not spin forever and not return a bare
// connection error that hides the real condition.
func TestPoolWriteSurfacesErrNoPrimary(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	p, err := openPool(ctx, f.poolConfig(LeastLag))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f.psrv.Close()
	f.pdb.Crash()

	wctx, cancel := context.WithTimeout(ctx, 700*time.Millisecond)
	defer cancel()
	err = p.Write(wctx, "u", func(c *Client) error {
		_, err := c.CreateNode(wctx, nil, nil)
		return err
	})
	if err == nil {
		t.Fatal("write succeeded with no primary in the fleet")
	}
	if !errors.Is(err, ErrNoPrimary) {
		t.Fatalf("write error does not wrap ErrNoPrimary: %v", err)
	}
}

// TestPoolDiscoversPromotedPrimaryViaTopology: the pool is seeded with
// only the primary and ONE replica; the auto-promoted winner is the
// OTHER replica, which the pool can only learn about from the cluster's
// announced membership. Without topology merging, writes would never
// find the new primary.
func TestPoolDiscoversPromotedPrimaryViaTopology(t *testing.T) {
	ctx := context.Background()

	// A 3-node fleet with cluster controllers. Node IDs follow group
	// order (primary 1, replicas 2 and 3), so among the replicas the
	// deterministic election (ties broken by lowest ID) must pick member
	// 1 — exactly the node the pool is NOT seeded with.
	f, err := fleet.Start(fleet.Spec{
		Replicas: 2,
		DB:       neograph.Options{Dir: t.TempDir()},
		Each:     primarySync,
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
	t.Cleanup(func() { f.Close() })
	primary, hidden, seeded := f.Groups[0][0], f.Groups[0][1], f.Groups[0][2]

	p, err := openPool(ctx, RouterConfig{
		Partitions: Group(primary.Addr(), seeded.Addr()), // the winner is NOT here
		Policy:     LeastLag,
		ProbeEvery: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"T"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Equalise the race for durable-LSN tie-break: both replicas fully
	// caught up before the kill, so the lowest node ID decides.
	target := primary.DB.DurableLSN()
	deadline := time.Now().Add(10 * time.Second)
	for seeded.DB.AppliedLSN() < target || hidden.DB.AppliedLSN() < target {
		if time.Now().After(deadline) {
			t.Fatal("replicas never converged before the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}

	primary.Crash()

	// The pool's next write rides discovery with backoff across the
	// election, and must land on the node it learned only via topology.
	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"T"}, nil)
		return err
	}); err != nil {
		t.Fatalf("write across auto-failover: %v", err)
	}
	if st := hidden.DB.ReplStatus(); st.Role != "primary" {
		t.Fatalf("expected the unseeded lowest-ID node to win; its role is %q", st.Role)
	}
	if got := p.PrimaryAddr(); got != hidden.Addr() {
		t.Fatalf("pool primary = %s, want the topology-discovered %s", got, hidden.Addr())
	}
}

// TestPoolConcurrent hammers a pool from many goroutines — the race
// detector's view of the session free-lists, token map and failover
// paths (run under make race-client).
func TestPoolConcurrent(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	cfg := f.poolConfig(RoundRobin)
	cfg.ConnsPerHost = 4
	p, err := openPool(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			token := fmt.Sprintf("u%d", g%4)
			for i := 0; i < 10; i++ {
				if err := p.Write(ctx, token, func(c *Client) error {
					_, err := c.CreateNode(ctx, []string{"C"}, nil)
					return err
				}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := p.Read(ctx, token, func(c *Client) error {
					_, err := c.AllNodes(ctx)
					return err
				}); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPoolIgnoresOtherPartitionsMembers: a pool adopts announced members of
// its own partition only. Partition 1's primary announces its replica as a
// member of partition 1: the two-group router's pool for partition 1,
// seeded with the primary alone, learns the replica; a one-group router
// (partition 0, whatever it is pointed at) seeded the same way does not.
func TestPoolIgnoresOtherPartitionsMembers(t *testing.T) {
	ctx := context.Background()
	probe := 40 * time.Millisecond
	f, err := fleet.Start(fleet.Spec{
		Partitions: 2, Replicas: 1,
		DB:      neograph.Options{Dir: t.TempDir()},
		Cluster: &cluster.Options{ProbeEvery: probe},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	pm := f.PartitionMap()
	pm.Groups[1].Addrs = pm.Groups[1].Addrs[:1]

	two, err := OpenRouter(ctx, RouterConfig{Partitions: pm, ProbeEvery: probe})
	if err != nil {
		t.Fatal(err)
	}
	defer two.Close()
	one, err := OpenRouter(ctx, RouterConfig{Partitions: Group(pm.Groups[1].Addrs[0]), ProbeEvery: probe})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()

	deadline := time.Now().Add(5 * time.Second)
	for len(two.Pool(1).FleetStatus(ctx)) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("partition 1's pool never learned its announced replica")
		}
		time.Sleep(probe)
	}
	// The one-group pool has probed the same node at the same period.
	if hosts := one.Pool(0).FleetStatus(ctx); len(hosts) != 1 {
		t.Fatalf("a one-group router adopted a member of partition 1: %+v", hosts)
	}
}
