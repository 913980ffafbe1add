package client_test

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"neograph"
	. "neograph/client"
	"neograph/internal/query"
)

// seedGraph creates n nodes labeled S embedded (no wire round trips).
func seedGraph(t *testing.T, db *neograph.DB, n int) []neograph.NodeID {
	t.Helper()
	ids := make([]neograph.NodeID, n)
	err := db.Update(0, func(tx *neograph.Tx) error {
		for i := range ids {
			var err error
			ids[i], err = tx.CreateNode([]string{"S"}, neograph.Props{"i": neograph.Int(int64(i))})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestQueryStreamClient(t *testing.T) {
	db, _, cl := startServer(t)
	ctx := context.Background()
	const n = 1200 // multiple chunks
	ids := seedGraph(t, db, n)

	st, err := cl.Query(ctx, SeedAll())
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for st.Next() {
		rows++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if rows != n {
		t.Fatalf("streamed %d rows, want %d", rows, n)
	}

	// Filters and count compose server-side; one row comes back.
	st, err = cl.Query(ctx, SeedLabel("S").WhereLt("i", neograph.Int(100)).Count())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() || st.Row().Count != 100 || st.Next() {
		t.Fatalf("count query row = %+v", st.Row())
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	// The session survives consumed streams: a plain call still works.
	if _, err := cl.GetNode(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
}

func TestQueryBadPlanKeepsSession(t *testing.T) {
	_, _, cl := startServer(t)
	ctx := context.Background()
	// count must be last: the server rejects the plan in a single clean
	// frame and Query surfaces it as the call's error.
	_, err := cl.Query(ctx, SeedAll().Count().Limit(1))
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
	if cl.Broken() {
		t.Fatal("rejected plan broke the session")
	}
	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestQueryStreamCancelMidStream(t *testing.T) {
	db, _, cl := startServer(t)
	seedGraph(t, db, 20000) // well past what one decoder refill buffers
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := cl.Query(ctx, SeedAll())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first row: %v", st.Err())
	}
	cancel()
	// The cancellation watcher poisons the connection deadline from its
	// own goroutine; give it a beat so the next transport read observes it.
	time.Sleep(20 * time.Millisecond)
	for st.Next() {
	}
	if err := st.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !cl.Broken() {
		t.Fatal("cancelled mid-stream session not marked broken")
	}
}

func TestQueryStreamCloseEarlyBreaksSession(t *testing.T) {
	db, _, cl := startServer(t)
	seedGraph(t, db, 1200)
	st, err := cl.Query(context.Background(), SeedAll())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Next() {
		t.Fatalf("no first row: %v", st.Err())
	}
	st.Close() // frames still in flight: framing untrusted from here
	if !cl.Broken() {
		t.Fatal("early Close left the session un-broken")
	}
	if _, err := cl.AllNodes(context.Background()); !errors.Is(err, ErrBroken) {
		t.Fatalf("call after early Close = %v, want ErrBroken", err)
	}
}

// TestQueryBatchRefs is the client arm of the batch back-reference
// bugfix: a node, an edge to it, a property and a label — all referring
// to batch-local creations — land in ONE round trip.
func TestQueryBatchRefs(t *testing.T) {
	_, _, cl := startServer(t)
	ctx := context.Background()
	var b Batch
	alice := b.CreateNode([]string{"Person"}, nil)
	bob := b.CreateNode([]string{"Person"}, nil)
	knows := b.CreateRelRef("KNOWS", alice, bob, neograph.Props{"since": neograph.Int(2020)})
	b.SetNodePropRef(alice, "name", neograph.String("alice"))
	b.AddLabelRef(bob, "Brewer")
	res, err := cl.RunBatch(ctx, &b)
	if err != nil {
		t.Fatal(err)
	}
	aliceID, _ := res.ID(alice)
	bobID, _ := res.ID(bob)
	relID, _ := res.ID(knows)
	rel, err := cl.GetRel(ctx, relID)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Start != aliceID || rel.End != bobID {
		t.Fatalf("rel %d->%d, want %d->%d", rel.Start, rel.End, aliceID, bobID)
	}
	n, err := cl.GetNode(ctx, aliceID)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := n.Props["name"].AsString(); s != "alice" {
		t.Fatalf("ref-set prop = %v", n.Props["name"])
	}

	// A forward reference fails validation client-side, before any wire
	// traffic; a reference to a non-creating op aborts server-side with
	// the op named.
	var bad Batch
	bad.CreateRelRef("R", 0, 1, nil) // refs ops 0 and 1: itself and beyond
	if _, err := cl.RunBatch(ctx, &bad); err == nil {
		t.Fatal("self/forward ref accepted")
	}
	var bad2 Batch
	bad2.GetNode(aliceID)
	bad2.SetNodePropRef(0, "k", neograph.Int(1))
	_, err = cl.RunBatch(ctx, &bad2)
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("non-creating ref err = %v, want BatchError at op 1", err)
	}
}

// TestQueryKHopStableUnderWriters is the snapshot-isolation equivalence
// check, meant for -race runs: a streamed k-hop over a static component
// must equal the embedded query.BFS answer while concurrent writers
// churn a disjoint component — the whole plan sees one MVCC snapshot.
func TestQueryKHopStableUnderWriters(t *testing.T) {
	db, _, cl := startServer(t)
	ctx := context.Background()

	// Static component A: a braided chain the writers never touch.
	var a []neograph.NodeID
	err := db.Update(0, func(tx *neograph.Tx) error {
		for i := 0; i < 24; i++ {
			id, err := tx.CreateNode([]string{"A"}, nil)
			if err != nil {
				return err
			}
			a = append(a, id)
		}
		for i := 0; i+1 < len(a); i++ {
			if _, err := tx.CreateRel("N", a[i], a[i+1], nil); err != nil {
				return err
			}
		}
		for i := 0; i+4 < len(a); i += 4 {
			if _, err := tx.CreateRel("SKIP", a[i], a[i+4], nil); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Writers churn component B concurrently: creates, edges, deletes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []neograph.NodeID
			for {
				select {
				case <-stop:
					return
				default:
				}
				db.Update(0, func(tx *neograph.Tx) error {
					id, err := tx.CreateNode([]string{"B"}, nil)
					if err != nil {
						return err
					}
					if len(mine) > 0 {
						if _, err := tx.CreateRel("B", mine[len(mine)-1], id, nil); err != nil {
							return err
						}
					}
					mine = append(mine, id)
					if len(mine) > 8 {
						if err := tx.DetachDeleteNode(mine[0]); err != nil {
							return err
						}
						mine = mine[1:]
					}
					return nil
				})
			}
		}()
	}

	type visit struct {
		id    neograph.NodeID
		depth int
	}
	for iter := 0; iter < 15; iter++ {
		st, err := cl.Query(ctx, SeedIDs(a[0]).KHop("both", 3))
		if err != nil {
			t.Fatal(err)
		}
		var streamed []visit
		for st.Next() {
			streamed = append(streamed, visit{st.Row().ID, st.Row().Depth})
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		var embedded []visit
		db.View(func(tx *neograph.Tx) error {
			return query.BFS(tx, a[0], neograph.Both, 3, func(id neograph.NodeID, d int) bool {
				embedded = append(embedded, visit{id, d})
				return true
			})
		})
		if len(streamed) != len(embedded) {
			t.Fatalf("iter %d: streamed %d visits, embedded %d", iter, len(streamed), len(embedded))
		}
		for i := range streamed {
			if streamed[i] != embedded[i] {
				t.Fatalf("iter %d: visit %d = %+v, embedded %+v", iter, i, streamed[i], embedded[i])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestQueryPoolRoutesToReplica checks the query op is replica-eligible
// with read-your-writes: the stream is served by a replica session gated
// on the token's LSN, never the primary while replicas are healthy.
func TestQueryPoolRoutesToReplica(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	p, err := openPool(ctx, f.poolConfig(LeastLag))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"QR"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Kill the primary's client-facing server (WAL shipping to the
	// replicas is a separate listener and stays up): if the query can
	// only run on the primary — the bug this PR fixes — it now fails.
	f.psrv.DrainGrace = 100 * time.Millisecond
	f.psrv.Close()
	rows := 0
	if err := p.Query(ctx, "u", SeedLabel("QR"), func(st *QueryStream) error {
		rows = 0 // restartable
		for st.Next() {
			rows++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 1 {
		t.Fatalf("replica-routed query saw %d rows, want 1 (RYW gate)", rows)
	}
}

// choke is a TCP proxy that relays only the first `allow` response bytes
// of each connection, then leaves the wire hanging until Kill tears every
// connection down. It makes "the replica died mid-stream" deterministic:
// however fast the server streams and however large the kernel's socket
// buffers autotune, the client can never see more than `allow` bytes, so
// a larger result is ALWAYS still in flight when Kill fires.
type choke struct {
	ln     net.Listener
	allow  int64
	mu     sync.Mutex
	conns  []net.Conn
	killed bool // under mu: a pair accepted before Kill but registered after it is closed at once
	once   sync.Once
	stall  chan struct{}
}

func startChoke(t *testing.T, target string, allow int64) *choke {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &choke{ln: ln, allow: allow, stall: make(chan struct{})}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				down.Close()
				continue
			}
			c.mu.Lock()
			if c.killed {
				c.mu.Unlock()
				down.Close()
				up.Close()
				return
			}
			c.conns = append(c.conns, down, up)
			c.mu.Unlock()
			go io.Copy(up, down) // requests flow freely
			go func() {
				io.CopyN(down, up, c.allow) // budgeted responses...
				<-c.stall                   // ...then the wire hangs
			}()
		}
	}()
	t.Cleanup(c.Kill)
	return c
}

func (c *choke) Addr() string { return c.ln.Addr().String() }

// Kill closes the listener and every relayed connection: established
// streams tear, new dials are refused.
func (c *choke) Kill() {
	c.once.Do(func() {
		close(c.stall)
		c.ln.Close()
		c.mu.Lock()
		defer c.mu.Unlock()
		c.killed = true
		for _, conn := range c.conns {
			conn.Close()
		}
	})
}

// TestQueryPoolFailoverMidStream kills the serving replica while a
// result is mid-flight: the pool must mark that stream's session broken,
// fail over to the next candidate (ultimately the primary) and re-run
// fn with a fresh, complete stream.
func TestQueryPoolFailoverMidStream(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	// Replica client traffic runs through throttling proxies (WAL
	// shipping from the primary is a separate listener and unaffected).
	ch1 := startChoke(t, f.r1srv.Addr(), 32<<10)
	ch2 := startChoke(t, f.r2srv.Addr(), 32<<10)
	p, err := openPool(ctx, RouterConfig{
		Partitions: Group(f.psrv.Addr(), ch1.Addr(), ch2.Addr()),
		Policy:     LeastLag,
		ProbeEvery: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// ~280KB of result — far past each connection's 32KB relay budget.
	const n = 20_000
	seedGraph(t, f.pdb, n)
	// One pool write after the bulk load: its token gates replicas on
	// having applied everything above.
	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"Marker"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}

	attempts, rows := 0, 0
	err = p.Query(ctx, "u", SeedAll(), func(st *QueryStream) error {
		attempts++
		rows = 0
		for st.Next() {
			rows++
			if attempts == 1 && rows == 1 {
				// The replica fleet dies under the in-flight stream.
				ch1.Kill()
				ch2.Kill()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("query did not survive replica death: %v (attempts=%d)", err, attempts)
	}
	if attempts < 2 {
		t.Fatalf("stream completed in %d attempt(s); replica death never interrupted it", attempts)
	}
	if rows != n+1 {
		t.Fatalf("failed-over stream saw %d rows, want %d", rows, n+1)
	}
}

// TestQueryPoolPrimaryFallback: with no replicas at all, pool queries
// serve from the primary.
func TestQueryPoolPrimaryFallback(t *testing.T) {
	f := startFleet(t)
	ctx := context.Background()
	f.r1srv.Close()
	f.r2srv.Close()
	p, err := openPool(ctx, f.poolConfig(LeastLag))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Write(ctx, "u", func(c *Client) error {
		_, err := c.CreateNode(ctx, []string{"PF"}, nil)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	count := uint64(0)
	if err := p.Query(ctx, "u", SeedLabel("PF").Count(), func(st *QueryStream) error {
		for st.Next() {
			count = st.Row().Count
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("primary-fallback count = %d, want 1", count)
	}
}
