package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/partition"
	"neograph/internal/server"
	"neograph/internal/trace"
	"neograph/internal/wire"
	"neograph/internal/workload"
)

// node is one database, and for the networked workloads the server (and
// partition coordinator) in front of it.
type node struct {
	dir   string
	db    *neograph.DB
	srv   *server.Server
	coord *partition.Coordinator
}

// group is one partition: a primary and, on the fleet, its sync replica.
type group struct {
	primary *node
	replica *node
}

// graph is what the load created, as the IDs the op streams index into.
// It outlives a crash and reopen of the databases.
type graph struct {
	people [][]neograph.NodeID        // [partition][person index]
	ledger [clients][]neograph.NodeID // [client][partition]
}

// sut is the system under test for one workload: databases, servers and
// the client-side handles the two load-generating goroutines use.
type sut struct {
	w      *workloadDef
	root   string
	scale  int // people in the loaded graph
	tracer *trace.Tracer
	fs     *crashFS
	groups []*group
	conns  []*client.Client // remote workloads: one connection per client
	router *client.Router   // fleet
	g      *graph
}

func (s *sut) options(dir string, part int) neograph.Options {
	o := neograph.Options{
		Dir:                dir,
		GCInterval:         gcInterval,
		CheckpointInterval: checkpointInterval,
		Tracer:             s.tracer,
		FS:                 s.fs,
	}
	// Durability is the engine's default: every commit is acknowledged
	// only after its group's fsync (DisableSyncCommits=false,
	// CommitMaxDelay=0).
	o.CachePages = fitCachePages
	if s.w.kind == kindEmbed {
		o.CachePages = embedCachePages
	}
	if s.w.parts > 1 {
		o.PartitionID, o.PartitionCount = part, s.w.parts
	}
	return o
}

// open opens every database under s.root (creating or recovering), then
// the servers, coordinators and client handles in front of them.
func (s *sut) open(ctx context.Context) error {
	s.groups = make([]*group, s.w.parts)
	pm := wire.PartitionMap{Version: 1, Count: s.w.parts}
	for p := range s.groups {
		g := &group{primary: &node{dir: filepath.Join(s.root, fmt.Sprintf("p%d-primary", p))}}
		s.groups[p] = g
		po := s.options(g.primary.dir, p)
		if s.w.kind == kindFleet {
			po.ReplicationAddr = "127.0.0.1:0"
			po.SyncReplicas = 1
		}
		var err error
		if g.primary.db, err = neograph.Open(po); err != nil {
			return fmt.Errorf("open primary %d: %w", p, err)
		}
		if s.w.kind == kindEmbed {
			continue
		}
		if g.primary.srv, err = server.NewWithConfig(g.primary.db, "127.0.0.1:0", server.Config{Tracer: s.tracer}); err != nil {
			return fmt.Errorf("serve primary %d: %w", p, err)
		}
		addrs := []string{g.primary.srv.Addr()}
		if s.w.kind == kindFleet {
			g.replica = &node{dir: filepath.Join(s.root, fmt.Sprintf("p%d-replica", p))}
			ro := s.options(g.replica.dir, p)
			ro.ReplicaOf = g.primary.db.ReplicationAddress()
			if g.replica.db, err = neograph.Open(ro); err != nil {
				return fmt.Errorf("open replica %d: %w", p, err)
			}
			if g.replica.srv, err = server.NewWithConfig(g.replica.db, "127.0.0.1:0", server.Config{Tracer: s.tracer}); err != nil {
				return fmt.Errorf("serve replica %d: %w", p, err)
			}
			addrs = append(addrs, g.replica.srv.Addr())
		}
		pm.Groups = append(pm.Groups, wire.PartitionGroup{ID: uint32(p), Addrs: addrs})
	}
	switch s.w.kind {
	case kindRemote, kindTraverse:
		for c := 0; c < clients; c++ {
			cl, err := client.Dial(ctx, s.groups[0].primary.srv.Addr())
			if err != nil {
				return err
			}
			s.conns = append(s.conns, cl)
		}
	case kindFleet:
		for p, g := range s.groups {
			for _, n := range []*node{g.primary, g.replica} {
				n.coord = partition.NewCoordinator(uint32(p), partition.NewTopology(pm), n.srv.Local(), n.db.AppliedLSN(), nil)
				n.srv.SetPartition(n.coord, uint32(p), s.w.parts)
				n.coord.Start()
			}
		}
		// A commit with SyncReplicas=1 waits for its replica; make sure
		// each is streaming before the first one.
		for p, g := range s.groups {
			deadline := time.Now().Add(10 * time.Second)
			for len(g.primary.db.ReplStatus().Replicas) == 0 {
				if time.Now().After(deadline) {
					return fmt.Errorf("partition %d: replica never connected", p)
				}
				time.Sleep(time.Millisecond)
			}
		}
		var err error
		// One connection per host and client goroutine is all the two
		// clients can use.
		if s.router, err = client.OpenRouter(ctx, client.RouterConfig{Partitions: pm, ConnsPerHost: clients}); err != nil {
			return err
		}
	}
	return nil
}

// nodes lists every open node, primaries first within a group.
func (s *sut) nodes() []*node {
	var out []*node
	for _, g := range s.groups {
		if g == nil {
			continue
		}
		for _, n := range []*node{g.primary, g.replica} {
			if n != nil {
				out = append(out, n)
			}
		}
	}
	return out
}

// shutdown stops the client handles, coordinators and servers, then ends
// every database with end (DB.Close or DB.Crash).
func (s *sut) shutdown(end func(*neograph.DB) error) error {
	for _, c := range s.conns {
		c.Close()
	}
	s.conns = nil
	if s.router != nil {
		s.router.Close()
		s.router = nil
	}
	var first error
	for _, n := range s.nodes() {
		if n.coord != nil {
			n.coord.Close()
		}
		if n.srv != nil {
			n.srv.DrainGrace = 100 * time.Millisecond
			n.srv.Close()
		}
	}
	// Replicas before primaries, so no applier logs a lost primary.
	for _, g := range s.groups {
		if g == nil {
			continue
		}
		for _, n := range []*node{g.replica, g.primary} {
			if n != nil && n.db != nil {
				if err := end(n.db); err != nil && first == nil {
					first = err
				}
			}
		}
	}
	s.groups = nil
	return first
}

func (s *sut) close() error { return s.shutdown((*neograph.DB).Close) }

// crash ends every database the way a power cut would: nothing is
// flushed, and WAL bytes no fsync covered are cut off, so a reopen sees
// only what was made durable.
func (s *sut) crash() error {
	if err := s.shutdown((*neograph.DB).Crash); err != nil && !errors.Is(err, neograph.ErrClosed) {
		return fmt.Errorf("crash: %w", err)
	}
	if err := s.fs.discardUnsynced(); err != nil {
		return fmt.Errorf("crash: discard unsynced WAL: %w", err)
	}
	return nil
}

// destroy closes the system and deletes its files.
func (s *sut) destroy() {
	s.close()
	os.RemoveAll(s.root)
}

// primaries returns the primary database of every partition.
func (s *sut) primaries() []*neograph.DB {
	out := make([]*neograph.DB, len(s.groups))
	for p, g := range s.groups {
		out[p] = g.primary.db
	}
	return out
}

// load builds the social graph (one per partition, the partitions side by
// side) and the clients' ledger nodes through the embedded handles.
func (s *sut) load() error {
	s.g = &graph{people: make([][]neograph.NodeID, s.w.parts)}
	ledgers := make([][]neograph.NodeID, s.w.parts) // [partition][client]
	errs := make([]error, s.w.parts)
	var wg sync.WaitGroup
	for p, db := range s.primaries() {
		wg.Add(1)
		go func(p int, db *neograph.DB) {
			defer wg.Done()
			sg, err := workload.BuildSocial(db, workload.SocialConfig{
				People: s.scale / s.w.parts, AvgFriends: avgFriends, Seed: graphSeed + int64(p),
			})
			if err != nil {
				errs[p] = fmt.Errorf("load partition %d: %w", p, err)
				return
			}
			s.g.people[p] = sg.People
			errs[p] = db.Update(0, func(tx *neograph.Tx) error {
				for c := 0; c < clients; c++ {
					id, err := tx.CreateNode([]string{"Ledger"}, neograph.Props{
						"client": neograph.Int(int64(c)), "seq": neograph.Int(0), "xseq": neograph.Int(0),
					})
					if err != nil {
						return err
					}
					ledgers[p] = append(ledgers[p], id)
				}
				return nil
			})
		}(p, db)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for c := 0; c < clients; c++ {
		for p := range ledgers {
			s.g.ledger[c] = append(s.g.ledger[c], ledgers[p][c])
		}
	}
	return s.syncReplicas()
}

// syncReplicas waits until every replica has applied its primary's log up
// to the durable horizon (the primary ships nothing beyond it).
func (s *sut) syncReplicas() error {
	for p, g := range s.groups {
		if g.replica == nil {
			continue
		}
		if err := g.replica.db.WaitApplied(g.primary.db.DurableLSN(), 10*time.Second); err != nil {
			return fmt.Errorf("partition %d: replica catch-up: %w", p, err)
		}
	}
	return nil
}

// checkpointAll forces a checkpoint on every database, replicas included.
func (s *sut) checkpointAll() error {
	if err := s.syncReplicas(); err != nil {
		return err
	}
	for _, n := range s.nodes() {
		if err := n.db.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint %s: %w", filepath.Base(n.dir), err)
		}
	}
	return nil
}

// diskBytes is every database's WAL end position plus the size of its
// store files: the bytes the system has written to disk so far, counting
// a replica's copy too.
func (s *sut) diskBytes() (int64, error) {
	var total int64
	for _, n := range s.nodes() {
		total += int64(n.db.AppliedLSN())
		sizes, err := n.db.Engine().Store().FileSizes()
		if err != nil {
			return 0, err
		}
		for _, sz := range sizes {
			total += sz
		}
	}
	return total, nil
}

// setUp builds a fresh system under root: open, load, age, checkpoint,
// age some more. The aging pass runs the workload's own write path from
// one goroutine, one client after the other, at fixed counts.
func setUp(ctx context.Context, w *workloadDef, root string, shrink int, tracer *trace.Tracer, fs *crashFS, aging [clients][]op) (*sut, *runner, error) {
	s := &sut{w: w, root: root, scale: w.people / shrink, tracer: tracer, fs: fs}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, nil, err
	}
	if err := s.open(ctx); err != nil {
		s.destroy()
		return nil, nil, err
	}
	if err := s.load(); err != nil {
		s.destroy()
		return nil, nil, err
	}
	r := newRunner(s)
	age := func(from, to int) error {
		for c := 0; c < clients; c++ {
			for i := from / clients; i < to/clients; i++ {
				if res := r.exec(ctx, c, &aging[c][i%len(aging[c])], nil); res.err != nil {
					return fmt.Errorf("aging client %d op %d: %w", c, i, res.err)
				}
			}
		}
		return nil
	}
	err := age(0, agingBefore/shrink)
	if err == nil {
		err = s.checkpointAll()
	}
	if err == nil {
		err = age(agingBefore/shrink, (agingBefore+agingAfter)/shrink)
	}
	if err == nil {
		err = s.syncReplicas()
	}
	if err != nil {
		s.destroy()
		return nil, nil, err
	}
	return s, r, nil
}

// recoverOnce crashes the system, reopens it from its files, and returns
// the time from the start of the reopen to the first successful read
// through the workload's own read path.
func (s *sut) recoverOnce(ctx context.Context, r *runner) (time.Duration, error) {
	if err := s.crash(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := s.open(ctx); err != nil {
		return 0, fmt.Errorf("reopen: %w", err)
	}
	first := op{}
	if res := r.exec(ctx, 0, &first, nil); res.err != nil {
		return 0, fmt.Errorf("first read after recovery: %w", res.err)
	}
	return time.Since(start), nil
}
