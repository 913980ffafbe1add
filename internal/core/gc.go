package core

import (
	"errors"
	"time"

	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/store"
)

// GCReport summarises one collector run (experiment E4's measurements).
type GCReport struct {
	Mode         GCMode
	Horizon      mvcc.TS
	Collected    int // versions reclaimed from chains
	Scanned      int // versions examined (== Collected+1 at most for threaded; whole cache for vacuum)
	IndexPruned  int // dead index entries dropped
	IndexScanned int // queued index removals examined (<= IndexPruned + one per queue that stopped the walk)
	EntitiesDead int // chains fully collected (tombstoned entities removed)
	Duration     time.Duration
}

// RunGC runs one garbage collection cycle in the configured mode and
// returns its report. The horizon is the oldest active transaction's
// start timestamp (or the watermark when idle): versions below it can
// never be read again (§3).
func (e *Engine) RunGC() GCReport {
	start := time.Now()
	horizon := e.active.Horizon(e.oracle.Watermark())
	var rep GCReport
	rep.Mode = e.opts.GCMode
	rep.Horizon = horizon

	// An entity is dead when the collector has emptied its chain; the last
	// version to go — the tombstone — still names a relationship's endpoints.
	var dead []deadEntity
	onDead := func(owner any, last *mvcc.Version) { dead = append(dead, deadEntity{owner.(*object), last}) }

	switch e.opts.GCMode {
	case GCThreaded:
		rep.Collected = e.gcList.Collect(horizon, onDead)
		// The threaded list touches exactly the collected versions plus
		// the one probe that stopped the walk.
		rep.Scanned = rep.Collected + 1
	case GCVacuum:
		// Vacuum-style: visit every chain in the cache.
		for _, o := range e.objects() {
			before := o.chain.Len()
			removed, tombstone := o.chain.PruneOlderThan(horizon)
			rep.Scanned += before
			rep.Collected += removed
			if tombstone != nil {
				onDead(o, tombstone)
			}
		}
	}

	for _, collect := range []func(mvcc.TS) (int, int){
		e.labelIdx.Collect, e.nodeProps.Collect, e.relProps.Collect,
	} {
		pruned, scanned := collect(horizon)
		rep.IndexPruned += pruned
		rep.IndexScanned += scanned
	}

	rep.EntitiesDead = len(dead)
	e.reapDead(dead)

	rep.Duration = time.Since(start)
	e.stats.gcRuns.Add(1)
	e.stats.gcCollected.Add(uint64(rep.Collected))
	e.stats.gcScanned.Add(uint64(rep.Scanned))
	e.stats.dead.Add(uint64(rep.EntitiesDead))
	return rep
}

// deadEntity is an entity whose chain the collector emptied, and the
// version that went last.
type deadEntity struct {
	o    *object
	last *mvcc.Version
}

// objects snapshots every cached entity.
func (e *Engine) objects() []*object {
	var objs []*object
	for i := range e.stripes {
		s := &e.stripes[i]
		s.mu.RLock()
		for _, o := range s.nodes {
			objs = append(objs, o)
		}
		for _, o := range s.rels {
			objs = append(objs, o)
		}
		s.mu.RUnlock()
	}
	return objs
}

// reapDead removes fully collected entities from the cache maps, the
// adjacency structure, the dirty queue, and the persistent store. A dead
// relationship detaches from both endpoints; a dead node drops its (by
// now empty) adjacency set. Store removals share the maintenance mutex
// with the checkpointer so a stale checkpoint write cannot resurrect a
// removed record.
func (e *Engine) reapDead(dead []deadEntity) {
	if len(dead) == 0 {
		return
	}
	for _, d := range dead {
		o := d.o
		if o.key.kind == lock.KindNode {
			s := e.stripeOf(o.key)
			s.mu.Lock()
			delete(s.nodes, o.key.id)
			delete(s.adj, o.key.id)
			s.mu.Unlock()
		} else {
			s := e.stripeOf(o.key)
			s.mu.Lock()
			delete(s.rels, o.key.id)
			s.mu.Unlock()
			// Adjacency entries live with the endpoint nodes, which may
			// hash to different stripes than the relationship itself.
			st := d.last.Data.(*RelState)
			e.removeAdjacency(st.Start, o.key.id)
			if st.End != st.Start {
				e.removeAdjacency(st.End, o.key.id)
			}
		}
	}

	e.dirtyMu.Lock()
	for _, d := range dead {
		delete(e.dirty, d.o.key)
	}
	e.dirtyMu.Unlock()

	if e.store != nil {
		e.maintMu.Lock()
		defer e.maintMu.Unlock()
	}
	for _, d := range dead {
		e.reapID(d.o.key)
	}
}

// reapID erases a reaped entity's record from the store and returns its ID
// to the allocator — unless the ID has its next owner already: the primary
// reaped the entity and re-used the ID for a creation that is now parked
// in a prepared transaction, and this engine (a recovery over a store one
// flush behind, a replica whose collector lags) reaps the previous owner
// only now. The stripe latch orders the check against a redo parking that
// transaction (fold), which reserves the ID under the same latch.
func (e *Engine) reapID(k entKey) {
	s := e.stripeOf(k)
	s.valMu.Lock()
	defer s.valMu.Unlock()
	if e.store != nil {
		var err error
		if k.kind == lock.KindRel {
			err = e.store.RemoveRel(k.id)
		} else {
			err = e.store.RemoveNode(k.id)
		}
		// Not found: created and deleted before any checkpoint — there never
		// was a record, only the ID.
		if err != nil && !errors.Is(err, store.ErrNotFound) {
			return
		}
	}
	if _, parked := s.prep[k]; !parked {
		e.releaseID(k)
	}
}
