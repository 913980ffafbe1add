package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"neograph/internal/faultfs"
	"neograph/internal/lock"
	"neograph/internal/value"
)

// This file is TestRedoEquivalence over histories nobody wrote by hand: a
// seeded sequence of transactions — every kind of change an entity can
// undergo, plain and two-phase, with checkpoints and collections between
// them — runs on a primary whose log a replica follows; the primary is
// killed at recorded file-system points, recovered, and carries on. Since
// an update is logged as a delta, a redo reproduces the primary's state
// only if every delta meets exactly the version it was made from: the
// three engines are compared entity by entity and index by index, and no
// allocator may hand out an ID that is taken.

// redoUniverse is small on purpose: steps must collide — the same entity
// changed again, the same key set, removed and set again, the same ID
// re-used — for a misapplied delta to show.
var redoUniverse = struct {
	labels, keys, relTypes []string
	values                 []value.Value
}{
	labels:   []string{"L0", "L1", "L2"},
	keys:     []string{"k0", "k1", "k2", "k3"},
	relTypes: []string{"R0", "R1"},
	values: []value.Value{
		value.Int(0), value.Int(1), value.Int(-7), value.String("a"), value.String(""), value.Bool(true),
		value.Float(0), value.Float(math.Copysign(0, -1)), // equal to each other, not the same bytes
		value.List(value.Int(1), value.String("x")), value.Bytes([]byte{0xFF}),
	},
}

// redoHistory is the seeded driver. Everything it decides depends on its
// random source and on what the engine holds, so two runs of one seed make
// the same choices for as long as their engines agree.
type redoHistory struct {
	rng      *rand.Rand
	nextGtxn uint64
	// beforeCheckpoint runs ahead of every forced checkpoint: the replica
	// must have the log before a checkpoint may truncate it.
	beforeCheckpoint func()
}

func (h *redoHistory) pick(from []string) string { return from[h.rng.Intn(len(from))] }

func (h *redoHistory) value() value.Value {
	return redoUniverse.values[h.rng.Intn(len(redoUniverse.values))]
}

// props builds a property map of up to three keys; with nulls, some of
// them explicitly Null — kept by a creation, a removal to SetNodeProps.
func (h *redoHistory) props(nulls bool) value.Map {
	m := value.Map{}
	for i, n := 0, h.rng.Intn(4); i < n; i++ {
		v := h.value()
		if nulls && h.rng.Intn(4) == 0 {
			v = value.Null
		}
		m[h.pick(redoUniverse.keys)] = v
	}
	return m
}

// benign reports an outcome a history expects now and then: a key held by
// a prepared transaction, an entity deleted earlier in the transaction.
func benign(err error) bool {
	return errors.Is(err, ErrWriteConflict) || errors.Is(err, ErrNotFound) || errors.Is(err, ErrHasRels)
}

// stage applies one to four random changes to tx. It returns the first
// error that is not benign; after a benign one the transaction is only
// good for aborting (stopped).
func (h *redoHistory) stage(tx *Tx) (stopped bool, err error) {
	nodes, err := tx.AllNodes()
	if err != nil {
		return false, err
	}
	rels, err := tx.AllRels()
	if err != nil {
		return false, err
	}
	for i, n := 0, 1+h.rng.Intn(4); i < n; i++ {
		op := h.rng.Intn(12)
		if len(nodes) < 2 {
			op = 0
		}
		var node, other, rel uint64
		if len(nodes) > 0 {
			node, other = nodes[h.rng.Intn(len(nodes))], nodes[h.rng.Intn(len(nodes))]
		}
		if len(rels) > 0 {
			rel = rels[h.rng.Intn(len(rels))]
		} else if op >= 9 {
			op = 8
		}
		var id uint64
		switch op {
		case 0:
			var labels []string
			for _, l := range redoUniverse.labels {
				if h.rng.Intn(2) == 0 {
					labels = append(labels, l)
				}
			}
			if id, err = tx.CreateNode(labels, h.props(true)); err == nil {
				nodes = append(nodes, id)
			}
		case 1, 2:
			err = tx.SetNodeProp(node, h.pick(redoUniverse.keys), h.value())
		case 3:
			err = tx.RemoveNodeProp(node, h.pick(redoUniverse.keys))
		case 4:
			err = tx.SetNodeProps(node, h.props(true))
		case 5:
			err = tx.AddLabel(node, h.pick(redoUniverse.labels))
		case 6:
			err = tx.RemoveLabel(node, h.pick(redoUniverse.labels))
		case 7:
			err = tx.DetachDeleteNode(node)
		case 8:
			if id, err = tx.CreateRel(h.pick(redoUniverse.relTypes), node, other, h.props(false)); err == nil {
				rels = append(rels, id)
			}
		case 9:
			err = tx.SetRelProp(rel, h.pick(redoUniverse.keys), h.value())
		case 10:
			err = tx.RemoveRelProp(rel, h.pick(redoUniverse.keys))
		case 11:
			err = tx.DeleteRel(rel)
		}
		if benign(err) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// step runs one step of the history on e: a transaction (committed,
// aborted or prepared), a verdict for a prepared one, an acknowledgement,
// a checkpoint or a collection.
func (h *redoHistory) step(e *Engine) error {
	switch roll := h.rng.Intn(20); {
	case roll < 12:
		tx := e.Begin()
		stopped, err := h.stage(tx)
		if err != nil {
			tx.Abort()
			return err
		}
		switch end := h.rng.Intn(10); {
		case stopped || end == 0:
			return tx.Abort()
		case end <= 2:
			h.nextGtxn++
			var guard []uint64
			if nodes, _ := tx.AllNodes(); len(nodes) > 0 && h.rng.Intn(2) == 0 {
				guard = []uint64{nodes[h.rng.Intn(len(nodes))]}
			}
			if _, err = tx.Prepare(h.nextGtxn, 1, guard); benign(err) {
				err = nil
			}
			return err
		default:
			if err = tx.Commit(); benign(err) {
				err = nil
			}
			return err
		}
	case roll < 15:
		pending := e.InDoubt()
		if len(pending) == 0 {
			return nil
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i].Gtxn < pending[j].Gtxn })
		var owed []uint32
		if h.rng.Intn(3) == 0 {
			owed = []uint32{1}
		}
		_, _, err := e.DecideTxn(pending[h.rng.Intn(len(pending))].Gtxn, h.rng.Intn(4) != 0, owed)
		return err
	case roll < 16:
		if unacked := e.UnackedDecisions(); len(unacked) > 0 {
			sort.Slice(unacked, func(i, j int) bool { return unacked[i].Gtxn < unacked[j].Gtxn })
			e.AckDecision(unacked[0].Gtxn, 1)
		}
		return nil
	case roll < 18:
		h.beforeCheckpoint()
		return e.Checkpoint()
	default:
		e.RunGC()
		return nil
	}
}

// checkAllocators fails if e's allocators would hand out an ID that is
// taken: by an entity in the cache (a tombstone awaiting collection
// included) or by a creation parked in a prepared transaction. That much
// every engine owes; which unused IDs it still knows to be free it does
// not — an ID a transaction allocated and never logged is free to an
// engine that rebuilt its allocators from the files, and merely lost to
// the one that handed it out.
func checkAllocators(t *testing.T, name string, e *Engine) {
	t.Helper()
	taken := map[entKey]string{}
	for i := range e.stripes {
		for id := range e.stripes[i].nodes {
			taken[entKey{lock.KindNode, id}] = "a cached node"
		}
		for id := range e.stripes[i].rels {
			taken[entKey{lock.KindRel, id}] = "a cached relationship"
		}
	}
	for _, p := range e.prepared {
		for _, m := range p.muts {
			if m.created {
				taken[m.key] = fmt.Sprintf("a creation of prepared transaction %d", p.gtxn)
			}
		}
	}
	for kind, alloc := range map[lock.EntityKind]func() uint64{lock.KindNode: e.allocNodeID, lock.KindRel: e.allocRelID} {
		bound := e.store.NodeHighWater()
		if kind == lock.KindRel {
			bound = e.store.RelHighWater()
		}
		var got []uint64
		for id := alloc(); ; id = alloc() { // the whole free list, then one past the high water
			got = append(got, id)
			if id >= bound {
				break
			}
		}
		for _, id := range got {
			if owner, ok := taken[entKey{kind, id}]; ok {
				t.Errorf("%s engine: allocator handed out %s, which is %s", name, fmtKey(entKey{kind, id}), owner)
			}
			e.releaseID(entKey{kind, id})
		}
	}
}

// dumpEngine renders everything a reader, a writer or an allocation could
// observe of e, in a form two engines that folded the same log must
// share.
func dumpEngine(t *testing.T, e *Engine) string {
	t.Helper()
	e.RunGC() // what is collectable is collected: reaped entities free their IDs
	tx := e.Begin()
	defer tx.Abort()
	var b strings.Builder
	nodes, err := tx.AllNodes()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range nodes {
		n, err := tx.GetNode(id)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := tx.Relationships(id, Outgoing)
		in, _ := tx.Neighbors(id, Incoming)
		fmt.Fprintf(&b, "node %d %v %v out %v in %v\n", id, n.Labels, n.Props, out, in)
	}
	rels, err := tx.AllRels()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rels {
		r, err := tx.GetRel(id)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "rel %d %s %d->%d %v\n", id, r.Type, r.Start, r.End, r.Props)
	}
	for _, l := range redoUniverse.labels {
		ids, _ := tx.NodesByLabel(l)
		fmt.Fprintf(&b, "label %s %v\n", l, ids)
	}
	for _, k := range redoUniverse.keys {
		for _, v := range append([]value.Value{value.Null}, redoUniverse.values...) {
			ns, _ := tx.NodesByProperty(k, v)
			rs, _ := tx.RelsByProperty(k, v)
			if len(ns)+len(rs) > 0 {
				fmt.Fprintf(&b, "index %s=%v nodes %v rels %v\n", k, v, ns, rs)
			}
		}
	}
	inDoubt := e.InDoubt()
	sort.Slice(inDoubt, func(i, j int) bool { return inDoubt[i].Gtxn < inDoubt[j].Gtxn })
	unacked := e.UnackedDecisions()
	sort.Slice(unacked, func(i, j int) bool { return unacked[i].Gtxn < unacked[j].Gtxn })
	// (Not the watermark: an engine restarted from a store whose newest
	// timestamp belonged to entities since reaped resumes one lower.)
	fmt.Fprintf(&b, "in doubt %+v unacked %+v\n", inDoubt, unacked)
	return b.String()
}

// sameEngines fails unless every engine dumps like the first and has
// sound allocators.
func sameEngines(t *testing.T, when string, names []string, engines ...*Engine) {
	t.Helper()
	want := dumpEngine(t, engines[0])
	for i, e := range engines {
		if got := dumpEngine(t, e); got != want {
			t.Fatalf("%s: the %s engine differs from the %s one\n--- %s\n%s--- %s\n%s",
				when, names[i], names[0], names[i], got, names[0], want)
		}
		checkAllocators(t, when+": "+names[i], e)
	}
}

const redoHistorySteps = 90

// runRedoHistory plays one seed's history. With a fault, the primary dies
// at it, recovers on the real file system and finishes the history. It
// returns the file-system points the run passed, for the caller to aim
// the next faults at.
func runRedoHistory(t *testing.T, seed int64, policy ConflictPolicy, fault *faultfs.Fault) map[string]int {
	t.Helper()
	dir := t.TempDir()
	inj := faultfs.NewInjector(faultfs.OS{}, nil)
	if fault != nil {
		inj.Arm(*fault)
	}
	// Small segments and a small page cache: checkpoints truncate and
	// page writes happen inside the run, not at its end.
	opts := func(o *Options) { o.Conflict = policy; o.WALSegmentSize = 1024; o.StoreCachePages = 8 }
	a, err := Open(Options{Dir: dir, Conflict: policy, WALSegmentSize: 1024, StoreCachePages: 8, FS: inj})
	if errors.Is(err, faultfs.ErrCrashed) {
		a, inj = diskEngine(t, dir, opts), faultfs.NewInjector(faultfs.OS{}, nil) // died creating its files
	} else if err != nil {
		t.Fatal(err)
	}
	c := diskEngine(t, t.TempDir(), opts, func(o *Options) { o.Replica = true })
	defer func() { c.Close() }()

	ship := func() {
		t.Helper()
		err := a.WAL().ReadRange(c.AppliedLSN(), a.AppliedLSN(), func(lsn uint64, payload []byte) error {
			return c.ApplyReplicated(lsn, append([]byte(nil), payload...))
		})
		if err != nil {
			t.Fatalf("ship: %v", err)
		}
	}
	h := &redoHistory{rng: rand.New(rand.NewSource(seed))}
	// Property postings are built by the first lookup that names a key. The
	// comparisons below look every key up on every engine; these lookups —
	// off a source of their own, so that the history is the same with or
	// without them — make some of those first lookups happen in the middle
	// of the history, on the primary and on the replica at different
	// points: from there on each maintains what it built.
	lookups := rand.New(rand.NewSource(seed + 1000))
	lookup := func(e *Engine) {
		tx := e.Begin()
		defer tx.Abort()
		k, v := redoUniverse.keys[lookups.Intn(len(redoUniverse.keys))], redoUniverse.values[lookups.Intn(len(redoUniverse.values))]
		if _, err := tx.NodesByProperty(k, v); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.RelsByProperty(k, v); err != nil {
			t.Fatal(err)
		}
	}
	h.beforeCheckpoint = func() {
		if !inj.Crashed() {
			ship()
			if err := c.Checkpoint(); err != nil {
				t.Fatalf("replica checkpoint: %v", err)
			}
		}
	}
	for i := 0; i < redoHistorySteps; i++ {
		err := h.step(a)
		if inj.Crashed() {
			// Dead at the fault. What reached the log is what happened: the
			// recovered engine and the replica, given the rest of that log,
			// must agree, and the history goes on from there.
			a.Crash()
			a = diskEngine(t, dir, opts)
			inj = faultfs.NewInjector(faultfs.OS{}, nil)
			ship()
			sameEngines(t, fmt.Sprintf("after the crash in step %d", i), []string{"recovered", "replica"}, a, c)
			continue
		}
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		ship()
		switch lookups.Intn(12) {
		case 0:
			lookup(a)
		case 1:
			lookup(c)
		}
		if i%10 == 9 {
			// The replica's collector runs on a clock of its own, behind the
			// primary's: a re-used ID can reach it — installed, or parked in
			// a prepared transaction — while the previous owner's tombstone
			// still heads the chain.
			c.RunGC()
		}
	}
	counts := inj.Counts()

	sameEngines(t, "at the end of the history", []string{"primary", "replica"}, a, c)
	// Once more from the files: the primary's after a crash, the replica's
	// after its own checkpoint of the states it built from deltas.
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a.Crash()
	c.Crash()
	a = diskEngine(t, dir, opts)
	defer a.Close()
	c = diskEngine(t, c.Dir(), opts, func(o *Options) { o.Replica = true })
	sameEngines(t, "after both restarted", []string{"recovered primary", "restarted replica"}, a, c)
	return counts
}

// TestRedoEquivalenceOfRandomHistories: see the top of the file. Each
// seed runs once clean, recording the file-system points it passes, and
// then again with the primary killed at a spread of them — log writes and
// fsyncs, store page writes and fsyncs in the middle of a checkpoint
// (the store's flush journal half written, whole but not yet applied,
// half applied, applied but not yet removed: the store ends up a whole
// flush behind the cache or a whole flush ahead of the log's truncation),
// segment removals.
func TestRedoEquivalenceOfRandomHistories(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		policy := []ConflictPolicy{FirstUpdaterWins, FirstCommitterWins}[seed%2]
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			counts := runRedoHistory(t, seed, policy, nil)
			rng := rand.New(rand.NewSource(seed))
			for _, point := range []string{"wal.write", "wal.sync", "wal.remove", "store.write", "store.sync", "store.remove"} {
				if counts[point] == 0 {
					t.Fatalf("the history never reached %s: %v", point, counts)
				}
				for n := 0; n < 3; n++ {
					fault := faultfs.Fault{Point: point, Hit: 1 + rng.Intn(counts[point]), Mode: faultfs.ModeCrash}
					if strings.HasSuffix(point, ".write") && n == 0 {
						fault.Mode, fault.TornBytes = faultfs.ModeTornWrite, -1
					}
					t.Run(fmt.Sprintf("%s-%d-mode%d", point, fault.Hit, fault.Mode), func(t *testing.T) {
						t.Parallel()
						runRedoHistory(t, seed, policy, &fault)
					})
				}
			}
		})
	}
}
