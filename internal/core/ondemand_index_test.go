package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/value"
)

// A property key's postings exist from its first lookup on (propindex.go).
// The tests here hold that to what a reader can tell: nothing. An engine
// that builds a key's postings in the middle of a history answers every
// lookup, at every snapshot still alive, as one that had them from the
// start.

// materialise makes e hold postings for the given property keys, of nodes
// and of relationships, as the first lookup of each would.
func materialise(t *testing.T, e *Engine, keys ...string) {
	t.Helper()
	tx := e.Begin()
	defer tx.Abort()
	for _, k := range keys {
		if _, err := tx.NodesByProperty(k, value.Null); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.RelsByProperty(k, value.Null); err != nil {
			t.Fatal(err)
		}
	}
}

// onDemandUniverse is small so that steps collide: the same key set,
// removed and set again on the same entity, the same value on many.
var onDemandUniverse = struct {
	keys   []string
	values []value.Value
}{
	keys: []string{"k0", "k1", "k2"},
	values: []value.Value{
		value.Int(0), value.Int(1), value.String("a"), value.Bool(true),
		value.Float(0), value.Float(math.Copysign(0, -1)), // equal to each other, not the same bytes
	},
}

// indexedKey names one key of one of the two property indexes.
type indexedKey struct {
	kind lock.EntityKind
	key  string
}

// onDemandHistory drives two engines through one history: eager had every
// key's postings before the history began, lazy gets each at a random
// point of it. readers holds the snapshots kept open on both.
type onDemandHistory struct {
	t           *testing.T
	rng         *rand.Rand
	eager, lazy *Engine
	readers     [][2]*Tx
	built       map[indexedKey]bool // on lazy
}

// both runs one transaction on each engine and checks that they fared
// alike.
func (h *onDemandHistory) both(fn func(tx *Tx) error) {
	h.t.Helper()
	var errs [2]error
	for i, e := range []*Engine{h.eager, h.lazy} {
		tx := e.Begin()
		if errs[i] = fn(tx); errs[i] != nil {
			tx.Abort()
			continue
		}
		errs[i] = tx.Commit()
	}
	if (errs[0] == nil) != (errs[1] == nil) {
		h.t.Fatalf("the engines parted ways: eager %v, lazy %v", errs[0], errs[1])
	}
}

func (h *onDemandHistory) value() value.Value {
	return onDemandUniverse.values[h.rng.Intn(len(onDemandUniverse.values))]
}

func (h *onDemandHistory) key() string {
	return onDemandUniverse.keys[h.rng.Intn(len(onDemandUniverse.keys))]
}

func (h *onDemandHistory) props() value.Map {
	m := value.Map{}
	for i, n := 0, h.rng.Intn(3); i < n; i++ {
		m[h.key()] = h.value()
	}
	return m
}

// write stages one to three random changes, the same on both engines.
func (h *onDemandHistory) write() {
	h.t.Helper()
	view := h.eager.Begin()
	nodes, _ := view.AllNodes()
	rels, _ := view.AllRels()
	view.Abort()
	var ops []func(tx *Tx) error
	for i, n := 0, 1+h.rng.Intn(3); i < n; i++ {
		op := h.rng.Intn(10)
		if len(nodes) < 2 {
			op = 0
		} else if len(rels) == 0 && op >= 6 {
			op = 5
		}
		var node, other, rel ids.ID
		if len(nodes) > 0 {
			node, other = nodes[h.rng.Intn(len(nodes))], nodes[h.rng.Intn(len(nodes))]
		}
		if len(rels) > 0 {
			rel = rels[h.rng.Intn(len(rels))]
		}
		key, val, props := h.key(), h.value(), h.props()
		switch op {
		case 0, 1:
			ops = append(ops, func(tx *Tx) error { _, err := tx.CreateNode([]string{"N"}, props); return err })
		case 2, 3:
			ops = append(ops, func(tx *Tx) error { return tx.SetNodeProp(node, key, val) })
		case 4:
			ops = append(ops, func(tx *Tx) error { return tx.RemoveNodeProp(node, key) })
		case 5:
			ops = append(ops, func(tx *Tx) error { _, err := tx.CreateRel("R", node, other, props); return err })
		case 6:
			ops = append(ops, func(tx *Tx) error { return tx.SetRelProp(rel, key, val) })
		case 7:
			ops = append(ops, func(tx *Tx) error { return tx.RemoveRelProp(rel, key) })
		case 8:
			ops = append(ops, func(tx *Tx) error { return tx.DeleteRel(rel) })
		case 9:
			ops = append(ops, func(tx *Tx) error { return tx.DetachDeleteNode(node) })
		}
	}
	h.both(func(tx *Tx) error {
		for _, op := range ops {
			if err := op(tx); err != nil {
				return err // e.g. an entity deleted earlier in this transaction
			}
		}
		return nil
	})
}

func lookupBy(tx *Tx, k indexedKey, val value.Value) ([]ids.ID, error) {
	if k.kind == lock.KindNode {
		return tx.NodesByProperty(k.key, val)
	}
	return tx.RelsByProperty(k.key, val)
}

// rawLookup is the index's own answer, before the transaction's view
// filters it: a stale entry the view would hide shows here.
func rawLookup(e *Engine, k indexedKey, val value.Value, ts mvcc.TS) []uint64 {
	tok, ok := e.tok.lookup(tokPropKey, k.key)
	if !ok {
		return nil
	}
	if k.kind == lock.KindNode {
		return e.nodeProps.Lookup(tok, val, ts)
	}
	return e.relProps.Lookup(tok, val, ts)
}

// compare looks every key that lazy has built up at one pair of
// snapshots, on both engines.
func (h *onDemandHistory) compare(when string, pair [2]*Tx) {
	h.t.Helper()
	if pair[0].StartTS() != pair[1].StartTS() {
		h.t.Fatalf("%s: snapshots at %d and %d", when, pair[0].StartTS(), pair[1].StartTS())
	}
	for k := range h.built {
		for _, val := range onDemandUniverse.values {
			want, err := lookupBy(pair[0], k, val)
			if err != nil {
				h.t.Fatal(err)
			}
			got, err := lookupBy(pair[1], k, val)
			if err != nil {
				h.t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				h.t.Fatalf("%s: %v = %v at snapshot %d: lazy %v, eager %v", when, k, val, pair[0].StartTS(), got, want)
			}
			ts := pair[0].StartTS()
			if got, want := rawLookup(h.lazy, k, val, ts), rawLookup(h.eager, k, val, ts); !slices.Equal(got, want) {
				h.t.Fatalf("%s: postings of %v = %v at snapshot %d: lazy %v, eager %v", when, k, val, ts, got, want)
			}
		}
	}
}

func (h *onDemandHistory) compareAll(when string) {
	h.t.Helper()
	for i, pair := range h.readers {
		h.compare(fmt.Sprintf("%s, held reader %d", when, i), pair)
	}
	fresh := [2]*Tx{h.eager.Begin(), h.lazy.Begin()}
	h.compare(when+", fresh snapshot", fresh)
	fresh[0].Abort()
	fresh[1].Abort()
}

// firstLookup injects the first lookup of a key lazy has not built: from
// a held snapshot — older than the build's cut — if there is one and the
// coin says so, else from a fresh one.
func (h *onDemandHistory) firstLookup() {
	h.t.Helper()
	k := indexedKey{[]lock.EntityKind{lock.KindNode, lock.KindRel}[h.rng.Intn(2)], h.key()}
	if h.built[k] {
		return
	}
	h.built[k] = true
	if len(h.readers) > 0 && h.rng.Intn(2) == 0 {
		h.compare(fmt.Sprintf("first lookup of %v under a held snapshot", k), h.readers[h.rng.Intn(len(h.readers))])
	}
	h.compareAll(fmt.Sprintf("first lookup of %v", k))
	n := 0
	for _, b := range h.lazy.IndexBuilds() {
		if b.Key == k.key && (b.Index == "node_prop") == (k.kind == lock.KindNode) {
			n++
		}
	}
	if n != 1 {
		h.t.Fatalf("%v was built %d times: %+v", k, n, h.lazy.IndexBuilds())
	}
}

func (h *onDemandHistory) run(steps int) {
	h.t.Helper()
	materialise(h.t, h.eager, onDemandUniverse.keys...)
	for step := 0; step < steps; step++ {
		switch roll := h.rng.Intn(100); {
		case roll < 60:
			h.write()
		case roll < 70:
			h.eager.RunGC()
			h.lazy.RunGC()
		case roll < 78:
			if len(h.readers) < 4 {
				h.readers = append(h.readers, [2]*Tx{h.eager.Begin(), h.lazy.Begin()})
			}
		case roll < 86:
			if len(h.readers) > 0 {
				i := h.rng.Intn(len(h.readers))
				h.readers[i][0].Abort()
				h.readers[i][1].Abort()
				h.readers = slices.Delete(h.readers, i, i+1)
			}
		default:
			h.firstLookup()
		}
		h.compareAll(fmt.Sprintf("step %d", step))
	}
	for _, pair := range h.readers {
		pair[0].Abort()
		pair[1].Abort()
	}
	h.readers = nil
	// With every key built and everything collectable collected, the two
	// indexes hold the same: what is live.
	for _, key := range onDemandUniverse.keys {
		h.built[indexedKey{lock.KindNode, key}], h.built[indexedKey{lock.KindRel, key}] = true, true
	}
	h.compareAll("at the end")
	h.eager.RunGC()
	h.lazy.RunGC()
	for _, ix := range []string{"node_prop", "rel_prop"} {
		if got, want := h.lazy.IndexStats()[ix], h.eager.IndexStats()[ix]; got != want || got.PendingRemovals != 0 {
			h.t.Fatalf("%s at the end: lazy %+v, eager %+v", ix, got, want)
		}
	}
}

// TestOnDemandIndexMatchesEagerOverRandomHistories: creates, property
// sets and removes, deletes, re-used IDs, collections and long-running
// readers, with the first lookup of each key injected at a random point —
// from a fresh snapshot or from one older than the build's cut — and
// every key built so far looked up again, at every live snapshot, after
// every step.
func TestOnDemandIndexMatchesEagerOverRandomHistories(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 5
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			// (The threaded collector only: vacuum reaps in map order, and two
			// engines that free IDs in different orders re-use them differently.)
			h := &onDemandHistory{
				t: t, rng: rand.New(rand.NewSource(seed)),
				eager: memEngine(t), lazy: memEngine(t),
				built: map[indexedKey]bool{},
			}
			h.run(250)
		})
	}
}

// TestOnDemandIndexAfterRecovery: the same on disk, with both engines
// crashing and recovering in the middle of the history. A recovered
// engine has no postings: eager builds them all at once again, lazy when
// the history gets to each.
func TestOnDemandIndexAfterRecovery(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			dirs := [2]string{t.TempDir(), t.TempDir()}
			opts := func(o *Options) { o.NoSyncCommits = true }
			h := &onDemandHistory{
				t: t, rng: rand.New(rand.NewSource(seed)),
				eager: diskEngine(t, dirs[0], opts), lazy: diskEngine(t, dirs[1], opts),
				built: map[indexedKey]bool{},
			}
			for round := 0; round < 3; round++ {
				h.run(80)
				if round == 1 {
					if err := h.eager.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					if err := h.lazy.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				h.eager.Crash()
				h.lazy.Crash()
				h.eager, h.lazy = diskEngine(t, dirs[0], opts), diskEngine(t, dirs[1], opts)
				h.built = map[indexedKey]bool{}
				if got := h.lazy.IndexStats()["node_prop"].Entries + h.lazy.IndexStats()["rel_prop"].Entries; got != 0 {
					t.Fatalf("a recovered engine holds %d property postings before anyone asked", got)
				}
			}
			h.eager.Close()
			h.lazy.Close()
		})
	}
}

// TestIndexBuildBesideWriters: writers keep committing changes of the key
// while its first lookup builds the postings. No commit waits for the
// scan: the side log holds exactly the changes committed between the
// build's cut and its publication, counted here from the writers' own
// commit timestamps — the scan's entries are not among them — and the
// exclusive section replays no more than that. Lookups that arrive during
// the build wait for it and share it. Each build is held after its cut
// until a writer has committed a change of its key, so every build has
// commits beside it on any processor count.
func TestIndexBuildBesideWriters(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			e := memEngine(t)
			if durable {
				e = diskEngine(t, t.TempDir(), func(o *Options) { o.NoSyncCommits = true })
			}
			defer e.Close()
			const nodes, writers = 6_000, 3
			keys := []string{"a", "b", "c"}
			all := make([]ids.ID, 0, nodes)
			for len(all) < nodes {
				tx := e.Begin()
				for i := 0; i < 1000; i++ {
					props := value.Map{}
					for _, k := range keys {
						props[k] = value.Int(int64(len(all)))
					}
					id, err := tx.CreateNode(nil, props)
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, id)
				}
				mustCommit(t, tx)
			}

			// Each writer owns a third of the nodes and gives one key of one of
			// them a value nobody has used, so every commit is exactly one
			// change of exactly one key.
			type commit struct {
				key string
				cts mvcc.TS
			}
			var stop atomic.Bool
			var fresh atomic.Int64
			fresh.Store(nodes)
			commits := make([][]commit, writers)
			// newest holds, per key, the newest commit timestamp a writer saw
			// returned for a change of it.
			newest := map[string]*atomic.Uint64{}
			for _, k := range keys {
				newest[k] = new(atomic.Uint64)
			}
			e.buildCut = func(key string, cut mvcc.TS) {
				for deadline := time.Now().Add(10 * time.Second); newest[key].Load() <= cut; time.Sleep(50 * time.Microsecond) {
					if time.Now().After(deadline) {
						t.Errorf("%s: no writer committed a change of the key in 10 s after the build's cut", key)
						return
					}
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for !stop.Load() {
						key := keys[rng.Intn(len(keys))]
						tx := e.Begin()
						if err := tx.SetNodeProp(all[w+writers*rng.Intn(nodes/writers)], key, value.Int(fresh.Add(1))); err != nil {
							t.Error(err)
							return
						}
						if err := tx.Commit(); err != nil {
							t.Error(err)
							return
						}
						commits[w] = append(commits[w], commit{key, tx.CommitTS()})
						for cts := tx.CommitTS(); ; {
							seen := newest[key].Load()
							if seen >= cts || newest[key].CompareAndSwap(seen, cts) {
								break
							}
						}
					}
				}()
			}
			// The first lookup of every key, four goroutines at once each time.
			for _, key := range keys {
				var lookups sync.WaitGroup
				for i := 0; i < 4; i++ {
					lookups.Add(1)
					go func() {
						defer lookups.Done()
						tx := e.Begin()
						defer tx.Abort()
						if _, err := tx.NodesByProperty(key, value.Int(0)); err != nil {
							t.Error(err)
						}
					}()
				}
				lookups.Wait()
			}
			stop.Store(true)
			wg.Wait()

			builds := e.IndexBuilds()
			if len(builds) != len(keys) {
				t.Fatalf("%d keys looked up by four goroutines each: %d builds", len(keys), len(builds))
			}
			overlapped := 0
			for _, b := range builds {
				want := 0
				for _, cs := range commits {
					for _, c := range cs {
						if c.key == b.Key && c.cts > b.Cut && c.cts <= b.Published {
							want++
						}
					}
				}
				if b.SideLog != want || b.Held > b.SideLog {
					t.Errorf("%s: the side log held %d changes, %d of them replayed with commits held out; %d commits changed the key in (%d, %d]",
						b.Key, b.SideLog, b.Held, want, b.Cut, b.Published)
				}
				if b.Entries < nodes {
					t.Errorf("%s: the scan made %d entries of %d nodes", b.Key, b.Entries, nodes)
				}
				overlapped += b.SideLog
			}
			if overlapped == 0 {
				t.Fatalf("no writer committed during any of %d builds: %+v", len(builds), builds)
			}

			// And the postings are right: each node under the value it carries.
			e.RunGC()
			tx := e.Begin()
			defer tx.Abort()
			for _, key := range keys {
				for _, id := range all[:1000] {
					n, err := tx.GetNode(id)
					if err != nil {
						t.Fatal(err)
					}
					got, err := tx.NodesByProperty(key, n.Props[key])
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, []ids.ID{id}) {
						t.Fatalf("%s = %v: %v, want node %d alone", key, n.Props[key], got, id)
					}
				}
			}
			if st := e.IndexStats()["node_prop"]; st.Entries != len(keys)*nodes || st.PendingRemovals != 0 {
				t.Errorf("after the collector ran the index holds %+v, want %d live entries", st, len(keys)*nodes)
			}
		})
	}
}
