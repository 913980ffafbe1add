package index

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"neograph/internal/mvcc"
)

// neverRemoved marks a live entry.
const neverRemoved = ^mvcc.TS(0)

// entryRec is one versioned membership: entity id was associated with the
// key at Added and dissociated at Removed (neverRemoved while live).
type entryRec struct {
	ID      uint64
	Added   mvcc.TS
	Removed mvcc.TS
}

// compareEntries orders a posting: by entity, then by when it was added.
func compareEntries(a, b entryRec) int {
	if a.ID != b.ID {
		if a.ID < b.ID {
			return -1
		}
		return 1
	}
	if a.Added != b.Added {
		if a.Added < b.Added {
			return -1
		}
		return 1
	}
	return 0
}

// posting is the versioned entry list of one index key, held by value in
// its shard's map. It is never empty: the smallest entry sits inline —
// most (key, value) pairs belong to exactly one entity and need nothing
// else — and the others follow in rest, sorted.
type posting struct {
	first entryRec
	rest  *[]entryRec
}

func (p *posting) len() int {
	if p.rest == nil {
		return 1
	}
	return 1 + len(*p.rest)
}

// at returns entry i of the sorted sequence first, rest[0], rest[1], ...
func (p *posting) at(i int) *entryRec {
	if i == 0 {
		return &p.first
	}
	return &(*p.rest)[i-1]
}

// insert adds e in order.
func (p *posting) insert(e entryRec) {
	if compareEntries(e, p.first) < 0 {
		e, p.first = p.first, e
		if p.rest != nil {
			*p.rest = slices.Insert(*p.rest, 0, e)
			return
		}
	}
	if p.rest == nil {
		p.rest = &[]entryRec{e}
		return
	}
	// Entities are mostly indexed in ID order: try the end first.
	r := *p.rest
	i := len(r)
	if i > 0 && compareEntries(e, r[i-1]) < 0 {
		i, _ = slices.BinarySearchFunc(r, e, compareEntries)
	}
	*p.rest = slices.Insert(r, i, e)
}

// find returns the index of the first entry of entity id whose removal
// timestamp is removed (neverRemoved: its live entry), or -1.
func (p *posting) find(id uint64, removed mvcc.TS) int {
	i := 0
	if p.first.ID < id {
		if p.rest == nil {
			return -1
		}
		r := *p.rest
		i = 1 + sort.Search(len(r), func(j int) bool { return r[j].ID >= id })
	}
	for n := p.len(); i < n; i++ {
		e := p.at(i)
		if e.ID != id {
			break
		}
		if e.Removed == removed {
			return i
		}
	}
	return -1
}

// deleteAt drops entry i and reports whether the posting is now empty.
// The overflow slice gives its memory back once three quarters of it are
// unused.
func (p *posting) deleteAt(i int) (empty bool) {
	if p.rest == nil {
		return true
	}
	r := *p.rest
	if i == 0 {
		p.first = r[0]
		i = 1
	}
	r = slices.Delete(r, i-1, i)
	switch {
	case len(r) == 0:
		p.rest = nil
		return false
	case len(r) < cap(r)/4:
		r = slices.Clone(r)
	}
	*p.rest = r
	return false
}

// shardCount is the number of independently locked maps a table spreads
// its keys over.
const shardCount = 16

// indexKey is a map key that can pick its shard.
type indexKey interface {
	comparable
	shard() uint32
}

// shard is one lock's worth of a table. peak is the largest the map has
// been since it was last rebuilt: a Go map keeps its buckets when keys
// are deleted, so a map that has shrunk to a quarter of its peak is
// copied into a fresh one.
type shard[K indexKey] struct {
	mu   sync.RWMutex
	m    map[K]posting
	peak int
}

// removal is one entry awaiting the horizon: entity id left key at ts.
type removal[K indexKey] struct {
	ts  mvcc.TS
	id  uint64
	key K
}

// table is a versioned index over keys of type K.
type table[K indexKey] struct {
	shards [shardCount]shard[K]

	// queue holds every removed, not yet collected entry in removal-
	// timestamp order — what mvcc.GCList is to versions. Commit timestamps
	// are assigned in order but installed concurrently, so arrivals can be
	// slightly out of order and are inserted from the tail.
	qmu   sync.Mutex
	queue []removal[K]

	keys, entries atomic.Int64
}

func (t *table[K]) shardOf(k K) *shard[K] { return &t.shards[k.shard()%shardCount] }

func (t *table[K]) add(k K, id uint64, ts mvcc.TS) {
	e := entryRec{ID: id, Added: ts, Removed: neverRemoved}
	s := t.shardOf(k)
	s.mu.Lock()
	p, ok := s.m[k]
	if ok {
		p.insert(e)
	} else {
		if s.m == nil {
			s.m = make(map[K]posting)
		}
		p = posting{first: e}
		t.keys.Add(1)
	}
	s.m[k] = p
	s.peak = max(s.peak, len(s.m))
	s.mu.Unlock()
	t.entries.Add(1)
}

// remove marks the live entry of id under k as removed at ts and queues
// it for collection. Missing entries are ignored (idempotent with respect
// to replay).
func (t *table[K]) remove(k K, id uint64, ts mvcc.TS) {
	if !t.mark(k, id, ts) {
		return
	}
	t.qmu.Lock()
	i := len(t.queue)
	for i > 0 && t.queue[i-1].ts > ts {
		i--
	}
	t.queue = slices.Insert(t.queue, i, removal[K]{ts: ts, id: id, key: k})
	t.qmu.Unlock()
}

// mark sets the removal timestamp of the live entry of id under k and
// reports whether there was one.
func (t *table[K]) mark(k K, id uint64, ts mvcc.TS) bool {
	s := t.shardOf(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[k]
	if !ok {
		return false
	}
	i := p.find(id, neverRemoved)
	if i < 0 {
		return false
	}
	p.at(i).Removed = ts
	s.m[k] = p
	return true
}

// removeSorted is remove for a batch in ascending timestamp order, merged
// into the queue in one pass: old removals — a key's build finds them in
// the data — would each walk back from the tail past everything queued
// since.
func (t *table[K]) removeSorted(batch []removal[K]) {
	marked := batch[:0]
	for _, r := range batch {
		if t.mark(r.key, r.id, r.ts) {
			marked = append(marked, r)
		}
	}
	if batch = marked; len(batch) == 0 {
		return
	}
	t.qmu.Lock()
	defer t.qmu.Unlock()
	merged := make([]removal[K], 0, len(t.queue)+len(batch))
	for _, q := range t.queue {
		for len(batch) > 0 && batch[0].ts < q.ts {
			merged, batch = append(merged, batch[0]), batch[1:]
		}
		merged = append(merged, q)
	}
	t.queue = append(merged, batch...)
}

// lookup returns the IDs under k visible at startTS, ascending.
func (t *table[K]) lookup(k K, startTS mvcc.TS) []uint64 {
	s := t.shardOf(k)
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.m[k]
	if !ok {
		return nil
	}
	var out []uint64
	for i, n := 0, p.len(); i < n; i++ {
		if e := p.at(i); e.Added <= startTS && startTS < e.Removed {
			if out == nil {
				out = make([]uint64, 0, n-i)
			}
			out = append(out, e.ID)
		}
	}
	return out
}

// collect pops the removals at or below the horizon off the queue and
// drops exactly those entries, deleting a posting the moment it empties.
// It touches the entries it drops plus the one removal that stopped the
// walk — never the rest of the index.
func (t *table[K]) collect(horizon mvcc.TS) (pruned, scanned int) {
	t.qmu.Lock()
	n := sort.Search(len(t.queue), func(i int) bool { return t.queue[i].ts > horizon })
	due, rest := t.queue[:n:n], t.queue[n:]
	scanned = n
	switch {
	case len(rest) == 0:
		rest = nil // the array goes with the last removal it held
	case len(rest) < cap(rest)/4:
		rest = slices.Clone(rest)
	}
	if len(rest) > 0 {
		scanned++ // the removal that stopped the walk
	}
	t.queue = rest
	t.qmu.Unlock()

	for _, r := range due {
		if t.drop(r) {
			pruned++
		}
	}
	t.entries.Add(int64(-pruned))
	return pruned, scanned
}

// drop deletes the entry a removal names.
func (t *table[K]) drop(r removal[K]) bool {
	s := t.shardOf(r.key)
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.m[r.key]
	if !ok {
		return false
	}
	i := p.find(r.id, r.ts)
	if i < 0 {
		return false
	}
	if !p.deleteAt(i) {
		s.m[r.key] = p
		return true
	}
	delete(s.m, r.key)
	t.keys.Add(-1)
	if len(s.m) < s.peak/4 {
		fresh := make(map[K]posting, len(s.m))
		for k, p := range s.m {
			fresh[k] = p
		}
		s.m, s.peak = fresh, len(fresh)
	}
	return true
}

func (t *table[K]) stats() Stats {
	t.qmu.Lock()
	pending := len(t.queue)
	t.qmu.Unlock()
	return Stats{Keys: int(t.keys.Load()), Entries: int(t.entries.Load()), PendingRemovals: pending}
}
