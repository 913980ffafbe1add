package index

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"neograph/internal/mvcc"
	"neograph/internal/value"
)

// A property key's postings are a view over the version chains — the
// paper keeps versions in a cache (§4), and a view over a cache need not
// be stored beside it. They exist from the first time somebody asks:
//
//	absent    nobody has looked the key up: Update ignores it
//	building  the owner of the data is scanning it into postings
//	          (StartBuild, Build.Scan): Update logs what it is told
//	built     from Build.Publish on: Update maintains the postings
//
// The index cannot see the data, so the owner drives the build — and keeps
// Update out of StartBuild and of Publish (the engine: an exclusive
// section of its commit gate around each). Between the two, commits and
// the scan run side by side: what committed before StartBuild is in the
// data the scan reads, what commits after it is in the side log, replayed
// once the scan is over (Replay) down to a remainder that Publish
// finishes.

// NeverRemoved is the removal timestamp of a run that has not ended.
const NeverRemoved = neverRemoved

// Key states.
const (
	keyAbsent uint32 = iota
	keyBuilding
	keyBuilt
)

// keyInfo is what the index knows of one property key.
type keyInfo struct {
	// born is the smallest commit timestamp an entry of the key was added
	// at — the paper's per-property-key creation timestamp (§4) — and
	// neverRemoved until the first.
	born atomic.Uint64

	state atomic.Uint32
	// ready is made by StartBuild before the key is building, and closed
	// by Publish.
	ready chan struct{}
	// side is the side log: what Update was told while the key was
	// building.
	mu   sync.Mutex
	side []change
}

// change is one logged Update.
type change struct {
	id       uint64
	ts       mvcc.TS
	old, new *value.Value
}

// Update records that a commit at ts changed entity id's value of key
// from old to new, nil meaning the entity has no such property on that
// side. It is the engine's one maintenance call, and what it does depends
// on the key's state.
func (ix *PropertyIndex) Update(key uint32, id uint64, old, new *value.Value, ts mvcc.TS) {
	inf := ix.info(key)
	if inf == nil {
		return
	}
	switch inf.state.Load() {
	case keyBuilt:
		ix.move(key, id, old, new, ts)
	case keyBuilding:
		// The log outlives the call: it keeps its own copies.
		c := change{id: id, ts: ts}
		if old != nil {
			v := *old
			c.old = &v
		}
		if new != nil {
			v := *new
			c.new = &v
		}
		inf.mu.Lock()
		inf.side = append(inf.side, c)
		inf.mu.Unlock()
	}
}

// move takes entity id out of key's old posting and puts it into its new
// one.
func (ix *PropertyIndex) move(key uint32, id uint64, old, new *value.Value, ts mvcc.TS) {
	if old != nil {
		ix.Remove(key, *old, id, ts)
	}
	if new != nil {
		ix.Add(key, *new, id, ts)
	}
}

// Tracking reports whether Update has anything to do: some key is
// building or built.
func (ix *PropertyIndex) Tracking() bool { return ix.tracked.Load() > 0 }

// Await reports whether key's postings exist, waiting for them if they
// are being built. False means nobody has started: the caller does
// (StartBuild), or loses that race and waits after all.
func (ix *PropertyIndex) Await(key uint32) bool {
	inf := ix.info(key)
	if inf == nil {
		return false
	}
	switch inf.state.Load() {
	case keyBuilt:
		return true
	case keyBuilding:
		<-inf.ready
		return true
	}
	return false
}

// Build is one key's postings being built.
type Build struct {
	ix  *PropertyIndex
	key uint32
	inf *keyInfo
	// Entries counts the runs the scan reported.
	Entries int
}

// StartBuild makes key building and returns its build, or nil when key
// is building or built already. The caller keeps Update out while it
// runs, and notes its cut there: every commit at or below it is in the
// data, every later one will reach Update.
func (ix *PropertyIndex) StartBuild(key uint32) *Build {
	inf := ix.ensureInfo(key)
	ix.keysMu.Lock()
	defer ix.keysMu.Unlock()
	if inf.state.Load() != keyAbsent {
		return nil
	}
	inf.ready = make(chan struct{})
	inf.state.Store(keyBuilding)
	ix.tracked.Add(1)
	return &Build{ix: ix, key: key, inf: inf}
}

// Scan runs scan, which reports through run every run of versions at or
// below the cut that carry the key: entity id had key = val from the
// commit at added until the one at removed (NeverRemoved: it still has at
// the cut). Commits go on meanwhile. The removals are queued for the
// collector once the scan is over, all at once.
func (b *Build) Scan(scan func(run func(val value.Value, id uint64, added, removed mvcc.TS))) {
	var scalars []removal[scalarKey]
	var texts []removal[textKey]
	scan(func(val value.Value, id uint64, added, removed mvcc.TS) {
		b.ix.Add(b.key, val, id, added)
		b.Entries++
		if removed == NeverRemoved {
			return
		}
		if sk, tk, scalar := split(b.key, val); scalar {
			scalars = append(scalars, removal[scalarKey]{ts: removed, id: id, key: sk})
		} else {
			texts = append(texts, removal[textKey]{ts: removed, id: id, key: tk})
		}
	})
	// Oldest first: of two runs of one entity under one value the earlier
	// removal then marks the earlier entry, as the commits did.
	slices.SortStableFunc(scalars, func(x, y removal[scalarKey]) int { return cmp.Compare(x.ts, y.ts) })
	slices.SortStableFunc(texts, func(x, y removal[textKey]) int { return cmp.Compare(x.ts, y.ts) })
	b.ix.scalars.removeSorted(scalars)
	b.ix.texts.removeSorted(texts)
}

// Replay applies what Update has logged so far and returns how many
// changes that was. The log is replayed in the order it was written, which
// for any one entity is timestamp order — an entity's versions install in
// order — and between entities is the slight disorder concurrent commits
// always arrive in. Commits may go on beside it, extending the log: the
// owner calls it until the log is short, then Publish.
func (b *Build) Replay() int {
	inf := b.inf
	inf.mu.Lock()
	side := inf.side
	inf.side = nil
	inf.mu.Unlock()
	for _, c := range side {
		b.ix.move(b.key, c.id, c.old, c.new, c.ts)
	}
	return len(side)
}

// Publish replays what is left of the side log and makes the key built,
// releasing the lookups that wait for it. The caller keeps Update out
// while it runs: commits wait for that remainder, never for the scan. It
// returns the number of changes replayed.
func (b *Build) Publish() int {
	n := b.Replay()
	b.inf.state.Store(keyBuilt)
	close(b.inf.ready)
	return n
}
