package mvcc

import "sync"

// Version is one committed version of an entity. Versions are threaded
// twice, exactly as in the paper (§4):
//
//   - within their entity's Chain (newest first, doubly linked so GC can
//     unlink in O(1));
//   - through the global GCList, a doubly-linked list sorted by the
//     timestamp at which the version became superseded.
//
// Uncommitted data never appears in a Version: transactions stage their
// writes privately and install versions only at commit.
type Version struct {
	CommitTS TS
	Deleted  bool // tombstone: the entity was deleted at CommitTS
	Data     any  // engine payload (entity state at this version)

	// Entity chain links (guarded by the owning Chain's mutex).
	newer, older *Version
	chain        *Chain

	// Global GC list links (guarded by the GCList's mutex).
	gcPrev, gcNext *Version
	// SupersededAt is the commit timestamp of the version that replaced
	// this one (or this version's own CommitTS for tombstones). A version
	// is garbage once SupersededAt ≤ the GC horizon: no active or future
	// transaction can ever read it.
	SupersededAt TS
	inGCList     bool
}

// Chain is the version list of one entity, newest first. The zero Chain
// is empty and ready to use, so an entity can hold its chain by value.
type Chain struct {
	// Owner is the entity this chain belongs to, set once by whoever
	// embeds the chain before its first Install and opaque to this
	// package: the collector hands dead chains back (GCList.Collect) and
	// the owner is how the engine finds the entity to reap without a
	// chain-to-entity table.
	Owner any

	mu   sync.RWMutex
	head *Version // newest committed version
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// Install links v as the new head and returns the superseded previous
// head, which the caller adds — tagged with v.CommitTS — to the global
// GC list. It returns nil for the first version, and for a version
// installed over a tombstone: a tombstone is collectable from its own
// timestamp and was threaded when it was installed, so it keeps its
// SupersededAt (and its place in the sorted list). That happens when a
// recycled ID's new entity is replayed over the old one's not yet
// collected tombstone, in recovery or on a replica.
// Install panics if v would break the descending-timestamp invariant;
// the write rule (no two concurrent writers) makes that impossible in
// correct use.
func (c *Chain) Install(v *Version) (superseded *Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head != nil && c.head.CommitTS >= v.CommitTS {
		panic("mvcc: install out of timestamp order")
	}
	v.chain = c
	v.older = c.head
	if c.head != nil {
		c.head.newer = v
		if !c.head.Deleted {
			superseded = c.head
			superseded.SupersededAt = v.CommitTS
		}
	}
	c.head = v
	return superseded
}

// Visible returns the version a transaction with the given start
// timestamp must observe: the newest version with CommitTS ≤ startTS
// (paper §3, the read rule). It returns nil if the entity did not exist
// in that snapshot. A tombstone version is returned as-is; callers treat
// it as "not found" but can distinguish deletion from absence.
func (c *Chain) Visible(startTS TS) *Version {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for v := c.head; v != nil; v = v.older {
		if v.CommitTS <= startTS {
			return v
		}
	}
	return nil
}

// Head returns the newest committed version (what read-committed reads).
func (c *Chain) Head() *Version {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head
}

// Len returns the number of versions currently in the chain. It walks
// the chain: chains are a version or two long once the collector has run,
// and a stored count would cost every resident entity eight bytes for the
// sake of the accounting calls that ask.
func (c *Chain) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for v := c.head; v != nil; v = v.older {
		n++
	}
	return n
}

// Each calls fn on every version in the chain, newest first, under the
// chain's read lock (fn must not call back into the chain).
func (c *Chain) Each(fn func(*Version)) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for v := c.head; v != nil; v = v.older {
		fn(v)
	}
}

// remove unlinks v from the chain. It reports whether the chain is now
// empty. Called by the GC with the version already popped from the
// global list.
func (c *Chain) remove(v *Version) (empty bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.newer != nil {
		v.newer.older = v.older
	} else if c.head == v {
		c.head = v.older
	}
	if v.older != nil {
		v.older.newer = v.newer
	}
	v.newer, v.older = nil, nil
	return c.head == nil
}

// PruneOlderThan implements the vacuum-style baseline collector (the
// PostgreSQL contrast in §4): it scans the whole chain and removes every
// version that is invisible below the horizon — superseded versions and
// horizon-old tombstone heads. It returns the number of versions removed
// and whether the chain is now empty (entity fully dead).
//
// Unlike the threaded GC list, the caller must invoke this on every chain
// in the store, which is exactly the cost the paper's design avoids.
func (c *Chain) PruneOlderThan(horizon TS) (removed int, empty bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.head != nil && c.head.Deleted && c.head.CommitTS <= horizon {
		// The tombstone itself is below the horizon: every transaction,
		// present and future, sees the entity as deleted, so the whole
		// chain is dead.
		for v := c.head; v != nil; {
			older := v.older
			v.newer, v.older = nil, nil
			v = older
			removed++
		}
		c.head = nil
		return removed, true
	}
	for v := c.head; v != nil; {
		older := v.older
		if v != c.head && v.newer.CommitTS <= horizon {
			v.newer.older = v.older
			if v.older != nil {
				v.older.newer = v.newer
			}
			v.newer, v.older = nil, nil
			removed++
		}
		v = older
	}
	return removed, c.head == nil
}
