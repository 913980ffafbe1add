package mvcc

import (
	"sync"
	"sync/atomic"
)

// Version is one committed version of an entity: the header the engine
// allocates its state with (the state struct holds a Version and Data
// points back at the struct), so that a resident version is one
// allocation. Versions are threaded within their entity's Chain, newest
// first; a version that is superseded, or a tombstone, is threaded a
// second time through the global GCList, exactly as in the paper (§4) —
// but by a list node of its own, which the ninety-nine versions in a
// hundred that are the only one of their entity never pay for.
//
// Uncommitted data never appears in a chain: transactions stage their
// versions privately and install them at commit.
type Version struct {
	CommitTS TS
	Deleted  bool // tombstone: the entity was deleted at CommitTS
	Data     any  // engine payload (entity state at this version)

	// older is the next version down the chain. Only the chain's writers
	// (under its mutex) store it; an unlinked version keeps its own, so a
	// walker standing on it walks on.
	older atomic.Pointer[Version]
}

// Chain is the version list of one entity, newest first. The zero Chain
// is empty and ready to use, so an entity can hold its chain by value.
//
// Readers take no lock: they load head and follow older. A registered
// reader never even stands on a version the collector unlinks — it moves
// past a version only if that version is newer than its snapshot, and such
// a version is not garbage while the reader holds the horizon — and any
// other walker (accounting, read committed) finds an unlinked version's
// own pointer untouched.
type Chain struct {
	head atomic.Pointer[Version] // newest committed version
	mu   sync.Mutex              // serialises Install, remove and PruneOlderThan
}

// NewChain returns an empty chain.
func NewChain() *Chain { return &Chain{} }

// Install links v as the new head and returns the superseded previous
// head, which the caller adds — garbage from v.CommitTS on — to the
// global GC list. It returns nil for the first version, and for a version
// installed over a tombstone: a tombstone is collectable from its own
// timestamp and was threaded when it was installed, so it keeps its place
// in the sorted list. That happens when a recycled ID's new entity is
// replayed over the old one's not yet collected tombstone, in recovery or
// on a replica.
// Install panics if v would break the descending-timestamp invariant;
// the write rule (no two concurrent writers) makes that impossible in
// correct use.
func (c *Chain) Install(v *Version) (superseded *Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.head.Load()
	if head != nil && head.CommitTS >= v.CommitTS {
		panic("mvcc: install out of timestamp order")
	}
	v.older.Store(head)
	c.head.Store(v)
	if head != nil && !head.Deleted {
		return head
	}
	return nil
}

// Visible returns the version a transaction with the given start
// timestamp must observe: the newest version with CommitTS ≤ startTS
// (paper §3, the read rule). It returns nil if the entity did not exist
// in that snapshot. A tombstone version is returned as-is; callers treat
// it as "not found" but can distinguish deletion from absence.
func (c *Chain) Visible(startTS TS) *Version {
	for v := c.head.Load(); v != nil; v = v.older.Load() {
		if v.CommitTS <= startTS {
			return v
		}
	}
	return nil
}

// Head returns the newest committed version (what read-committed reads).
func (c *Chain) Head() *Version { return c.head.Load() }

// Len returns the number of versions currently in the chain. It walks
// the chain: chains are a version or two long once the collector has run,
// and a stored count would cost every resident entity eight bytes for the
// sake of the accounting calls that ask.
func (c *Chain) Len() int {
	n := 0
	for v := c.head.Load(); v != nil; v = v.older.Load() {
		n++
	}
	return n
}

// Each calls fn on every version in the chain, newest first. Beside a
// collector it sees each version either still linked or not at all.
func (c *Chain) Each(fn func(*Version)) {
	for v := c.head.Load(); v != nil; v = v.older.Load() {
		fn(v)
	}
}

// remove unlinks v from the chain and reports whether the chain is now
// empty. Called by the GC with the version already popped from the global
// list. above is the version v was threaded under — the one installed
// over it, nil for a tombstone, threaded as the head — and a version is
// collected before the one above it, so v is found there without a walk:
// that is what the back link of a doubly-linked chain would buy, kept in
// the list node of a garbage version instead of in every version. Only a
// tombstone that a recycled ID's new entity was installed over is looked
// for from the head.
func (c *Chain) remove(v, above *Version) (empty bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	link := &c.head
	if above != nil {
		link = &above.older
	}
	if link.Load() != v {
		for link = &c.head; link.Load() != v; link = &link.Load().older {
			if link.Load() == nil {
				return c.head.Load() == nil
			}
		}
	}
	link.Store(v.older.Load())
	return c.head.Load() == nil
}

// PruneOlderThan implements the vacuum-style baseline collector (the
// PostgreSQL contrast in §4): it scans the whole chain and removes every
// version that is invisible below the horizon — superseded versions and
// horizon-old tombstone heads. It returns the number of versions removed
// and, when that emptied the chain (entity fully dead), the tombstone
// that headed it.
//
// Unlike the threaded GC list, the caller must invoke this on every chain
// in the store, which is exactly the cost the paper's design avoids.
func (c *Chain) PruneOlderThan(horizon TS) (removed int, dead *Version) {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.head.Load()
	if head != nil && head.Deleted && head.CommitTS <= horizon {
		// The tombstone itself is below the horizon: every transaction,
		// present and future, sees the entity as deleted, so the whole
		// chain is dead.
		for v := head; v != nil; v = v.older.Load() {
			removed++
		}
		c.head.Store(nil)
		return removed, head
	}
	// The newest version at or below the horizon is what the oldest reader
	// sees; everything under it was superseded at or below the horizon.
	for v := head; v != nil; v = v.older.Load() {
		if v.CommitTS <= horizon {
			for g := v.older.Load(); g != nil; g = g.older.Load() {
				removed++
			}
			v.older.Store(nil)
			break
		}
	}
	return removed, nil
}
