package mvcc

import "sync"

// GCList is the global garbage-collection structure of the paper (§4):
// every superseded version is threaded onto a doubly-linked list sorted by
// the timestamp at which it became garbage-eligible. Collection walks the
// list from the oldest end and stops at the first version still above the
// horizon, so its cost is proportional to the garbage actually reclaimed —
// never to the size of the store, which is what makes PostgreSQL's vacuum
// pause (the paper's contrast baseline, implemented as
// Chain.PruneOlderThan).
//
// Commit timestamps are assigned in order but versions are installed
// concurrently, so arrivals can be slightly out of order; Add inserts from
// the tail to keep the list strictly sorted (O(1) amortised for the
// near-sorted arrival stream).
type GCList struct {
	// collecting admits one collector at a time: a version must leave its
	// chain before the version above it does (Chain.remove).
	collecting sync.Mutex

	mu         sync.Mutex
	head, tail *garbage // head = oldest
	size       int
}

// garbage threads one version onto the list. The links live here and not
// in the Version, so only a version that is garbage-to-be pays for them.
type garbage struct {
	prev, next *garbage
	// at is the commit timestamp of above, the version that replaced v —
	// or, for a tombstone, which nothing replaced, v's own. v is garbage
	// once at ≤ the GC horizon: no active or future transaction can ever
	// read it.
	at       TS
	v, above *Version
	chain    *Chain
	owner    any // handed back with the chain's last version (Collect)
}

// NewGCList returns an empty list.
func NewGCList() *GCList { return &GCList{} }

// Add threads v, a version of chain, onto the list: superseded by above,
// which Install has just put over it, and garbage from above's timestamp
// on — or a tombstone (above is nil), garbage from its own. owner is
// whatever the caller needs to find chain's entity again when the
// collector has emptied it; it is opaque to this package. A version is
// added once, a tombstone after the version it superseded.
func (l *GCList) Add(chain *Chain, owner any, v, above *Version) {
	at := v.CommitTS
	if above != nil {
		at = above.CommitTS
	}
	g := &garbage{at: at, v: v, above: above, chain: chain, owner: owner}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.size++
	if l.tail == nil {
		l.head, l.tail = g, g
		return
	}
	// Walk back from the tail to the insertion point (usually the tail
	// itself: commit order ≈ timestamp order).
	after := l.tail
	for after != nil && after.at > at {
		after = after.prev
	}
	if after == nil { // new head
		g.next = l.head
		l.head.prev = g
		l.head = g
		return
	}
	g.prev = after
	g.next = after.next
	if after.next != nil {
		after.next.prev = g
	} else {
		l.tail = g
	}
	after.next = g
}

// Len returns the number of versions awaiting collection.
func (l *GCList) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// OldestSupersededAt returns the timestamp from which the list head is
// garbage and whether the list is non-empty — the cheapest possible "is
// there anything to do" check for the GC driver.
func (l *GCList) OldestSupersededAt() (TS, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.head == nil {
		return 0, false
	}
	return l.head.at, true
}

// Collect pops every version that is garbage at or below horizon, unlinks
// each from its entity chain, and calls onDead(owner, version) for every
// removal that emptied its chain (the entity itself is gone — its
// tombstone, the version handed over, and all older versions collected).
// It returns the number of versions reclaimed.
//
// The walk touches exactly the versions it reclaims plus one: the cost
// model the paper claims ("the cost of garbage collection is reduced to
// the minimum").
func (l *GCList) Collect(horizon TS, onDead func(owner any, last *Version)) int {
	l.collecting.Lock()
	defer l.collecting.Unlock()
	collected := 0
	for {
		l.mu.Lock()
		g := l.head
		if g == nil || g.at > horizon {
			l.mu.Unlock()
			return collected
		}
		l.head = g.next
		if l.head != nil {
			l.head.prev = nil
		} else {
			l.tail = nil
		}
		l.size--
		l.mu.Unlock()

		if empty := g.chain.remove(g.v, g.above); empty && onDead != nil {
			onDead(g.owner, g.v)
		}
		collected++
	}
}

// checkSorted reports whether the list is sorted by garbage timestamp;
// used by invariant tests.
func (l *GCList) checkSorted() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for g := l.head; g != nil && g.next != nil; g = g.next {
		if g.at > g.next.at {
			return false
		}
	}
	return true
}
