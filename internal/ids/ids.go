// Package ids provides identifier allocation for store records, the role
// Neo4j's ".id" files play: each record store owns an Allocator that hands
// out monotonically increasing IDs and recycles the IDs of deleted records
// through a free list. Nothing is persisted: a reopened store rebuilds its
// allocators by scanning its records (SetHighWater, Release).
package ids

import (
	"fmt"
	"sync"
)

// ID identifies a record within one store. IDs are dense, starting at 0,
// so they double as record offsets (offset = id * recordSize).
type ID = uint64

// NoID is the sentinel for "no record", used to terminate record chains,
// matching Neo4j's 0xFFFFFFFF... null pointer.
const NoID ID = ^ID(0)

// Allocator hands out record IDs with free-list reuse. It is safe for
// concurrent use.
type Allocator struct {
	mu     sync.Mutex
	next   ID
	free   []ID
	stride ID // 0 = dense; otherwise Next yields only ids ≡ offset (mod stride)
	offset ID
}

// NewAllocator returns an allocator whose next fresh ID is 0.
func NewAllocator() *Allocator { return &Allocator{} }

// Next returns a free ID, preferring recycled IDs over extending the
// high-water mark (keeping store files dense, as Neo4j does). Under a
// stride (SetStride) only IDs of the allocator's congruence class are
// handed out.
func (a *Allocator) Next() ID {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n := len(a.free); n > 0 {
		id := a.free[n-1]
		a.free = a.free[:n-1]
		return id
	}
	id := a.next
	if a.stride > 0 {
		id = a.alignUp(id)
		a.next = id + a.stride
	} else {
		a.next++
	}
	return id
}

// alignUp returns the smallest id ≥ from with id % stride == offset.
// Caller holds a.mu and has checked stride > 0.
func (a *Allocator) alignUp(from ID) ID {
	rem := from % a.stride
	if rem == a.offset {
		return from
	}
	if rem < a.offset {
		return from + (a.offset - rem)
	}
	return from + (a.stride - rem) + a.offset
}

// SetStride restricts the allocator to the congruence class
// id % stride == offset — the hash-partitioning contract that makes an
// entity's owning partition computable from its ID alone. Free-list
// entries of other classes (possible after an allocator rebuild that
// scanned a partitioned store file) are dropped: they belong to peers
// and must never be handed out here. stride 0 restores dense
// allocation; offset must be < stride.
func (a *Allocator) SetStride(offset, stride ID) {
	if stride > 0 && offset >= stride {
		panic(fmt.Sprintf("ids: stride offset %d >= stride %d", offset, stride))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stride, a.offset = stride, offset
	if stride == 0 {
		return
	}
	kept := a.free[:0]
	for _, id := range a.free {
		if id%stride == offset {
			kept = append(kept, id)
		}
	}
	a.free = kept
}

// Release returns id to the free list. Releasing an ID at or above the
// high-water mark, or NoID, is a programming error and panics.
func (a *Allocator) Release(id ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if id == NoID || id >= a.next {
		panic(fmt.Sprintf("ids: release of unallocated id %d (high water %d)", id, a.next))
	}
	a.free = append(a.free, id)
}

// Reserve marks every ID in taken as in use: the high-water mark rises
// past each, and any that sit on the free list leave it. A store calls it
// for the IDs of entities it learns of from elsewhere than its own record
// file (a log replayed after a crash, a replication stream), which a
// free list rebuilt from that file alone would hand out a second time.
func (a *Allocator) Reserve(taken []ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, id := range taken {
		if id >= a.next {
			a.next = id + 1
		}
	}
	if len(a.free) == 0 || len(taken) == 0 {
		return
	}
	set := make(map[ID]struct{}, len(taken))
	for _, id := range taken {
		set[id] = struct{}{}
	}
	kept := a.free[:0]
	for _, id := range a.free {
		if _, ok := set[id]; !ok {
			kept = append(kept, id)
		}
	}
	a.free = kept
}

// HighWater returns the lowest ID never handed out. Record stores size
// their files from this.
func (a *Allocator) HighWater() ID {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.next
}

// FreeCount returns the number of recycled IDs currently available.
func (a *Allocator) FreeCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}

// SetHighWater forces the high-water mark, used when rebuilding allocator
// state from a scanned store file. It panics if the mark would shrink
// below an ID already handed out.
func (a *Allocator) SetHighWater(hw ID) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if hw < a.next {
		panic(fmt.Sprintf("ids: cannot shrink high water from %d to %d", a.next, hw))
	}
	a.next = hw
}
