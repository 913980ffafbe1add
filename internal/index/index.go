// Package index implements the multi-versioned label and property indexes
// of the paper (§4). Neo4j keeps two node indexes (labels → nodes,
// property → nodes) and one relationship index (property →
// relationships); labels and properties are never deleted, so the paper
// versions them instead:
//
//   - each property *key* records the commit timestamp of the transaction
//     that created it, letting a reader discard the whole key when it was
//     created after the reader's snapshot;
//   - each index *entry* (the membership of one entity under a key) is
//     tagged with the commit timestamp that added it and, when the entity
//     is removed from the key, the commit timestamp that removed it. A
//     reader at start timestamp S sees an entry iff added ≤ S < removed.
//
// Only committed changes reach the index; a transaction's own uncommitted
// writes are merged over index lookups by the engine's enriched iterators
// (read-your-own-writes, §4).
//
// Memory and garbage collection follow the live data (table.go): a
// posting exists only while it has an entry, and every removal is
// threaded onto a timestamp-ordered queue, so pruning costs the entries
// it drops — the cost model of mvcc.GCList applied to the index.
package index

import (
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"neograph/internal/mvcc"
	"neograph/internal/value"
)

// Stats describes an index's size: distinct keys with at least one
// entry, versioned entries (live + removed but not yet pruned), and
// removals waiting for the horizon to pass them.
type Stats struct {
	Keys            int
	Entries         int
	PendingRemovals int
}

// labelKey is a label token as an index key.
type labelKey uint32

func (k labelKey) shard() uint32 { return uint32(k) }

// LabelIndex maps label tokens to versioned node sets.
type LabelIndex struct {
	t table[labelKey]
}

// NewLabelIndex returns an empty label index.
func NewLabelIndex() *LabelIndex { return &LabelIndex{} }

// Add records that node id gained the label at commit timestamp ts.
func (ix *LabelIndex) Add(label uint32, id uint64, ts mvcc.TS) {
	ix.t.add(labelKey(label), id, ts)
}

// Remove records that node id lost the label at commit timestamp ts.
func (ix *LabelIndex) Remove(label uint32, id uint64, ts mvcc.TS) {
	ix.t.remove(labelKey(label), id, ts)
}

// Lookup returns the node IDs carrying label in the snapshot at startTS,
// ascending.
func (ix *LabelIndex) Lookup(label uint32, startTS mvcc.TS) []uint64 {
	return ix.t.lookup(labelKey(label), startTS)
}

// Collect drops the entries removed at or below the horizon — no active
// or future transaction can see them. It returns the entries dropped and
// the removals it examined: the dropped ones plus at most the one that
// stopped the walk.
func (ix *LabelIndex) Collect(horizon mvcc.TS) (pruned, scanned int) {
	return ix.t.collect(horizon)
}

// Prune is Collect reporting only the entries dropped.
func (ix *LabelIndex) Prune(horizon mvcc.TS) int {
	pruned, _ := ix.Collect(horizon)
	return pruned
}

// Stats returns the index's current size.
func (ix *LabelIndex) Stats() Stats { return ix.t.stats() }

// EntryCount returns the total number of versioned entries (live + dead).
func (ix *LabelIndex) EntryCount() int { return ix.t.stats().Entries }

// scalarKey identifies a (property key, value) pair whose value is a
// bool, an int or a float: the value is its kind and 64-bit payload.
type scalarKey struct {
	num  uint64
	key  uint32
	kind value.Kind
}

func (k scalarKey) shard() uint32 {
	h := (k.num ^ uint64(k.key)<<32 ^ uint64(k.kind)) * 0x9E3779B97F4A7C15
	return uint32(h >> 32)
}

// textKey identifies a (property key, value) pair whose value is a string
// or a byte array (its bytes, shared with the value) or a list (its
// binary encoding).
type textKey struct {
	text string
	key  uint32
	kind value.Kind
}

var textSeed = maphash.MakeSeed()

func (k textKey) shard() uint32 {
	return uint32(maphash.String(textSeed, k.text)) ^ k.key
}

// PropertyIndex maps (property key token, value) pairs to versioned entity
// sets. It serves both the node property index and the relationship
// property index — the engine instantiates one of each.
//
// Add, Remove, Lookup and Collect are the postings themselves. Whether a
// property key has postings at all is the subject of ondemand.go: the
// engine maintains them through Update, which ignores a key nobody has
// looked up.
type PropertyIndex struct {
	scalars table[scalarKey]
	texts   table[textKey]

	// keys holds what the index knows of each property key. Property keys
	// are few and new ones rare, so the map is replaced, not updated:
	// readers load it without a lock.
	keysMu sync.Mutex
	keys   atomic.Pointer[map[uint32]*keyInfo]
	// tracked counts the keys that are building or built.
	tracked atomic.Int32
}

// NewPropertyIndex returns an empty property index.
func NewPropertyIndex() *PropertyIndex { return &PropertyIndex{} }

// info returns what the index knows of property key, or nil.
func (ix *PropertyIndex) info(key uint32) *keyInfo {
	if m := ix.keys.Load(); m != nil {
		return (*m)[key]
	}
	return nil
}

// ensureInfo is info for a key the caller is about to write to.
func (ix *PropertyIndex) ensureInfo(key uint32) *keyInfo {
	if inf := ix.info(key); inf != nil {
		return inf
	}
	ix.keysMu.Lock()
	defer ix.keysMu.Unlock()
	if inf := ix.info(key); inf != nil {
		return inf
	}
	inf := &keyInfo{}
	inf.born.Store(neverRemoved)
	next := map[uint32]*keyInfo{key: inf}
	if m := ix.keys.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	ix.keys.Store(&next)
	return inf
}

// noteBorn lowers the key's creation timestamp to ts. Commits install
// concurrently, so the first Add to arrive need not carry the smallest
// timestamp.
func (inf *keyInfo) noteBorn(ts mvcc.TS) {
	for born := inf.born.Load(); ts < born; born = inf.born.Load() {
		if inf.born.CompareAndSwap(born, ts) {
			return
		}
	}
}

// split turns a (property key, value) pair into its typed index key;
// scalar says which of the two it filled. Values that Value.Equal holds
// equal get the same key: every NaN is one float, and so are both zeros.
func split(key uint32, val value.Value) (sk scalarKey, tk textKey, scalar bool) {
	kind := val.Kind()
	num, text := val.Payload()
	switch kind {
	case value.KindString, value.KindBytes:
		return sk, textKey{text: text, key: key, kind: kind}, false
	case value.KindList:
		return sk, textKey{text: string(value.EncodeValue(val)), key: key, kind: kind}, false
	case value.KindFloat:
		switch f := math.Float64frombits(num); {
		case f == 0:
			num = 0
		case f != f:
			num = math.Float64bits(math.NaN())
		}
	}
	return scalarKey{num: num, key: key, kind: kind}, tk, true
}

// Add records that entity id gained property key=val at commit TS ts.
func (ix *PropertyIndex) Add(key uint32, val value.Value, id uint64, ts mvcc.TS) {
	ix.ensureInfo(key).noteBorn(ts)
	if sk, tk, scalar := split(key, val); scalar {
		ix.scalars.add(sk, id, ts)
	} else {
		ix.texts.add(tk, id, ts)
	}
}

// Remove records that entity id lost property key=val at commit TS ts.
func (ix *PropertyIndex) Remove(key uint32, val value.Value, id uint64, ts mvcc.TS) {
	if sk, tk, scalar := split(key, val); scalar {
		ix.scalars.remove(sk, id, ts)
	} else {
		ix.texts.remove(tk, id, ts)
	}
}

// Lookup returns the entity IDs whose property key equals val in the
// snapshot at startTS, ascending.
func (ix *PropertyIndex) Lookup(key uint32, val value.Value, startTS mvcc.TS) []uint64 {
	// The property key itself post-dates the snapshot (§4).
	if inf := ix.info(key); inf == nil || inf.born.Load() > startTS {
		return nil
	}
	sk, tk, scalar := split(key, val)
	if scalar {
		return ix.scalars.lookup(sk, startTS)
	}
	return ix.texts.lookup(tk, startTS)
}

// Collect drops the entries removed at or below the horizon, returning
// the entries dropped and the removals examined (see LabelIndex.Collect).
func (ix *PropertyIndex) Collect(horizon mvcc.TS) (pruned, scanned int) {
	p1, s1 := ix.scalars.collect(horizon)
	p2, s2 := ix.texts.collect(horizon)
	return p1 + p2, s1 + s2
}

// Prune is Collect reporting only the entries dropped.
func (ix *PropertyIndex) Prune(horizon mvcc.TS) int {
	pruned, _ := ix.Collect(horizon)
	return pruned
}

// Stats returns the index's current size.
func (ix *PropertyIndex) Stats() Stats {
	s, t := ix.scalars.stats(), ix.texts.stats()
	return Stats{s.Keys + t.Keys, s.Entries + t.Entries, s.PendingRemovals + t.PendingRemovals}
}

// EntryCount returns the total number of versioned entries (live + dead).
func (ix *PropertyIndex) EntryCount() int { return ix.Stats().Entries }
