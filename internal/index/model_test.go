package index

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"neograph/internal/mvcc"
	"neograph/internal/value"
)

// modelEntry is one membership in the naive model: a flat slice scanned
// from end to end by every operation.
type modelEntry struct {
	label   bool
	key     uint32
	val     value.Value
	id      uint64
	added   mvcc.TS
	removed mvcc.TS
}

type model struct{ entries []modelEntry }

func (m *model) same(e *modelEntry, label bool, key uint32, val value.Value) bool {
	return e.label == label && e.key == key && (label || e.val.Equal(val))
}

func (m *model) add(label bool, key uint32, val value.Value, id uint64, ts mvcc.TS) {
	m.entries = append(m.entries, modelEntry{label, key, val, id, ts, neverRemoved})
}

// remove marks the live entry of id with the smallest added timestamp.
func (m *model) remove(label bool, key uint32, val value.Value, id uint64, ts mvcc.TS) {
	var hit *modelEntry
	for i := range m.entries {
		e := &m.entries[i]
		if m.same(e, label, key, val) && e.id == id && e.removed == neverRemoved && (hit == nil || e.added < hit.added) {
			hit = e
		}
	}
	if hit != nil {
		hit.removed = ts
	}
}

func (m *model) lookup(label bool, key uint32, val value.Value, ts mvcc.TS) []uint64 {
	var out []uint64
	for i := range m.entries {
		e := &m.entries[i]
		if m.same(e, label, key, val) && e.added <= ts && ts < e.removed {
			out = append(out, e.id)
		}
	}
	slices.Sort(out)
	return out
}

func (m *model) prune(horizon mvcc.TS) int {
	before := len(m.entries)
	m.entries = slices.DeleteFunc(m.entries, func(e modelEntry) bool { return e.removed <= horizon })
	return before - len(m.entries)
}

// keys counts the distinct index keys that still have an entry.
func (m *model) keys(label bool) int {
	var seen []*modelEntry
next:
	for i := range m.entries {
		e := &m.entries[i]
		if e.label != label {
			continue
		}
		for _, s := range seen {
			if m.same(s, label, e.key, e.val) {
				continue next
			}
		}
		seen = append(seen, e)
	}
	return len(seen)
}

func (m *model) count(label bool, removed bool) int {
	n := 0
	for _, e := range m.entries {
		if e.label == label && (!removed || e.removed != neverRemoved) {
			n++
		}
	}
	return n
}

// modelValues mixes every kind, with the pairs an index must keep apart
// (Int 1 / Float 1 / Bool true, String "a" / Bytes "a") and the ones
// Value.Equal holds equal (both zeros).
var modelValues = []value.Value{
	value.Int(1), value.Float(1), value.Bool(true), value.Int(0), value.Float(0),
	value.Float(math.Copysign(0, -1)), value.Float(math.NaN()), value.Int(-7),
	value.String("a"), value.Bytes([]byte("a")), value.String(""), value.String("person-12"),
	value.List(value.Int(1), value.String("a")), value.List(),
}

// lazyModel drives a second property index the way the engine drives its
// own: every change goes through Update, and a key has postings from the
// first time it is looked up — built from a copy of the model's entries
// taken when the build starts (the data the owner would scan), with the
// changes that arrive before Publish left to the side log.
type lazyModel struct {
	ix       *PropertyIndex
	building map[uint32]*Build
	data     map[uint32][]modelEntry // per building key: the model's entries at StartBuild
	built    map[uint32]bool
	horizon  mvcc.TS // the highest the collector has reached
}

func (l *lazyModel) start(m *model, key uint32) {
	if b := l.ix.StartBuild(key); b != nil {
		l.building[key] = b
		l.data[key] = slices.DeleteFunc(slices.Clone(m.entries), func(e modelEntry) bool { return e.label || e.key != key })
	}
}

func (l *lazyModel) publish(key uint32) {
	b := l.building[key]
	b.Scan(func(run func(value.Value, uint64, mvcc.TS, mvcc.TS)) {
		for _, e := range l.data[key] {
			run(e.val, e.id, e.added, e.removed)
		}
	})
	b.Publish()
	// The engine pins a snapshot at the build's cut; here the collector may
	// have passed removals that were still in the side log. Its next run:
	l.ix.Prune(l.horizon)
	delete(l.building, key)
	delete(l.data, key)
	l.built[key] = true
}

// prune is the collector reaching the data before the scan does.
func (l *lazyModel) prune(horizon mvcc.TS) {
	l.horizon = max(l.horizon, horizon)
	l.ix.Prune(horizon)
	for key, d := range l.data {
		l.data[key] = slices.DeleteFunc(d, func(e modelEntry) bool { return e.removed <= horizon })
	}
}

// runModel interprets ops — four bytes each: operation, key/value pick,
// entity, timestamp step — against both indexes, the on-demand index and
// the model, comparing every lookup, every prune count and, at the end,
// the size statistics.
func runModel(t *testing.T, ops []byte) {
	labels, props := NewLabelIndex(), NewPropertyIndex()
	lazy := lazyModel{ix: NewPropertyIndex(), building: map[uint32]*Build{}, data: map[uint32][]modelEntry{}, built: map[uint32]bool{}}
	var m model
	ts := mvcc.TS(1)
	for ; len(ops) >= 4; ops = ops[4:] {
		op, pick, id, step := ops[0]%10, ops[1], uint64(ops[2]%6), mvcc.TS(ops[3]%4)
		label := pick&1 == 0
		key := uint32(pick>>1) % 3
		val := modelValues[int(pick>>3)%len(modelValues)]
		// Timestamps mostly rise, but commits install out of order.
		at := ts + step
		if op == 7 && ts > 3 {
			at = ts - 3
		}
		switch op {
		case 0, 1, 7:
			m.add(label, key, val, id, at)
			if label {
				labels.Add(key, id, at)
			} else {
				props.Add(key, val, id, at)
				lazy.ix.Update(key, id, nil, &val, at)
			}
		case 2, 3:
			m.remove(label, key, val, id, at)
			if label {
				labels.Remove(key, id, at)
			} else {
				props.Remove(key, val, id, at)
				lazy.ix.Update(key, id, &val, nil, at)
			}
		case 4:
			horizon := ts - min(ts, mvcc.TS(id))
			want := m.prune(horizon)
			if got := labels.Prune(horizon) + props.Prune(horizon); got != want {
				t.Fatalf("Prune(%d) dropped %d entries, model %d", horizon, got, want)
			}
			lazy.prune(horizon)
		case 8:
			// A key's build starts, or the one in progress is published.
			if lazy.building[key] != nil {
				lazy.publish(key)
			} else {
				lazy.start(&m, key)
			}
		default:
			snap := ts - min(ts, step*3)
			var got []uint64
			if label {
				got = labels.Lookup(key, snap)
			} else {
				got = props.Lookup(key, val, snap)
			}
			want := m.lookup(label, key, val, snap)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Lookup(label=%v key=%d val=%v ts=%d) = %v, model %v", label, key, val, snap, got, want)
			}
			if !label && lazy.built[key] {
				if !lazy.ix.Await(key) {
					t.Fatalf("key %d was published and is not built", key)
				}
				if got := lazy.ix.Lookup(key, val, snap); !reflect.DeepEqual(got, want) {
					t.Fatalf("on demand: Lookup(key=%d val=%v ts=%d) = %v, model %v", key, val, snap, got, want)
				}
			}
		}
		ts += step
	}
	for _, label := range []bool{true, false} {
		got := props.Stats()
		if label {
			got = labels.Stats()
		}
		want := Stats{Keys: m.keys(label), Entries: m.count(label, false), PendingRemovals: m.count(label, true)}
		if got != want {
			t.Fatalf("Stats(label=%v) = %+v, model %+v", label, got, want)
		}
	}
	// With every key built the on-demand index holds what the other does.
	for key := uint32(0); key < 3; key++ {
		lazy.start(&m, key)
		if lazy.building[key] != nil {
			lazy.publish(key)
		}
	}
	// (Both after the collector's next run: a removal that arrived below
	// the horizon — commits install out of order — waits for it.)
	props.Prune(lazy.horizon)
	lazy.ix.Prune(lazy.horizon)
	if got, want := lazy.ix.Stats(), props.Stats(); got != want {
		t.Fatalf("on demand, every key built: Stats = %+v, the eager index %+v", got, want)
	}
}

func TestIndexMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		ops := make([]byte, 4*2000)
		r.Read(ops)
		runModel(t, ops)
	}
}

func FuzzIndexMatchesModel(f *testing.F) {
	f.Add([]byte{0, 8, 1, 1, 2, 8, 1, 1, 4, 0, 0, 0, 5, 8, 0, 1})
	r := rand.New(rand.NewSource(99))
	seed := make([]byte, 4*300)
	r.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		// The model is quadratic in the number of operations.
		runModel(t, ops[:min(len(ops), 4*2000)])
	})
}

// TestSingleEntityPairBudget holds what one (key, value) pair that belongs
// to one entity — most of a property index — costs: 155 B when each pair
// had a heap-allocated posting with its own lock, a one-element slice and
// a string-encoded key.
func TestSingleEntityPairBudget(t *testing.T) {
	const pairs, budget = 120_000, 96
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	names := make([]value.Value, pairs/10)
	for i := range names {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(i))
		names[i] = value.String(string(b[:]))
	}
	base := heap()
	ix := NewPropertyIndex()
	for i := 0; i < pairs; i++ {
		val := value.Int(int64(i))
		if i%10 == 0 {
			val = names[i/10] // the string's bytes belong to the entity, not the index
		}
		ix.Add(uint32(i%3), val, uint64(i), 1)
	}
	per := (heap() - base) / pairs
	t.Logf("%d B per single-entity pair", per)
	if per > budget {
		t.Errorf("a single-entity (key, value) pair costs %d B, budget %d", per, budget)
	}
	runtime.KeepAlive(ix)
	runtime.KeepAlive(names)
}

// TestPostingGivesMemoryBack: a posting that shrinks, a shard whose keys
// go, and the removal queue all return what they no longer need.
func TestPostingGivesMemoryBack(t *testing.T) {
	ix := NewPropertyIndex()
	const n = 20_000
	for i := uint64(0); i < n; i++ {
		ix.Add(1, value.Int(7), i, 1)        // one large posting
		ix.Add(2, value.Int(int64(i)), i, 1) // n single-entity postings
		ix.Remove(1, value.Int(7), i, 2)
		ix.Remove(2, value.Int(int64(i)), i, 2)
	}
	// Entity 0 alone comes back.
	ix.Add(1, value.Int(7), 0, 3)
	ix.Add(2, value.Int(0), 0, 3)
	if pruned, scanned := ix.Collect(2); pruned != 2*n || scanned != 2*n {
		t.Fatalf("Collect = %d pruned, %d scanned, want %d both", pruned, scanned, 2*n)
	}
	if got, want := ix.Stats(), (Stats{Keys: 2, Entries: 2}); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if ix.scalars.queue != nil {
		t.Errorf("empty removal queue keeps an array of %d", cap(ix.scalars.queue))
	}
	for i := range ix.scalars.shards {
		s := &ix.scalars.shards[i]
		if s.peak > 8 {
			t.Errorf("shard %d holds %d keys in a map sized for %d", i, len(s.m), s.peak)
		}
		for _, p := range s.m {
			if p.rest != nil {
				t.Errorf("a one-entry posting keeps an overflow slice of %d", cap(*p.rest))
			}
		}
	}
	if got := ix.Lookup(1, value.Int(7), 5); !reflect.DeepEqual(got, []uint64{0}) {
		t.Fatalf("survivor: %v", got)
	}
}
