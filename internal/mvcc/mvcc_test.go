package mvcc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestOracleWatermarkInOrder(t *testing.T) {
	o := NewOracle(0)
	if o.StartTS() != 0 {
		t.Fatal("fresh oracle start TS must be 0")
	}
	c1 := o.BeginCommit()
	c2 := o.BeginCommit()
	if c1 != 1 || c2 != 2 {
		t.Fatalf("commit TSs = %d, %d", c1, c2)
	}
	if o.Watermark() != 0 {
		t.Fatal("watermark must not advance past pending commits")
	}
	o.FinishCommit(c1)
	if o.Watermark() != 1 {
		t.Fatalf("watermark = %d, want 1", o.Watermark())
	}
	o.FinishCommit(c2)
	if o.Watermark() != 2 {
		t.Fatalf("watermark = %d, want 2", o.Watermark())
	}
}

func TestOracleWatermarkOutOfOrderFinish(t *testing.T) {
	o := NewOracle(0)
	c1, c2, c3 := o.BeginCommit(), o.BeginCommit(), o.BeginCommit()
	o.FinishCommit(c3)
	o.FinishCommit(c2)
	if o.Watermark() != 0 {
		t.Fatalf("watermark = %d, want 0 while c1 pending", o.Watermark())
	}
	o.FinishCommit(c1)
	if o.Watermark() != 3 {
		t.Fatalf("watermark = %d, want 3", o.Watermark())
	}
}

func TestOracleAbortReleases(t *testing.T) {
	o := NewOracle(5)
	c := o.BeginCommit()
	if c != 6 {
		t.Fatalf("commit ts = %d, want 6", c)
	}
	o.AbortCommit(c)
	if o.Watermark() != 6 {
		t.Fatalf("watermark = %d, want 6 after abort", o.Watermark())
	}
}

func TestOracleConcurrent(t *testing.T) {
	o := NewOracle(0)
	var wg sync.WaitGroup
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				ts := o.BeginCommit()
				_ = o.StartTS()
				o.FinishCommit(ts)
			}
		}()
	}
	wg.Wait()
	if o.Watermark() != n*100 {
		t.Fatalf("final watermark = %d, want %d", o.Watermark(), n*100)
	}
	if o.StartTS() != o.Watermark() {
		t.Fatal("idle StartTS must equal watermark")
	}
}

func TestChainVisible(t *testing.T) {
	c := NewChain()
	if c.Visible(100) != nil {
		t.Fatal("empty chain must be invisible")
	}
	v10 := &Version{CommitTS: 10, Data: "ten"}
	v20 := &Version{CommitTS: 20, Data: "twenty"}
	v30 := &Version{CommitTS: 30, Data: "thirty"}
	if c.Install(v10) != nil {
		t.Fatal("first install supersedes nothing")
	}
	if sup := c.Install(v20); sup != v10 {
		t.Fatalf("superseded = %+v", sup)
	}
	c.Install(v30)

	cases := []struct {
		startTS TS
		want    *Version
	}{
		{5, nil}, {9, nil}, {10, v10}, {15, v10}, {20, v20}, {29, v20}, {30, v30}, {1000, v30},
	}
	for _, tc := range cases {
		if got := c.Visible(tc.startTS); got != tc.want {
			t.Errorf("Visible(%d) = %v, want %v", tc.startTS, got, tc.want)
		}
	}
	if c.Head() != v30 || c.Len() != 3 {
		t.Fatalf("head/len = %v/%d", c.Head(), c.Len())
	}
}

func TestChainInstallOutOfOrderPanics(t *testing.T) {
	c := NewChain()
	c.Install(&Version{CommitTS: 10})
	defer func() {
		if recover() == nil {
			t.Error("out of order install should panic")
		}
	}()
	c.Install(&Version{CommitTS: 10})
}

func TestChainTombstoneVisible(t *testing.T) {
	c := NewChain()
	c.Install(&Version{CommitTS: 10, Data: "live"})
	c.Install(&Version{CommitTS: 20, Deleted: true})
	// Reader at 15 sees the live version; at 25 sees the tombstone.
	if v := c.Visible(15); v == nil || v.Deleted {
		t.Fatal("reader at 15 must see live version")
	}
	if v := c.Visible(25); v == nil || !v.Deleted {
		t.Fatal("reader at 25 must see tombstone")
	}
}

func TestGCListSortedAndCollect(t *testing.T) {
	l := NewGCList()
	chain := NewChain()
	var supers [][2]*Version // superseded, by
	for ts := TS(1); ts <= 10; ts++ {
		v := &Version{CommitTS: ts, Data: ts}
		if sup := chain.Install(v); sup != nil {
			supers = append(supers, [2]*Version{sup, v})
		}
	}
	// Add out of arrival order to exercise sorted insertion.
	rand.New(rand.NewSource(7)).Shuffle(len(supers), func(i, j int) { supers[i], supers[j] = supers[j], supers[i] })
	for _, s := range supers {
		l.Add(chain, nil, s[0], s[1])
	}
	if !l.checkSorted() {
		t.Fatal("GC list not sorted after shuffled adds")
	}
	if l.Len() != 9 {
		t.Fatalf("len = %d, want 9", l.Len())
	}
	if ts, ok := l.OldestSupersededAt(); !ok || ts != 2 {
		t.Fatalf("oldest = %d/%v, want 2", ts, ok)
	}

	// Horizon 5: versions superseded at TS ≤ 5 (commit TS 1..4) die.
	n := l.Collect(5, nil)
	if n != 4 {
		t.Fatalf("collected %d, want 4", n)
	}
	if chain.Len() != 6 {
		t.Fatalf("chain len = %d, want 6", chain.Len())
	}
	// Visible at old snapshots now returns nil (they were collectable
	// precisely because no reader can sit at those timestamps).
	if v := chain.Visible(10); v == nil || v.CommitTS != 10 {
		t.Fatal("newest version must survive")
	}
	// Collect the rest.
	if n := l.Collect(100, nil); n != 5 {
		t.Fatalf("second collect = %d, want 5", n)
	}
	if chain.Len() != 1 {
		t.Fatalf("chain len = %d, want 1 (head only)", chain.Len())
	}
}

func TestGCListTombstoneKillsEntity(t *testing.T) {
	l := NewGCList()
	chain := NewChain()
	if sup := chain.Install(&Version{CommitTS: 1, Data: "x"}); sup != nil {
		t.Fatal("unexpected supersede")
	}
	tomb := &Version{CommitTS: 2, Deleted: true}
	const owner = "the entity"
	if sup := chain.Install(tomb); sup != nil {
		l.Add(chain, owner, sup, tomb)
	}
	// The tombstone itself becomes garbage at its own commit TS.
	l.Add(chain, owner, tomb, nil)

	var dead []any
	var last *Version
	n := l.Collect(10, func(o any, v *Version) { dead, last = append(dead, o), v })
	if n != 2 {
		t.Fatalf("collected %d, want 2", n)
	}
	if len(dead) != 1 || dead[0] != owner || last != tomb {
		t.Fatalf("dead owners = %v, last version %+v", dead, last)
	}
	if chain.Len() != 0 || chain.Head() != nil {
		t.Fatal("chain must be empty after tombstone collection")
	}
}

// TestCollectUnderRecycledCreation: a redo or a replica can install an
// ID's next entity over the previous owner's not yet collected tombstone.
// The tombstone was threaded as the head and is a head no more: the
// collector finds it from the top and takes the old versions out from
// under the new one, which lives on.
func TestCollectUnderRecycledCreation(t *testing.T) {
	l := NewGCList()
	chain := NewChain()
	tomb, reborn := &Version{CommitTS: 2, Deleted: true}, &Version{CommitTS: 5}
	chain.Install(&Version{CommitTS: 1})
	l.Add(chain, nil, chain.Install(tomb), tomb)
	l.Add(chain, nil, tomb, nil)
	if sup := chain.Install(reborn); sup != nil {
		t.Fatalf("the tombstone was superseded a second time: %+v", sup)
	}
	died := false
	if n := l.Collect(10, func(any, *Version) { died = true }); n != 2 || died {
		t.Fatalf("collected %d (entity dead: %v), want 2 versions of a living entity", n, died)
	}
	if chain.Len() != 1 || chain.Head() != reborn || chain.Visible(4) != nil {
		t.Fatalf("chain of %d, head %+v, visible at 4: %+v", chain.Len(), chain.Head(), chain.Visible(4))
	}
}

func TestGCCollectStopsAtHorizon(t *testing.T) {
	l := NewGCList()
	chain := NewChain()
	for ts := TS(1); ts <= 5; ts++ {
		v := &Version{CommitTS: ts}
		if sup := chain.Install(v); sup != nil {
			l.Add(chain, nil, sup, v)
		}
	}
	if n := l.Collect(0, nil); n != 0 {
		t.Fatalf("horizon 0 collected %d", n)
	}
	if n := l.Collect(3, nil); n != 2 { // superseded at 2 and 3
		t.Fatalf("horizon 3 collected %d, want 2", n)
	}
}

func TestPruneOlderThanVacuum(t *testing.T) {
	chain := NewChain()
	for ts := TS(1); ts <= 5; ts++ {
		chain.Install(&Version{CommitTS: ts, Data: ts})
	}
	removed, dead := chain.PruneOlderThan(3)
	// Versions 1 and 2 were superseded at TS 2 and 3 ≤ horizon.
	if removed != 2 || dead != nil {
		t.Fatalf("removed=%d dead=%v, want 2,nil", removed, dead)
	}
	if chain.Len() != 3 {
		t.Fatalf("len = %d, want 3", chain.Len())
	}
	// Reader at horizon still sees the right version.
	if v := chain.Visible(3); v == nil || v.CommitTS != 3 {
		t.Fatalf("Visible(3) = %v", v)
	}
}

func TestPruneTombstoneChainDies(t *testing.T) {
	chain := NewChain()
	chain.Install(&Version{CommitTS: 1, Data: "a"})
	chain.Install(&Version{CommitTS: 2, Data: "b"})
	tomb := &Version{CommitTS: 3, Deleted: true}
	chain.Install(tomb)
	removed, dead := chain.PruneOlderThan(3)
	if removed != 3 || dead != tomb || chain.Head() != nil {
		t.Fatalf("removed=%d dead=%v head=%v, want 3, the tombstone, nil", removed, dead, chain.Head())
	}
}

func TestPruneKeepsVisibleAboveHorizon(t *testing.T) {
	chain := NewChain()
	chain.Install(&Version{CommitTS: 10, Data: "a"})
	chain.Install(&Version{CommitTS: 20, Deleted: true})
	removed, dead := chain.PruneOlderThan(15)
	// Tombstone at 20 > horizon: a reader at 15 still sees version 10.
	if removed != 0 || dead != nil {
		t.Fatalf("removed=%d dead=%v, want 0,nil", removed, dead)
	}
	if v := chain.Visible(15); v == nil || v.CommitTS != 10 {
		t.Fatal("prune removed a visible version")
	}
}

func TestActiveTableHorizon(t *testing.T) {
	a := NewActiveTable()
	if a.Horizon(42) != 42 {
		t.Fatal("idle horizon must be ifIdle")
	}
	a.Register(1, 10)
	a.Register(2, 7)
	a.Register(3, 30)
	if a.Horizon(42) != 7 {
		t.Fatalf("horizon = %d, want 7", a.Horizon(42))
	}
	a.Unregister(2)
	if a.Horizon(42) != 10 {
		t.Fatalf("horizon = %d, want 10", a.Horizon(42))
	}
	if a.Count() != 2 {
		t.Fatalf("count = %d", a.Count())
	}
	a.Unregister(1)
	a.Unregister(3)
	if a.Horizon(42) != 42 {
		t.Fatal("horizon must return to ifIdle")
	}
}

// TestGCNeverCollectsVisible is the paper's central GC safety invariant,
// checked over random histories: after collecting at the horizon, every
// active reader still observes exactly the version it did before.
func TestGCNeverCollectsVisible(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		l := NewGCList()
		const chains = 5
		cs := make([]*Chain, chains)
		for i := range cs {
			cs[i] = NewChain()
		}
		// Random history of 100 commits over 5 entities.
		for ts := TS(1); ts <= 100; ts++ {
			c := cs[r.Intn(chains)]
			head := c.Head()
			if head != nil && head.CommitTS >= ts {
				continue
			}
			v := &Version{CommitTS: ts, Data: ts}
			if sup := c.Install(v); sup != nil {
				l.Add(c, nil, sup, v)
			}
		}
		// Random set of readers.
		readers := make([]TS, 5)
		horizon := TS(101)
		for i := range readers {
			readers[i] = TS(r.Intn(100))
			if readers[i] < horizon {
				horizon = readers[i]
			}
		}
		// Record what each reader sees before GC.
		before := make([][]*Version, len(readers))
		for i, rts := range readers {
			for _, c := range cs {
				before[i] = append(before[i], c.Visible(rts))
			}
		}
		l.Collect(horizon, nil)
		if !l.checkSorted() {
			t.Fatal("list unsorted after collect")
		}
		for i, rts := range readers {
			for j, c := range cs {
				if got := c.Visible(rts); got != before[i][j] {
					t.Fatalf("trial %d: reader %d (ts %d) chain %d: %v -> %v",
						trial, i, rts, j, before[i][j], got)
				}
			}
		}
	}
}

// TestConcurrentInstallAndCollect runs the chain's three parties at once:
// writers installing at the head, a collector unlinking below the
// horizon, and readers — each registered in the active table, which is
// what holds the horizon under it — walking the chain without a lock. A
// reader must always get the newest version at or below its timestamp.
func TestConcurrentInstallAndCollect(t *testing.T) {
	const writers, perWriter, readers = 4, 500, 3
	o := NewOracle(0)
	active := NewActiveTable()
	l := NewGCList()
	chain := NewChain()
	chain.Install(&Version{CommitTS: o.BeginCommit()})
	o.FinishCommit(1)

	// installed[ts] is set before ts becomes visible: what a reader at ts
	// must see is the greatest installed timestamp at or below it.
	var installed [1 + 1 + writers*perWriter]atomic.Bool
	installed[1].Store(true)
	var mu sync.Mutex // serialises installs on the single chain (the write rule)
	var writing, reading sync.WaitGroup
	stop, stopCollector := make(chan struct{}), make(chan struct{})

	collected := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stopCollector:
				collected <- n + l.Collect(active.Horizon(o.Watermark()), nil)
				return
			default:
				n += l.Collect(active.Horizon(o.Watermark()), nil)
			}
		}
	}()
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(id uint64) {
			defer reading.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Registered first, at or below the snapshot taken next: a
				// horizon computed in between must not pass the snapshot.
				active.Register(id, o.StartTS())
				ts := o.StartTS()
				for i := 0; i < 20; i++ {
					v := chain.Visible(ts)
					if v == nil {
						t.Errorf("reader at %d: no version", ts)
						return
					}
					want := ts
					for !installed[want].Load() {
						want--
					}
					if v.CommitTS != want {
						t.Errorf("reader at %d saw version %d, want %d", ts, v.CommitTS, want)
						return
					}
				}
				active.Unregister(id)
			}
		}(uint64(r))
	}
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				mu.Lock()
				ts := o.BeginCommit()
				if i%3 == 0 { // a commit that writes something else
					o.FinishCommit(ts)
					mu.Unlock()
					continue
				}
				v := &Version{CommitTS: ts}
				if sup := chain.Install(v); sup != nil {
					l.Add(chain, nil, sup, v)
				}
				installed[ts].Store(true)
				o.FinishCommit(ts)
				mu.Unlock()
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()
	close(stopCollector)
	n := <-collected

	if chain.Len() != 1 || l.Len() != 0 {
		t.Fatalf("chain len = %d, GC list len = %d, want 1, 0 after full collection", chain.Len(), l.Len())
	}
	head := chain.Head()
	if want := chain.Visible(o.Watermark()); head == nil || head != want {
		t.Fatalf("head = %+v, newest visible %+v", head, want)
	}
	// Every install but the last was collected; the first is version 1.
	var installs int
	for i := range installed {
		if installed[i].Load() {
			installs++
		}
	}
	if n != installs-1 {
		t.Fatalf("collected %d of %d installed versions, want all but the head", n, installs)
	}
}

// TestOracleWaitVisibleBlocksBehindStraggler: finishing commit 2 while
// commit 1 is still installing must not make 2 visible — WaitVisible(2)
// returns only once the watermark has passed both, which is what lets a
// committer's next StartTS include its own commit.
func TestOracleWaitVisibleBlocksBehindStraggler(t *testing.T) {
	o := NewOracle(0)
	a, b := o.BeginCommit(), o.BeginCommit()
	o.FinishCommit(b)
	if o.Watermark() != 0 {
		t.Fatalf("watermark = %d with commit %d still installing", o.Watermark(), a)
	}
	done := make(chan TS)
	go func() {
		o.WaitVisible(b)
		done <- o.StartTS()
	}()
	select {
	case ts := <-done:
		t.Fatalf("WaitVisible(%d) returned at snapshot %d while commit %d was still installing", b, ts, a)
	case <-time.After(20 * time.Millisecond):
	}
	o.FinishCommit(a)
	select {
	case ts := <-done:
		if ts < b {
			t.Fatalf("snapshot after WaitVisible(%d) = %d", b, ts)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitVisible never woke after the straggler finished")
	}
	o.WaitVisible(a) // already visible: the fast path returns at once
}
