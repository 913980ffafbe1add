package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"neograph/internal/ids"
	"neograph/internal/lock"
	"neograph/internal/mvcc"
	"neograph/internal/value"
)

// These tests hammer the striped commit pipeline under the race detector:
// per-stripe first-committer-wins latches must neither lose conflicts
// (overlapping writers both committing) nor leak half-installed commits
// to snapshot readers (the watermark rule must survive the loss of the
// global latch). Run at several stripe counts, including the degenerate
// single-stripe mode whose semantics everything else must match.

func stripeStressEngine(t *testing.T, stripes int) *Engine {
	t.Helper()
	e, err := Open(Options{Conflict: FirstCommitterWins, CommitStripes: stripes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestResolveStripes pins the option semantics: power-of-two rounding,
// the GOMAXPROCS default, and the cap.
func TestResolveStripes(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {256, 256}, {100000, 256},
	} {
		if got := resolveStripes(c.in); got != c.want {
			t.Errorf("resolveStripes(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	def := resolveStripes(0)
	if def < 1 || def&(def-1) != 0 {
		t.Errorf("default stripes %d not a power of two", def)
	}
	if def < runtime.GOMAXPROCS(0) && def != maxCommitStripes {
		t.Errorf("default stripes %d below GOMAXPROCS %d", def, runtime.GOMAXPROCS(0))
	}
}

// TestStripeIndexSpread checks that dense sequential IDs — exactly what
// the allocators hand out — spread over the stripes instead of clustering,
// for both entity kinds.
func TestStripeIndexSpread(t *testing.T) {
	e := stripeStressEngine(t, 8)
	var nodeHits, relHits [8]int
	for id := uint64(0); id < 8000; id++ {
		nodeHits[e.stripeIndex(entKey{lock.KindNode, id})]++
		relHits[e.stripeIndex(entKey{lock.KindRel, id})]++
	}
	for i := 0; i < 8; i++ {
		// Perfectly uniform would be 1000 per stripe; demand within 2x.
		if nodeHits[i] < 500 || nodeHits[i] > 2000 || relHits[i] < 500 || relHits[i] > 2000 {
			t.Fatalf("skewed stripe distribution: nodes %v rels %v", nodeHits, relHits)
		}
	}
}

// TestStripedFCWNoLostConflicts drives overlapping FCW increments of
// shared counters next to disjoint private writers. Every attempt must
// either commit or abort with ErrWriteConflict; the final counter values
// must equal the number of successful increments (a lost conflict would
// admit a lost update and break the sum), and the disjoint writers must
// never abort at all.
func TestStripedFCWNoLostConflicts(t *testing.T) {
	for _, stripes := range []int{1, 8} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			e := stripeStressEngine(t, stripes)

			const counters = 4 // shared hot keys, spread over stripes
			const writers = 8
			const iters = 120

			ctrs := make([]ids.ID, counters)
			setup := e.Begin()
			for i := range ctrs {
				id, err := setup.CreateNode([]string{"Counter"}, value.Map{"n": value.Int(0)})
				if err != nil {
					t.Fatal(err)
				}
				ctrs[i] = id
			}
			priv := make([]ids.ID, writers)
			for i := range priv {
				id, err := setup.CreateNode([]string{"Private"}, value.Map{"n": value.Int(0)})
				if err != nil {
					t.Fatal(err)
				}
				priv[i] = id
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}

			var commits [counters]atomic.Int64
			var privConflicts, otherErrs atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						c := (w + i) % counters
						tx := e.Begin()
						// Overlapping write: read-modify-write one shared
						// counter (FCW: conflicts surface at commit).
						snap, err := tx.GetNode(ctrs[c])
						if err != nil {
							otherErrs.Add(1)
							tx.Abort()
							continue
						}
						n, _ := snap.Props["n"].AsInt()
						if err := tx.SetNodeProp(ctrs[c], "n", value.Int(n+1)); err != nil {
							otherErrs.Add(1)
							tx.Abort()
							continue
						}
						// Widen the read→commit window so transactions
						// actually overlap, even on a single-CPU runner.
						runtime.Gosched()
						// Disjoint write riding along: this writer's private
						// node, in the same transaction.
						if err := tx.SetNodeProp(priv[w], "n", value.Int(int64(i))); err != nil {
							otherErrs.Add(1)
							tx.Abort()
							continue
						}
						switch err := tx.Commit(); {
						case err == nil:
							commits[c].Add(1)
						case errors.Is(err, ErrWriteConflict):
							privConflicts.Add(1)
						default:
							otherErrs.Add(1)
						}
					}
				}(w)
			}
			wg.Wait()

			if n := otherErrs.Load(); n != 0 {
				t.Fatalf("%d non-conflict errors", n)
			}
			check := e.Begin()
			defer check.Abort()
			for c, id := range ctrs {
				snap, err := check.GetNode(id)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := snap.Props["n"].AsInt()
				if got != commits[c].Load() {
					t.Errorf("counter %d = %d, want %d successful commits (lost conflict => lost update)",
						c, got, commits[c].Load())
				}
			}
			t.Logf("stripes=%d: %d commits, %d conflicts",
				stripes, commits[0].Load()+commits[1].Load()+commits[2].Load()+commits[3].Load(), privConflicts.Load())
		})
	}
}

// TestStripedFCWDisjointNeverConflicts asserts the parallelism claim's
// correctness half: transactions with disjoint write footprints must all
// commit, whatever stripes they hash to.
func TestStripedFCWDisjointNeverConflicts(t *testing.T) {
	e := stripeStressEngine(t, 8)
	const writers = 8
	const nodesPer = 4
	const iters = 150

	own := make([][]ids.ID, writers)
	setup := e.Begin()
	for w := range own {
		for i := 0; i < nodesPer; i++ {
			id, err := setup.CreateNode(nil, value.Map{"v": value.Int(0)})
			if err != nil {
				t.Fatal(err)
			}
			own[w] = append(own[w], id)
		}
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx := e.Begin()
				ok := true
				for _, id := range own[w] {
					if err := tx.SetNodeProp(id, "v", value.Int(int64(i))); err != nil {
						ok = false
						break
					}
				}
				if !ok {
					failures.Add(1)
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d disjoint transactions failed; disjoint FCW commits must all succeed", n)
	}
}

// TestCommitTimestampLSNOrder pins the log-order invariant the replica
// watermark protocol depends on: commit timestamps must be ascending in
// WAL (LSN) order, because a replica applies records in LSN order and
// fast-forwards its watermark to each observed timestamp. Concurrent
// disjoint committers — FCW per-stripe latches and FUW alike — race
// timestamp assignment against the append; walSeqMu makes them one step.
func TestCommitTimestampLSNOrder(t *testing.T) {
	for _, conflict := range []ConflictPolicy{FirstUpdaterWins, FirstCommitterWins} {
		t.Run(conflict.String(), func(t *testing.T) {
			e, err := Open(Options{
				Dir:           t.TempDir(),
				Conflict:      conflict,
				NoSyncCommits: true, // CPU-bound: maximise append interleaving
				CommitStripes: 8,
			})
			if err != nil {
				t.Fatal(err)
			}
			const writers = 8
			const iters = 100
			own := make([]ids.ID, writers)
			setup := e.Begin()
			for w := range own {
				if own[w], err = setup.CreateNode(nil, value.Map{"v": value.Int(0)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						tx := e.Begin()
						if err := tx.SetNodeProp(own[w], "v", value.Int(int64(i))); err != nil {
							t.Errorf("stage: %v", err)
							tx.Abort()
							return
						}
						runtime.Gosched() // widen the assign/append window
						if err := tx.Commit(); err != nil {
							t.Errorf("commit: %v", err)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			var last mvcc.TS
			err = e.wal.ForEach(func(lsn uint64, payload []byte) error {
				if len(payload) == 0 || payload[0] != recCommit {
					return nil
				}
				cts, _, err := decodeCommit(payload, nil)
				if err != nil {
					return err
				}
				if cts <= last {
					t.Errorf("commit ts %d at lsn %d after ts %d (log order inverted)", cts, lsn, last)
				}
				last = cts
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if last < writers*iters {
				t.Fatalf("only %d commits in the log", last)
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStripedCommitAtomicity checks the watermark rule with per-stripe
// latches: a multi-entity commit spans several stripes, and a snapshot
// reader must see all of its writes or none — never a half-installed
// commit. Writers stamp every node of their group with one per-commit
// value; readers assert uniformity.
func TestStripedCommitAtomicity(t *testing.T) {
	for _, stripes := range []int{1, 8} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			e := stripeStressEngine(t, stripes)

			const groups = 4
			const groupSize = 6 // > stripe count guarantees multi-stripe spans
			const iters = 100

			grp := make([][]ids.ID, groups)
			setup := e.Begin()
			for g := range grp {
				for i := 0; i < groupSize; i++ {
					id, err := setup.CreateNode(nil, value.Map{"v": value.Int(0)})
					if err != nil {
						t.Fatal(err)
					}
					grp[g] = append(grp[g], id)
				}
			}
			if err := setup.Commit(); err != nil {
				t.Fatal(err)
			}

			var writersWG, readersWG sync.WaitGroup
			stop := make(chan struct{})
			var torn atomic.Int64
			// One writer per group (disjoint: no aborts), many readers.
			for g := 0; g < groups; g++ {
				writersWG.Add(1)
				go func(g int) {
					defer writersWG.Done()
					for i := 1; i <= iters; i++ {
						tx := e.Begin()
						for _, id := range grp[g] {
							if err := tx.SetNodeProp(id, "v", value.Int(int64(i))); err != nil {
								t.Errorf("group %d stamp %d: %v", g, i, err)
								tx.Abort()
								return
							}
						}
						if err := tx.Commit(); err != nil {
							t.Errorf("group %d commit %d: %v", g, i, err)
							return
						}
					}
				}(g)
			}
			for r := 0; r < 4; r++ {
				readersWG.Add(1)
				go func(r int) {
					defer readersWG.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						g := r % groups
						tx := e.Begin()
						var first int64
						uniform := true
						for i, id := range grp[g] {
							snap, err := tx.GetNode(id)
							if err != nil {
								t.Errorf("reader: %v", err)
								tx.Abort()
								return
							}
							v, _ := snap.Props["v"].AsInt()
							if i == 0 {
								first = v
							} else if v != first {
								uniform = false
							}
						}
						tx.Abort()
						if !uniform {
							torn.Add(1)
						}
					}
				}(r)
			}
			// Readers run for as long as the writers do.
			writersWG.Wait()
			close(stop)
			readersWG.Wait()
			if n := torn.Load(); n != 0 {
				t.Fatalf("%d torn snapshot reads (half-installed commit visible)", n)
			}
		})
	}
}
