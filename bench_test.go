package neograph_test

// One benchmark per paper experiment (E1..E8, F1), plus engine
// micro-benchmarks. The experiment benchmarks run the registry entries of
// internal/bench in quick mode and surface their headline numbers through
// b.ReportMetric; `go test -bench .` therefore regenerates every table,
// and `cmd/neograph-bench` prints the full-size versions.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"neograph"
	"neograph/internal/bench"
	"neograph/internal/core"
	"neograph/internal/pagecache"
	"neograph/internal/workload"
)

// benchExperiment runs registry entry id once per iteration (seeded by
// the iteration) and hands its rows to report.
func benchExperiment(b *testing.B, id string, report func(rows any)) {
	for _, e := range bench.Experiments {
		if e.ID != id {
			continue
		}
		for i := 0; i < b.N; i++ {
			rows, err := e.Run(io.Discard, bench.Params{Quick: true, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			report(rows)
		}
		return
	}
	b.Fatalf("experiment %s is not in the registry", id)
}

func BenchmarkE1Anomalies(b *testing.B) {
	benchExperiment(b, "E1", func(rows any) {
		res := rows.([]bench.E1Result)
		b.ReportMetric(float64(res[0].UnrepeatableReads+res[0].PhantomReads), "si-anomalies")
		b.ReportMetric(float64(res[1].UnrepeatableReads+res[1].PhantomReads), "rc-anomalies")
	})
}

func BenchmarkE2Throughput(b *testing.B) {
	benchExperiment(b, "E2", func(rows any) {
		for _, r := range rows.([]bench.E2Row) {
			if r.Mix == "write-heavy 10/90" && r.Clients == 4 {
				b.ReportMetric(r.Result.Throughput(), r.Isolation+"-txn/s")
			}
		}
	})
}

func BenchmarkE3Conflicts(b *testing.B) {
	benchExperiment(b, "E3", func(rows any) {
		for _, r := range rows.([]bench.E3Row) {
			if r.Theta == 0.9 {
				b.ReportMetric(r.Result.AbortRate(), r.Policy+"-abort-rate")
			}
		}
	})
}

func BenchmarkE4GC(b *testing.B) {
	benchExperiment(b, "E4", func(rows any) {
		for _, r := range rows.([]bench.E4Row)[:2] { // the smaller store
			b.ReportMetric(float64(r.Pause.Microseconds()), r.Mode+"-pause-us")
		}
	})
}

func BenchmarkE5LongReaders(b *testing.B) {
	benchExperiment(b, "E5", func(rows any) {
		samples := rows.([]bench.E5Row)
		b.ReportMetric(float64(samples[len(samples)-2].Versions), "versions-pinned")
		b.ReportMetric(float64(samples[len(samples)-1].Versions), "versions-released")
	})
}

func BenchmarkE6Indexes(b *testing.B) {
	benchExperiment(b, "E6", func(rows any) {
		for _, r := range rows.([]bench.E6Row) {
			if r.Selectivity == 0.01 {
				b.ReportMetric(float64(r.IndexTime.Microseconds()), "index-us")
				b.ReportMetric(float64(r.ScanTime.Microseconds()), "scan-us")
			}
		}
	})
}

func BenchmarkE7RYOW(b *testing.B) {
	benchExperiment(b, "E7", func(rows any) {
		for _, r := range rows.([]bench.E7Row) {
			switch r.WriteSet {
			case 0:
				b.ReportMetric(float64(r.PerLookup.Microseconds()), "empty-ws-us")
			case 1000:
				b.ReportMetric(float64(r.PerLookup.Microseconds()), "1k-ws-us")
			}
		}
	})
}

func BenchmarkE8Persistence(b *testing.B) {
	benchExperiment(b, "E8", func(rows any) {
		res := rows.(bench.E8Result)
		b.ReportMetric(float64(res.LatestOnlyBytes), "latest-only-B")
		b.ReportMetric(float64(res.AllVersionsBytes), "all-versions-B")
		b.ReportMetric(float64(res.RecoveryTime.Microseconds()), "recovery-us")
	})
}

func BenchmarkF1Architecture(b *testing.B) {
	benchExperiment(b, "F1", func(any) {})
}

// ---- engine micro-benchmarks ----

func buildBenchGraph(b *testing.B, people int) (*neograph.DB, *workload.SocialGraph) {
	b.Helper()
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.BuildSocial(db, workload.SocialConfig{People: people, AvgFriends: 4, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	return db, g
}

func BenchmarkPointRead(b *testing.B) {
	db, g := buildBenchGraph(b, 2_000)
	tx := db.Begin()
	defer tx.Abort()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tx.GetNode(g.People[i%len(g.People)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCommitSingleUpdate(b *testing.B) {
	db, g := buildBenchGraph(b, 2_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := db.Update(10, func(tx *neograph.Tx) error {
			return tx.SetNodeProp(g.People[i%len(g.People)], "balance", neograph.Int(int64(i)))
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraverse1Hop(b *testing.B) {
	db, g := buildBenchGraph(b, 2_000)
	tx := db.Begin()
	defer tx.Abort()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tx.Relationships(g.People[i%len(g.People)], neograph.Both); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLabelLookup(b *testing.B) {
	db, _ := buildBenchGraph(b, 2_000)
	tx := db.Begin()
	defer tx.Abort()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tx.NodesByLabel(workload.LabelPerson); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcurrentMixedOps(b *testing.B) {
	db, g := buildBenchGraph(b, 2_000)
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(time.Now().UnixNano()))
		for pb.Next() {
			if r.Intn(10) < 8 {
				db.View(func(tx *neograph.Tx) error {
					_, err := tx.Relationships(g.People[r.Intn(len(g.People))], neograph.Both)
					return err
				})
			} else {
				_ = db.Update(10, func(tx *neograph.Tx) error {
					return tx.SetNodeProp(g.People[r.Intn(len(g.People))], "balance", neograph.Int(r.Int63n(1<<20)))
				})
			}
		}
	})
}

func BenchmarkGCPerVersion(b *testing.B) {
	db, g := buildBenchGraph(b, 1_000)
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Update(10, func(tx *neograph.Tx) error {
			return tx.SetNodeProp(g.People[i%len(g.People)], "balance", neograph.Int(int64(i)))
		})
	}
	b.StartTimer()
	rep := db.RunGC()
	if rep.Collected == 0 && b.N > 1 {
		b.Fatalf("nothing collected: %+v", rep)
	}
}

var sinkErr error

func BenchmarkConflictDetection(b *testing.B) {
	db, g := buildBenchGraph(b, 100)
	hot := g.People[0]
	holder := db.Begin()
	if err := holder.SetNodeProp(hot, "balance", neograph.Int(1)); err != nil {
		b.Fatal(err)
	}
	defer holder.Abort()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		sinkErr = tx.SetNodeProp(hot, "balance", neograph.Int(2)) // always conflicts
		tx.Abort()
	}
	if sinkErr == nil {
		b.Fatal("expected conflicts")
	}
}

// ---- resident-layout benchmarks (bytes and allocations per entity) ----

// socialPeople / socialFriends size the layout benchmarks' graph: the
// BENCHMARK.json graph (12 000 people, ~96 000 KNOWS).
const (
	socialPeople  = 12_000
	socialFriends = 8
)

// liveHeap returns the live heap and cumulative malloc count after a
// forced collection.
func liveHeap() (heap, mallocs uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.Mallocs
}

// loadSocial opens a durable-format (unsynced) database in dir, loads a
// social graph of that many people and checkpoints it.
func loadSocial(b *testing.B, dir string, people int) (*neograph.DB, int) {
	b.Helper()
	db, err := neograph.Open(neograph.Options{Dir: dir, DisableSyncCommits: true})
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.BuildSocial(db, workload.SocialConfig{People: people, AvgFriends: socialFriends, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return db, len(g.People) + len(g.Rels)
}

// BenchmarkLoadSocial loads the benchmark graph through the commit path
// and reports what one resident entity costs once it is checkpointed.
func BenchmarkLoadSocial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		heap0, mallocs0 := liveHeap()
		db, entities := loadSocial(b, b.TempDir(), socialPeople)
		heap1, mallocs1 := liveHeap()
		b.ReportMetric(float64(heap1-heap0)/float64(entities), "B/entity")
		b.ReportMetric(float64(mallocs1-mallocs0)/float64(entities), "allocs/entity")
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// residentDB keeps the last recovered graph reachable after its benchmark
// returns, so that a -memprofile of the run (`make mem`) shows the
// resident layout instead of an empty heap.
var residentDB *neograph.DB

// BenchmarkRecoverSocial reopens a crashed, fully checkpointed copy of the
// benchmark graph, and of one ten times its size: ns/op is Open — what it
// grows with is the ratio of the two — B/entity the recovered layout,
// pins/page how often Open asked the page cache for each page of the
// store, and the three ms metrics where OpenReport says the time went.
func BenchmarkRecoverSocial(b *testing.B) {
	for _, people := range []int{socialPeople, 10 * socialPeople} {
		b.Run(fmt.Sprintf("people=%d", people), func(b *testing.B) { benchRecoverSocial(b, people) })
	}
}

func benchRecoverSocial(b *testing.B, people int) {
	dir := b.TempDir()
	db, entities := loadSocial(b, dir, people)
	if err := db.Crash(); err != nil {
		b.Fatal(err)
	}
	var pins, pages float64
	var rep core.OpenReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		heap0, mallocs0 := liveHeap()
		b.StartTimer()
		re, err := neograph.Open(neograph.Options{Dir: dir, DisableSyncCommits: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		heap1, mallocs1 := liveHeap()
		b.ReportMetric(float64(heap1-heap0)/float64(entities), "B/entity")
		b.ReportMetric(float64(mallocs1-mallocs0)/float64(entities), "allocs/entity")
		st := re.Engine().Store()
		for _, cs := range st.CacheStats() {
			pins += float64(cs.Hits + cs.Misses)
		}
		sizes, err := st.FileSizes()
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range sizes {
			pages += float64((size + pagecache.PageSize - 1) / pagecache.PageSize)
		}
		r := re.Engine().OpenReport()
		rep.Store += r.Store
		rep.Scan += r.Scan
		rep.Replay += r.Replay
		if err := re.Crash(); err != nil {
			b.Fatal(err)
		}
		residentDB = re
		b.StartTimer()
	}
	b.ReportMetric(pins/pages, "pins/page")
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(ms(rep.Store), "store-ms/op")
	b.ReportMetric(ms(rep.Scan), "scan-ms/op")
	b.ReportMetric(ms(rep.Replay), "replay-ms/op")
}

// indexBuildRounds counts BenchmarkPropertyIndexBuild's iterations across
// its runs, for its writer to change every balance it touches: the
// writers' commits stay in the store from one iteration to the next.
var indexBuildRounds int64

// indexBuildWriterRate is the commits per second of the writer that runs
// beside BenchmarkPropertyIndexBuild's builds: embed_mix's offered rate.
const indexBuildWriterRate = 4000

// BenchmarkPropertyIndexBuild is the cost side of indexing on demand: the
// first lookup of a property key builds its postings from the resident
// versions, on the benchmark's graph and on one ten times its size.
// `weight` is the large case — every relationship has one, each its own
// value: 96 000 one-entity postings — `balance` the other shape, 12 000
// people under two values. ns/op is the lookup (Open is not timed),
// entries what the scan emitted.
//
// Beside those two a writer commits balance changes at the rate of the
// benchmark's embed_mix workload, going round the people: side-log is how many of them reached the
// build's side log, held how many of those it replayed with commits held
// out, excl-us for how long that was, and writer-max-us the writer's
// slowest commit — to hold against the build's own length.
//
// key=all looks up all four keys of the graph with nothing else running:
// B/entry is the live heap the entries cost, B/entity the whole resident
// graph with every key built — what Open used to leave. It parks its
// engine for `make mem`'s second profile.
func BenchmarkPropertyIndexBuild(b *testing.B) {
	lookup := func(keys ...string) func(tx *neograph.Tx) error {
		return func(tx *neograph.Tx) error {
			for _, key := range keys {
				if key == "weight" {
					if _, err := tx.RelsByProperty(key, neograph.Float(2)); err != nil {
						return err
					}
				} else if _, err := tx.NodesByProperty(key, neograph.Int(1000)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	keys := []struct {
		name   string
		writer bool
		lookup func(tx *neograph.Tx) error
	}{
		{"weight", true, lookup("weight")},
		{"balance", true, lookup("balance")},
		{"all", false, lookup("uid", "name", "balance", "weight")},
	}
	for _, people := range []int{socialPeople, 10 * socialPeople} {
		b.Run(fmt.Sprintf("people=%d", people), func(b *testing.B) {
			dir := b.TempDir()
			db, entities := loadSocial(b, dir, people)
			var persons []neograph.NodeID
			if err := db.View(func(tx *neograph.Tx) (err error) {
				persons, err = tx.NodesByLabel(workload.LabelPerson)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			if err := db.Crash(); err != nil {
				b.Fatal(err)
			}
			for _, key := range keys {
				b.Run("key="+key.name, func(b *testing.B) {
					var entries, sideLog, held, excl, writerMax float64
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						residentDB = nil
						heap0, _ := liveHeap()
						re, err := neograph.Open(neograph.Options{Dir: dir, DisableSyncCommits: true})
						if err != nil {
							b.Fatal(err)
						}
						heap1, _ := liveHeap()
						indexBuildRounds++
						stop, slowest := make(chan struct{}), make(chan time.Duration)
						go func() {
							var worst time.Duration
							began := time.Now()
							for n := int64(0); key.writer; n++ {
								select {
								case <-stop:
									slowest <- worst
									return
								default:
								}
								time.Sleep(time.Until(began.Add(time.Duration(n) * time.Second / indexBuildWriterRate)))
								t0 := time.Now()
								err := re.Update(0, func(tx *neograph.Tx) error {
									return tx.SetNodeProp(persons[n%int64(len(persons))], "balance", neograph.Int(1000+(n+indexBuildRounds)%2))
								})
								if err != nil {
									b.Error(err)
								}
								worst = max(worst, time.Since(t0))
							}
							slowest <- 0
						}()
						b.StartTimer()
						err = re.View(key.lookup)
						b.StopTimer()
						close(stop)
						writerMax = max(writerMax, float64((<-slowest).Microseconds()))
						if err != nil {
							b.Fatal(err)
						}
						heap2, _ := liveHeap()
						var built float64
						for _, build := range re.Engine().IndexBuilds() {
							built += float64(build.Entries)
							sideLog += float64(build.SideLog)
							held += float64(build.Held)
							excl = max(excl, float64(build.Exclusive.Microseconds()))
						}
						entries += built
						if !key.writer {
							b.ReportMetric((float64(heap2)-float64(heap1))/built, "B/entry")
							b.ReportMetric(float64(heap2-heap0)/float64(entities), "B/entity")
						}
						// Collect and checkpoint what the writer did: the next
						// iteration opens one version an entity again.
						re.RunGC()
						if err := re.Close(); err != nil {
							b.Fatal(err)
						}
						residentDB = re
						b.StartTimer()
					}
					b.ReportMetric(entries/float64(b.N), "entries")
					if key.writer {
						b.ReportMetric(sideLog/float64(b.N), "side-log")
						b.ReportMetric(held/float64(b.N), "held")
						b.ReportMetric(excl, "excl-us")
						b.ReportMetric(writerMax, "writer-max-us")
					}
				})
			}
		})
	}
}

// ---- what a commit costs the log and the store ----

// commitShapes are the four write transactions of the repository's
// benchmark (benchmark/exec.go), on a graph with its schema: person i is
// {uid, name, balance}, a ledger {client, seq, xseq}.
var commitShapes = []struct {
	name        string
	budget      float64 // log B/commit, frame included: the measurement below plus a tenth
	storeBudget float64 // store B/commit once checkpointed: the same
	stage       func(tx *neograph.Tx, g *workload.SocialGraph, ledger neograph.NodeID, i int) error
}{
	// A transfer changes one integer on each of two persons and one on the
	// ledger: 80 B since updates are logged as deltas, 167 B as whole
	// entities (169.7 on the benchmark's 100 000 persons, whose uids and
	// names are longer). The store rewrites the three in place: 0 B.
	{"transfer", 88, 0, func(tx *neograph.Tx, g *workload.SocialGraph, ledger neograph.NodeID, i int) error {
		return stageTransfer(tx, g, ledger, i)
	}},
	// ... and records a relationship (the benchmark: every fourth), a
	// creation, logged whole as ever: 128 B (+48; was 216). The store
	// grows by its record and its one property: 106.5 B (was 163.8 while
	// the commit timestamp was a property record of its own).
	{"transfer+rel", 141, 117, func(tx *neograph.Tx, g *workload.SocialGraph, ledger neograph.NodeID, i int) error {
		if err := stageTransfer(tx, g, ledger, i); err != nil {
			return err
		}
		from, to := g.People[(2*i)%len(g.People)], g.People[(2*i+1)%len(g.People)]
		_, err := tx.CreateRel("TRANSFERRED", from, to, neograph.Props{"amount": neograph.Int(int64(1 + i%10))})
		return err
	}},
	// fleet_batch's eight-op batch, a stamp and seven touched persons:
	// 190 B (was 519). The store grows by each person's first "touched":
	// 122.9 B.
	{"touch-batch", 209, 135, func(tx *neograph.Tx, g *workload.SocialGraph, ledger neograph.NodeID, i int) error {
		if err := tx.SetNodeProp(ledger, "seq", neograph.Int(int64(1000+i))); err != nil {
			return err
		}
		for j := 0; j < 7; j++ {
			if err := tx.SetNodeProp(g.People[(7*i+j)%len(g.People)], "touched", neograph.Int(int64(1000+i))); err != nil {
				return err
			}
		}
		return nil
	}},
	// remote_traverse's insert, four relationships (whole) and a stamp:
	// 168 B (was 192). The store grows by four 40-byte records: 163.8 B
	// (was 385.0, a 32-byte record and a 64-byte property record each).
	{"knows+stamp", 185, 180, func(tx *neograph.Tx, g *workload.SocialGraph, ledger neograph.NodeID, i int) error {
		for j := 1; j <= 4; j++ {
			from, to := g.People[(5*i)%len(g.People)], g.People[(5*i+j)%len(g.People)]
			if _, err := tx.CreateRel(workload.RelKnows, from, to, nil); err != nil {
				return err
			}
		}
		return tx.SetNodeProp(ledger, "seq", neograph.Int(int64(1000+i)))
	}},
}

func stageTransfer(tx *neograph.Tx, g *workload.SocialGraph, ledger neograph.NodeID, i int) error {
	from, to := g.People[(2*i)%len(g.People)], g.People[(2*i+1)%len(g.People)]
	if err := tx.SetNodeProp(from, "balance", neograph.Int(int64(1000-i))); err != nil {
		return err
	}
	if err := tx.SetNodeProp(to, "balance", neograph.Int(int64(1000+i))); err != nil {
		return err
	}
	return tx.SetNodeProp(ledger, "seq", neograph.Int(int64(1000+i)))
}

// commitCost is what one commit of a shape costs, averaged over a run of
// them — log bytes: the record and its frame, which is also what the
// replication stream carries and every replica logs again; store bytes:
// the growth of the four record files across the run's checkpoint — and
// the pages that checkpoint wrote back over the four files (each is
// written twice, journal.go).
type commitCost struct {
	logBytes, storeBytes, pages float64
}

// commitRecordBytes commits n transactions of each shape and returns what
// one of them costs the log and, once the n are checkpointed, the store.
// The store's files grow a page at a time: n must be large enough for one
// page to be small beside n commits.
func commitRecordBytes(tb testing.TB, n int) map[string]commitCost {
	tb.Helper()
	db, err := neograph.Open(neograph.Options{Dir: tb.TempDir(), DisableSyncCommits: true})
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	g, err := workload.BuildSocial(db, workload.SocialConfig{People: 2_000, AvgFriends: 1, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	var ledger neograph.NodeID
	err = db.Update(0, func(tx *neograph.Tx) (err error) {
		ledger, err = tx.CreateNode([]string{"Ledger"}, neograph.Props{
			"client": neograph.Int(0), "seq": neograph.Int(0), "xseq": neograph.Int(0)})
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	st := db.Engine().Store()
	checkpoint := func() (size int64, written uint64) {
		if err := db.Checkpoint(); err != nil {
			tb.Fatal(err)
		}
		sizes, err := st.FileSizes()
		if err != nil {
			tb.Fatal(err)
		}
		for _, sz := range sizes {
			size += sz
		}
		for _, cs := range st.CacheStats() {
			written += cs.Flushes
		}
		return size, written
	}
	costs := make(map[string]commitCost)
	size0, pages0 := checkpoint() // the graph's own
	i := 1                        // runs on across the shapes: no write sets a value the property already has
	for _, shape := range commitShapes {
		start := db.AppliedLSN()
		for end := i + n; i < end; i++ {
			if err := db.Update(0, func(tx *neograph.Tx) error { return shape.stage(tx, g, ledger, i) }); err != nil {
				tb.Fatal(err)
			}
		}
		logged := db.AppliedLSN() - start
		size, pages := checkpoint()
		costs[shape.name] = commitCost{
			logBytes:   float64(logged) / float64(n),
			storeBytes: float64(size-size0) / float64(n),
			pages:      float64(pages - pages0),
		}
		size0, pages0 = size, pages
	}
	return costs
}

// commitRuns is how many commits of each shape the two below measure: one
// 8 KB page of store growth is under 9 B a commit.
const commitRuns = 1000

// BenchmarkCommitRecordBytes reports per write shape the log and store
// bytes a commit costs and the pages the checkpoint after a run of them
// writes (`make logbytes` writes the row to commit-record-bytes.json).
func BenchmarkCommitRecordBytes(b *testing.B) {
	var costs map[string]commitCost
	for i := 0; i < b.N; i++ {
		costs = commitRecordBytes(b, commitRuns)
	}
	for _, shape := range commitShapes {
		c := costs[shape.name]
		b.ReportMetric(c.logBytes, shape.name+"-B/commit")
		b.ReportMetric(c.storeBytes, shape.name+"-store-B/commit")
		b.ReportMetric(c.pages, shape.name+"-pages/checkpoint")
	}
}

// TestCommitRecordBudget is the tier-1 form of the benchmark: a change
// that makes a commit cost the log or the store more than a tenth over
// what it costs today fails.
func TestCommitRecordBudget(t *testing.T) {
	costs := commitRecordBytes(t, commitRuns)
	for _, shape := range commitShapes {
		c := costs[shape.name]
		t.Logf("%-13s %6.1f B/commit (budget %.0f), %6.1f store B/commit (budget %.0f), %.0f pages/checkpoint",
			shape.name, c.logBytes, shape.budget, c.storeBytes, shape.storeBudget, c.pages)
		if c.logBytes > shape.budget {
			t.Errorf("%s logs %.1f B/commit, over its budget of %.0f", shape.name, c.logBytes, shape.budget)
		}
		if c.storeBytes > shape.storeBudget {
			t.Errorf("%s grows the store %.1f B/commit, over its budget of %.0f", shape.name, c.storeBytes, shape.storeBudget)
		}
	}
}
