package bench

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"neograph"
)

// E8Result captures the persistence measurements.
type E8Result struct {
	Entities          int
	VersionsPerEntity int
	// LatestOnlyBytes is what the checkpointer actually wrote (the
	// paper's design: one version per entity).
	LatestOnlyBytes uint64
	// AllVersionsBytes is the ablation: what a store persisting every
	// version would have written.
	AllVersionsBytes uint64
	WALBeforeCkpt    int64
	WALAfterCkpt     int64
	RecoveryTime     time.Duration
	RecoveredNodes   int
	// Group-commit durability phase: synced concurrent commits, the
	// fsyncs they shared, and how many of those commits survived a second
	// crash+recovery (must equal SyncedCommits).
	SyncedCommits    uint64
	SyncedFlushes    uint64
	SyncedThroughput float64 // synced commits per second
	SyncedRecovered  int
}

var e8 = Experiment{"E8", "persist only the latest committed version (paper §4)", tabled(runE8,
	"latest-only bytes ~= 1/versions of the all-versions ablation; WAL shrinks at checkpoint; "+
		"recovery restores every entity; fsyncs <= synced commits (group commit) and none of those commits is lost")}

// runE8 validates §4's persistence design: only the most recent committed
// version of each entity reaches the store. The ablation column shows the
// write amplification a persist-every-version design would pay, and the
// recovery measurement shows a crash restart (store + WAL tail replay).
func runE8(p Params) (E8Result, error) {
	const updatesPerNode = 5 // committed versions per node
	entities := pick(p, 20_000, 1_000)
	fail := func(err error) (E8Result, error) { return E8Result{}, err }

	db, dir, err := tempDB(neograph.Options{DisableSyncCommits: true})
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	nodes, err := createNodes(db, entities, []string{"Data"}, neograph.Props{
		"v":   neograph.Int(0),
		"pad": neograph.String("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
	})
	const batch = 512
	for u := 1; u < updatesPerNode && err == nil; u++ {
		for start := 0; start < len(nodes) && err == nil; start += batch {
			err = db.Update(0, func(tx *neograph.Tx) error {
				for _, id := range nodes[start:min(start+batch, len(nodes))] {
					if err := tx.SetNodeProp(id, "v", neograph.Int(int64(u))); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
	if err != nil {
		db.Close()
		return fail(err)
	}

	res := E8Result{Entities: entities, VersionsPerEntity: updatesPerNode}
	res.WALBeforeCkpt = dirSize(filepath.Join(dir, "wal"))
	// The all-versions ablation: every version's bytes.
	res.AllVersionsBytes = uint64(db.VersionBytes())
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return fail(err)
	}
	res.LatestOnlyBytes = db.Stats().CheckpointBytes
	res.WALAfterCkpt = dirSize(filepath.Join(dir, "wal"))
	// Crash and recover.
	if err := db.Crash(); err != nil {
		return fail(err)
	}
	t0 := time.Now()
	db2, err := neograph.Open(neograph.Options{Dir: dir})
	if err != nil {
		return fail(err)
	}
	res.RecoveryTime = time.Since(t0)
	db2.View(func(tx *neograph.Tx) error {
		all, err := tx.AllNodes()
		res.RecoveredNodes = len(all)
		return err
	})

	// Group-commit durability phase: concurrent writers commit with fsync
	// enabled (the batched group-commit pipeline) against the recovered
	// store, then crash and recover once more — every acknowledged commit
	// must be replayed.
	const writers = 8
	perWriter := pick(p, 100, 25)
	t0 = time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				err := db2.Update(3, func(tx *neograph.Tx) error {
					_, err := tx.CreateNode([]string{"Synced"}, neograph.Props{
						"writer": neograph.Int(int64(i)),
						"seq":    neograph.Int(int64(j)),
					})
					return err
				})
				if err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(errCh)
	if err := <-errCh; err != nil {
		db2.Close()
		return fail(err)
	}
	st := db2.Stats()
	res.SyncedCommits = st.WALSyncedCommits
	res.SyncedFlushes = st.WALFlushes
	res.SyncedThroughput = float64(writers*perWriter) / elapsed.Seconds()
	if err := db2.Crash(); err != nil {
		return fail(err)
	}
	db3, err := neograph.Open(neograph.Options{Dir: dir})
	if err != nil {
		return fail(err)
	}
	defer db3.Close()
	db3.View(func(tx *neograph.Tx) error {
		ids, err := tx.NodesByLabel("Synced")
		res.SyncedRecovered = len(ids)
		return err
	})
	return res, nil
}

func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
