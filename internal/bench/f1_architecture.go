package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"neograph"
	"neograph/internal/workload"
)

// F1Row is one line of the component inventory.
type F1Row struct {
	Layer, Component, Footprint string
}

var f1 = Experiment{"F1", "architecture inventory (paper Figure 1)", runF1}

// runF1 regenerates Figure 1 as a live component inventory: it builds a
// sample graph on disk and reports each architectural layer of the
// implementation with its observable footprint — the object cache
// (version chains), the persistent store's record files, the indexes,
// the WAL, and the transaction machinery. It prints its table but returns
// no rows: an inventory is not a measurement, so -json leaves it out.
func runF1(w io.Writer, p Params) (any, error) {
	db, dir, err := tempDB(neograph.Options{DisableSyncCommits: true})
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer db.Close()
	g, err := workload.BuildSocial(db, workload.SocialConfig{People: pick(p, 5_000, 500), AvgFriends: 3, Seed: p.Seed})
	if err != nil {
		return nil, err
	}
	if err := db.Checkpoint(); err != nil {
		return nil, err
	}
	versions, entities := db.VersionCount()
	sizes, err := db.Engine().Store().FileSizes()
	if err != nil {
		return nil, err
	}
	bytes := func(n int64) string { return fmt.Sprintf("%d B", n) }
	printRows(w, []F1Row{
		{"object cache", "entities (nodes+rels)", fmt.Sprint(entities)},
		{"object cache", "version chains total versions", fmt.Sprint(versions)},
		{"object cache", "gc backlog (threaded list)", fmt.Sprint(db.GCBacklog())},
		{"persistent store", "neostore.nodes.db", bytes(sizes["nodes"])},
		{"persistent store", "neostore.rels.db", bytes(sizes["rels"])},
		{"persistent store", "neostore.props.db", bytes(sizes["props"])},
		{"persistent store", "neostore.dyn.db", bytes(sizes["dyn"])},
		{"wal", "segments", bytes(dirSize(filepath.Join(dir, "wal")))},
		{"txn system", "commits", fmt.Sprint(db.Stats().Committed)},
		{"txn system", "watermark (commit TS)", fmt.Sprint(db.Watermark())},
		{"graph", "people / knows", fmt.Sprintf("%d / %d", len(g.People), len(g.Rels))},
	})
	return nil, nil
}
