package bench

import (
	"time"

	"neograph"
)

// E4Row is one measured cell.
type E4Row struct {
	Live      int
	Garbage   int
	Mode      string
	Pause     time.Duration
	Collected int
	Scanned   int
	// The indexes' share of the pass: entries dropped and queued removals
	// examined — in both modes, their collector is always threaded.
	IndexPruned  int
	IndexScanned int
}

var e4 = Experiment{"E4", "GC pause: threaded version list vs vacuum scan (paper §4)", tabled(runE4,
	"threaded pause ~constant across store sizes (scanned == garbage); "+
		"vacuum pause and scanned grow linearly with live entities at fixed garbage")}

// runE4 reproduces the paper's §4 GC claim: with versions threaded on a
// timestamp-sorted doubly-linked list, collection cost is proportional to
// the garbage collected; a vacuum-style collector (the PostgreSQL
// contrast) scans the whole store, so its pause grows with store size
// even when garbage is constant.
func runE4(p Params) ([]E4Row, error) {
	garbage := pick(p, 20_000, 2_000) // superseded versions produced before each collection

	var rows []E4Row
	for _, live := range pick(p, []int{10_000, 100_000, 1_000_000}, []int{2_000, 20_000}) {
		for _, mode := range []neograph.Options{
			{GCMode: neograph.GCThreaded},
			{GCMode: neograph.GCVacuum},
		} {
			db, err := neograph.Open(mode)
			if err != nil {
				return nil, err
			}
			// The pass's index share is measured on the one property the
			// rewrites touch: look it up once, so that it has postings.
			err = db.View(func(tx *neograph.Tx) error {
				_, err := tx.NodesByProperty("v", neograph.Int(0))
				return err
			})
			if err != nil {
				db.Close()
				return nil, err
			}
			// Live store: `live` nodes, one version each.
			nodes, err := createNodes(db, live, nil, neograph.Props{"v": neograph.Int(0)})
			if err != nil {
				db.Close()
				return nil, err
			}
			// Produce a fixed amount of garbage on a small hot set.
			hot := nodes[:min(100, len(nodes))]
			for produced := 0; produced < garbage; produced += len(hot) {
				err := db.Update(0, func(tx *neograph.Tx) error {
					for i := 0; i < min(len(hot), garbage-produced); i++ {
						if err := tx.SetNodeProp(hot[i], "v", neograph.Int(int64(produced+i))); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					db.Close()
					return nil, err
				}
			}

			rep := db.RunGC()
			modeName := "threaded"
			if rep.Mode == neograph.GCVacuum {
				modeName = "vacuum"
			}
			rows = append(rows, E4Row{
				Live: live, Garbage: garbage, Mode: modeName,
				Pause: rep.Duration, Collected: rep.Collected, Scanned: rep.Scanned,
				IndexPruned: rep.IndexPruned, IndexScanned: rep.IndexScanned,
			})
			db.Close()
		}
	}
	return rows, nil
}
