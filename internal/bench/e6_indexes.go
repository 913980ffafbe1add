package bench

import (
	"fmt"
	"time"

	"neograph"
)

// E6Row is one measured cell.
type E6Row struct {
	Selectivity float64 // fraction of nodes carrying the probed label
	Hits        int
	IndexTime   time.Duration // per lookup
	ScanTime    time.Duration // per lookup
	Speedup     float64       `json:"-"` // ScanTime / IndexTime
}

var e6 = Experiment{"E6", "versioned label index vs full scan (paper §4)", tabled(runE6,
	"index wins at low selectivity; gap narrows as selectivity -> 1")}

// runE6 measures the versioned label index (§4) against the full-scan
// baseline, across selectivities. The snapshot filtering is exercised by
// interleaving label flips so the index holds dead entries that lookups
// must skip.
func runE6(p Params) ([]E6Row, error) {
	nodes := pick(p, 100_000, 10_000)
	lookups := pick(p, 50, 10) // lookups per measurement

	var rows []E6Row
	for _, sel := range []float64{0.001, 0.01, 0.1, 0.5} {
		db, err := neograph.Open(neograph.Options{})
		if err != nil {
			return nil, err
		}
		label := "Hot"
		want := max(int(float64(nodes)*sel), 1)
		const batch = 1024
		for made := 0; made < nodes; made += batch {
			err := db.Update(0, func(tx *neograph.Tx) error {
				for i := made; i < min(made+batch, nodes); i++ {
					labels := []string{"Node"}
					if i%(nodes/want+1) == 0 {
						labels = append(labels, label)
					}
					if _, err := tx.CreateNode(labels, neograph.Props{"i": neograph.Int(int64(i))}); err != nil {
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
		// Churn: flip the label on some nodes so dead index entries exist.
		db.Update(0, func(tx *neograph.Tx) error {
			hits, err := tx.NodesByLabel(label)
			if err != nil {
				return err
			}
			for i, id := range hits {
				if i%3 == 0 {
					if err := tx.RemoveLabel(id, label); err != nil {
						return err
					}
					if err := tx.AddLabel(id, label); err != nil {
						return err
					}
				}
			}
			return nil
		})

		row := E6Row{Selectivity: sel}
		err = db.View(func(tx *neograph.Tx) error {
			t0 := time.Now()
			var got []neograph.NodeID
			for i := 0; i < lookups; i++ {
				var err error
				got, err = tx.NodesByLabel(label)
				if err != nil {
					return err
				}
			}
			row.IndexTime = time.Since(t0) / time.Duration(lookups)
			row.Hits = len(got)

			t0 = time.Now()
			var scanned []neograph.NodeID
			for i := 0; i < lookups; i++ {
				scanned = scanned[:0]
				all, err := tx.AllNodes()
				if err != nil {
					return err
				}
				for _, id := range all {
					has, err := tx.HasLabel(id, label)
					if err != nil {
						return err
					}
					if has {
						scanned = append(scanned, id)
					}
				}
			}
			row.ScanTime = time.Since(t0) / time.Duration(lookups)
			if len(scanned) != row.Hits {
				return fmt.Errorf("bench: index (%d) and scan (%d) disagree", row.Hits, len(scanned))
			}
			return nil
		})
		db.Close()
		if err != nil {
			return nil, err
		}
		row.Speedup = float64(row.ScanTime) / float64(max(row.IndexTime, 1))
		rows = append(rows, row)
	}
	return rows, nil
}
