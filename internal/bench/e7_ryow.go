package bench

import (
	"fmt"
	"time"

	"neograph"
)

// E7Row is one measured cell.
type E7Row struct {
	WriteSet   int // staged writes in the probing transaction
	PerLookup  time.Duration
	ResultSize int
}

var e7 = Experiment{"E7", "read-your-own-writes iterator merge overhead (paper §3/§4)", tabled(runE7,
	"latency grows smoothly with write-set size; correctness is exact")}

// runE7 quantifies the enriched iterator of §4: every snapshot lookup
// must merge the transaction's private write set over the committed
// index/iterator result. The merge cost grows with the write-set size —
// the table shows per-lookup latency against staged writes.
func runE7(p Params) ([]E7Row, error) {
	baseNodes := pick(p, 50_000, 2_000) // committed nodes under the probed label
	lookups := pick(p, 50, 10)
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	const label = "Probe"
	if _, err := createNodes(db, baseNodes, []string{label}, nil); err != nil {
		return nil, err
	}

	var rows []E7Row
	for _, ws := range []int{0, 10, 100, 1_000, 10_000} {
		tx := db.Begin()
		for i := 0; i < ws; i++ {
			if _, err := tx.CreateNode([]string{label}, nil); err != nil {
				tx.Abort()
				return nil, err
			}
		}
		t0 := time.Now()
		var got []neograph.NodeID
		for i := 0; i < lookups; i++ {
			var err error
			got, err = tx.NodesByLabel(label)
			if err != nil {
				tx.Abort()
				return nil, err
			}
		}
		per := time.Since(t0) / time.Duration(lookups)
		tx.Abort()
		if len(got) != baseNodes+ws {
			return nil, fmt.Errorf("bench: RYOW merge lost rows: %d != %d", len(got), baseNodes+ws)
		}
		rows = append(rows, E7Row{WriteSet: ws, PerLookup: per, ResultSize: len(got)})
	}
	return rows, nil
}
