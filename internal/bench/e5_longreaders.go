package bench

import "neograph"

// E5Row is one sample of version accumulation.
type E5Row struct {
	Phase    string
	Step     int
	Versions int
	Bytes    int
	Backlog  int
}

var e5 = Experiment{"E5", "version accumulation under a long-running transaction (paper §3)", tabled(runE5,
	"versions/bytes grow ~linearly per step while the reader lives, then collapse to the live set after it finishes")}

// runE5 shows the cost model of §3's horizon rule: while an old
// transaction is active, superseded versions cannot be collected and
// memory grows linearly with update volume; the moment the reader
// finishes, one GC run reclaims the whole backlog.
func runE5(p Params) ([]E5Row, error) {
	const steps = 5 // samples while the reader is alive
	updatesPerStep := pick(p, 10_000, 500)
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	nodes, err := createNodes(db, pick(p, 500, 100), nil, neograph.Props{"v": neograph.Int(0)})
	if err != nil {
		return nil, err
	}

	var rows []E5Row
	sample := func(phase string, step int) {
		versions, _ := db.VersionCount()
		rows = append(rows, E5Row{
			Phase: phase, Step: step,
			Versions: versions, Bytes: db.VersionBytes(), Backlog: db.GCBacklog(),
		})
	}

	longReader := db.Begin() // pins the horizon
	if _, err := longReader.GetNode(nodes[0]); err != nil {
		return nil, err
	}
	sample("reader-active", 0)
	for step := 1; step <= steps; step++ {
		for u := 0; u < updatesPerStep; u++ {
			id := nodes[u%len(nodes)]
			if err := db.Update(0, func(tx *neograph.Tx) error {
				return tx.SetNodeProp(id, "v", neograph.Int(int64(u)))
			}); err != nil {
				return nil, err
			}
		}
		db.RunGC() // must reclaim ~nothing: the reader pins the horizon
		sample("reader-active", step)
	}
	// Reader finishes: one GC run drains the backlog.
	longReader.Abort()
	db.RunGC()
	sample("reader-done", steps+1)
	return rows, nil
}
