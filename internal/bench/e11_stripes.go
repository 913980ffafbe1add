package bench

import (
	"fmt"
	"math/rand"
	"time"

	"neograph"
)

// E11Row is one measured cell.
type E11Row struct {
	Stripes int    // resolved stripe count
	Mix     string // "write" or "mixed 50/50"
	Clients int
	Result  Result
	// Speedup is this cell's throughput over the 1-stripe cell with the
	// same mix and client count (1.0 for the baseline itself).
	Speedup float64
}

var e11 = Experiment{"E11", "striped commit pipeline, FCW validate+install", tabled(runE11,
	"parity at 1 client; striped >= 2x the 1-stripe latch by 8 writers on a multi-core host")}

// runE11 measures committed-transactions-per-second of the striped commit
// pipeline: first-committer-wins validation+install against one global
// latch (CommitStripes=1, the pre-striping engine) versus per-stripe
// latches. Each client owns a disjoint slice of the population, so write
// transactions never conflict — what E11 measures is the commit pipeline
// itself, not the workload's conflict rate: with striping, commits
// proceed in parallel end to end; with one stripe every commit funnels
// through the same latch regardless. A mixed 50/50 read/write sweep rides
// along: snapshot reads take no latch at all, so their scaling is bounded
// only by the striped object map.
func runE11(p Params) ([]E11Row, error) {
	// writesPerTxn is each committing transaction's write-set size
	// (spread over stripes; larger sets make the validate+install section
	// the 1-stripe latch serialises more expensive).
	const writesPerTxn = 4
	// The baseline, then the engine default (0: GOMAXPROCS rounded up to a
	// power of two). Quick mode pins 8 so the striped cell exists even on
	// a 1-CPU box where the default would degenerate to a single stripe.
	stripeSettings := pick(p, []int{1, 0}, []int{1, 8})

	var rows []E11Row
	base := map[string]float64{} // mix/clients -> 1-stripe throughput
	for _, stripes := range stripeSettings {
		for _, mix := range []struct {
			name     string
			readFrac float64
		}{
			{"write", 0},
			{"mixed 50/50", 0.5},
		} {
			for _, clients := range pick(p, []int{1, 2, 4, 8, 16}, []int{1, 2, 4, 8}) {
				db, err := neograph.Open(neograph.Options{
					Conflict:      neograph.FirstCommitterWins,
					CommitStripes: stripes,
				})
				if err != nil {
					return nil, err
				}
				nodes, err := createNodes(db, pick(p, 8192, 2048), nil, neograph.Props{"v": neograph.Int(0)})
				if err != nil {
					db.Close()
					return nil, err
				}
				per := len(nodes) / clients
				op := func(c int, r *rand.Rand) error {
					tx := db.Begin()
					if r.Float64() < mix.readFrac {
						// Read transaction: point reads across the keyspace.
						var err error
						for k := 0; k < writesPerTxn && err == nil; k++ {
							_, err = tx.GetNode(nodes[r.Intn(len(nodes))])
						}
						tx.Abort()
						return err
					}
					// Write transaction: update this client's private slice
					// only — disjoint footprints, zero conflicts.
					own := nodes[c*per : (c+1)*per]
					for k := 0; k < writesPerTxn; k++ {
						id := own[r.Intn(len(own))]
						if err := tx.SetNodeProp(id, "v", neograph.Int(r.Int63n(1<<20))); err != nil {
							tx.Abort()
							return err
						}
					}
					return tx.Commit()
				}
				res := (&Runner{Clients: clients, Duration: pick(p, time.Second, 250*time.Millisecond), Seed: p.Seed, Op: op}).
					Run(fmt.Sprintf("stripes/%d/%s/%d", stripes, mix.name, clients))
				row := E11Row{
					Stripes: db.Engine().CommitStripes(),
					Mix:     mix.name,
					Clients: clients,
					Result:  res,
				}
				key := fmt.Sprintf("%s/%d", mix.name, clients)
				if row.Stripes == 1 {
					base[key] = res.Throughput()
				}
				if b := base[key]; b > 0 {
					row.Speedup = res.Throughput() / b
				}
				rows = append(rows, row)
				db.Close()
			}
		}
	}
	return rows, nil
}
