package bench

import (
	"fmt"
	"math/rand"
	"time"

	"neograph"
	"neograph/internal/core"
	"neograph/internal/workload"
)

// mixes are E2's three read/write transaction mixes: a name and the
// probability that a transaction is read-only.
var mixes = []struct {
	name     string
	readFrac float64
}{
	{"read-heavy 90/10", 0.9},
	{"balanced 50/50", 0.5},
	{"write-heavy 10/90", 0.1},
}

// E2Row is one measured cell.
type E2Row struct {
	Mix       string
	Clients   int
	Isolation string
	Result    Result
}

var e2 = Experiment{"E2", "throughput, SI vs RC (paper §1/§4: no read locks under SI)", tabled(runE2,
	"SI >= RC, gap widening with write fraction and clients")}

// runE2 measures committed-transactions-per-second for SI versus the RC
// baseline across client counts and mixes. The paper's claim (§1/§4):
// removing short read locks means SI readers never block, so SI
// dominates as the write fraction grows.
func runE2(p Params) ([]E2Row, error) {
	people := pick(p, 5000, 500)
	duration := pick(p, 2*time.Second, 200*time.Millisecond)

	var rows []E2Row
	for _, mix := range mixes {
		for _, clients := range pick(p, []int{1, 2, 4, 8, 16, 32, 64}, []int{1, 4, 16}) {
			for _, iso := range []struct {
				name  string
				level core.IsolationLevel
			}{
				{"SI", neograph.SnapshotIsolation},
				{"RC", neograph.ReadCommitted},
			} {
				db, err := neograph.Open(neograph.Options{})
				if err != nil {
					return nil, err
				}
				g, err := workload.BuildSocial(db, workload.SocialConfig{People: people, AvgFriends: 3, Seed: p.Seed})
				if err != nil {
					db.Close()
					return nil, err
				}
				op := func(c int, r *rand.Rand) error {
					tx := db.BeginIsolation(iso.level)
					if r.Float64() < mix.readFrac {
						// Read transaction: point reads plus a 1-hop traversal.
						var err error
						for k := 0; k < 3 && err == nil; k++ {
							_, err = tx.GetNode(g.People[r.Intn(len(g.People))])
						}
						if err == nil {
							_, err = tx.Relationships(g.People[r.Intn(len(g.People))], neograph.Both)
						}
						tx.Abort() // read-only
						return err
					}
					return updateBalance(tx, g, r)
				}
				res := (&Runner{Clients: clients, Duration: duration, Seed: p.Seed, Op: op}).
					Run(fmt.Sprintf("%s/%d/%s", mix.name, clients, iso.name))
				rows = append(rows, E2Row{Mix: mix.name, Clients: clients, Isolation: iso.name, Result: res})
				db.Close()
			}
		}
	}
	return rows, nil
}

// updateBalance is E2's write transaction: one property update on a
// random person, committed.
func updateBalance(tx *neograph.Tx, g *workload.SocialGraph, r *rand.Rand) error {
	if err := tx.SetNodeProp(g.People[r.Intn(len(g.People))], "balance", neograph.Int(r.Int63n(1<<20))); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
