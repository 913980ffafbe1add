package bench

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"neograph"
	"neograph/internal/workload"
)

// E3Row is one measured cell.
type E3Row struct {
	Theta  float64
	Policy string
	Result Result
	// WastedOps counts operations executed inside transactions that later
	// aborted — FCW pays for work FUW cancels early (§3).
	WastedOps uint64
}

var e3 = Experiment{"E3", "write-write conflicts: first-updater-wins vs first-committer-wins (paper §3)", tabled(runE3,
	"aborts grow with theta; FCW wastes more ops per abort (late detection)")}

// runE3 compares first-updater-wins against first-committer-wins under
// increasing access skew (Zipf theta). Both enforce the same write rule;
// the paper picks FUW (§4). The measurable difference is when the loser
// learns it lost: FUW at its first conflicting update, FCW only at commit
// — so FCW wastes the whole transaction's work.
func runE3(p Params) ([]E3Row, error) {
	var rows []E3Row
	for _, theta := range []float64{0, 0.6, 0.9, 1.2} {
		for _, pol := range []struct {
			name   string
			policy neograph.Options
		}{
			{"FUW", neograph.Options{Conflict: neograph.FirstUpdaterWins}},
			{"FCW", neograph.Options{Conflict: neograph.FirstCommitterWins}},
		} {
			db, err := neograph.Open(pol.policy)
			if err != nil {
				return nil, err
			}
			g, err := workload.BuildSocial(db, workload.SocialConfig{People: pick(p, 2000, 300), AvgFriends: 2, Seed: p.Seed})
			if err != nil {
				db.Close()
				return nil, err
			}
			var wasted atomic.Uint64
			op := func(c int, r *rand.Rand) error {
				picker := rand.New(rand.NewSource(r.Int63()))
				pick := func() neograph.NodeID {
					if theta <= 0 {
						return g.People[picker.Intn(len(g.People))]
					}
					z := rand.NewZipf(picker, 1+theta, 1, uint64(len(g.People)-1))
					return g.People[z.Uint64()]
				}
				tx := db.Begin()
				ops := 0
				// A 4-update transaction: more chances to conflict, more
				// work to waste.
				for k := 0; k < 4; k++ {
					if err := tx.SetNodeProp(pick(), "balance", neograph.Int(r.Int63n(1<<20))); err != nil {
						tx.Abort()
						wasted.Add(uint64(ops))
						return err
					}
					ops++
				}
				if err := tx.Commit(); err != nil {
					wasted.Add(uint64(ops))
					return err
				}
				return nil
			}
			res := (&Runner{Clients: 16, Duration: pick(p, 2*time.Second, 300*time.Millisecond), Seed: p.Seed, Op: op}).
				Run(fmt.Sprintf("theta=%.1f/%s", theta, pol.name))
			rows = append(rows, E3Row{Theta: theta, Policy: pol.name, Result: res, WastedOps: wasted.Load()})
			db.Close()
		}
	}
	return rows, nil
}
