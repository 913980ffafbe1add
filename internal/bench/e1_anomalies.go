package bench

import (
	"math/rand"
	"sync/atomic"
	"time"

	"neograph"
	"neograph/internal/core"
	"neograph/internal/workload"
)

// E1Result counts observed anomalies per isolation level.
type E1Result struct {
	Isolation         string
	CheckTxns         uint64
	UnrepeatableReads uint64
	PhantomReads      uint64
}

var e1 = Experiment{"E1", "anomalies under RC vs SI (paper §1)", tabled(runE1,
	"SI rows are zero; RC rows are non-zero under write load")}

// runE1 reproduces the paper's §1 claim: read committed exhibits
// unrepeatable reads and phantoms; snapshot isolation exhibits neither.
//
// Writers continuously flip a property on random Person nodes and toggle
// membership of the "Flagged" label. Checkers run transactions that (a)
// read one node's property twice and (b) evaluate the predicate "nodes
// labelled Flagged" twice, counting any difference as an anomaly.
func runE1(p Params) ([]E1Result, error) {
	const writers, checkers = 8, 4 // checkers per isolation level
	db, err := neograph.Open(neograph.Options{})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	g, err := workload.BuildSocial(db, workload.SocialConfig{People: pick(p, 2000, 300), AvgFriends: 2, Seed: p.Seed})
	if err != nil {
		return nil, err
	}

	write := func(i int, stop <-chan struct{}) {
		r := rand.New(rand.NewSource(p.Seed + int64(i)))
		for !stopped(stop) {
			id := g.People[r.Intn(len(g.People))]
			_ = db.Update(0, func(tx *neograph.Tx) error {
				if err := tx.SetNodeProp(id, "balance", neograph.Int(r.Int63n(10000))); err != nil {
					return err
				}
				if r.Intn(2) == 0 {
					return tx.AddLabel(id, "Flagged")
				}
				return tx.RemoveLabel(id, "Flagged")
			})
		}
	}
	check := func(level core.IsolationLevel, res *E1Result, stop <-chan struct{}) {
		r := rand.New(rand.NewSource(p.Seed ^ 0x5ee))
		for !stopped(stop) {
			tx := db.BeginIsolation(level)
			id := g.People[r.Intn(len(g.People))]
			n1, err1 := tx.GetNode(id)
			set1, errP1 := tx.NodesByLabel("Flagged")
			// Give writers a window to commit between the two reads.
			time.Sleep(time.Millisecond)
			n2, err2 := tx.GetNode(id)
			set2, errP2 := tx.NodesByLabel("Flagged")
			tx.Abort()
			if err1 != nil || err2 != nil || errP1 != nil || errP2 != nil {
				continue
			}
			atomic.AddUint64(&res.CheckTxns, 1)
			v1, _ := n1.Props["balance"].AsInt()
			v2, _ := n2.Props["balance"].AsInt()
			if v1 != v2 {
				atomic.AddUint64(&res.UnrepeatableReads, 1)
			}
			if !sameIDSet(set1, set2) {
				atomic.AddUint64(&res.PhantomReads, 1)
			}
		}
	}

	results := []E1Result{{Isolation: "snapshot-isolation"}, {Isolation: "read-committed"}}
	during(pick(p, 5*time.Second, 700*time.Millisecond), writers+2*checkers, func(i int, stop <-chan struct{}) {
		switch {
		case i < writers:
			write(i, stop)
		case i < writers+checkers:
			check(neograph.SnapshotIsolation, &results[0], stop)
		default:
			check(neograph.ReadCommitted, &results[1], stop)
		}
	})
	return results, nil
}

func sameIDSet(a, b []neograph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
