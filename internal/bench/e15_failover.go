package bench

import (
	"fmt"
	"time"

	"neograph"
	"neograph/internal/cluster"
	"neograph/internal/fleet"
)

// E15Row is one sync level's measurement of the window a primary death
// leaves the cluster unwritable.
type E15Row struct {
	SyncReplicas int `json:"sync_replicas"`
	PreCommits   int `json:"pre_commits"`
	// UnavailSeconds is last-ack-before-kill to first-commit-after-auto-
	// promote: the full client-visible write outage, covering suspicion,
	// quorum confirmation, election, and promotion.
	UnavailSeconds float64 `json:"unavail_seconds"`
	// RecoveriesPS is 1/UnavailSeconds, the higher-is-better form.
	RecoveriesPS float64 `json:"recoveries_per_sec"`
	// Survived counts pre-kill acknowledged commits readable on the new
	// primary; Lost is PreCommits - Survived. Lost must be 0 at quorum
	// >= 1; at quorum 0 it reports what async replication gave up.
	Survived int `json:"survived"`
	Lost     int `json:"lost"`
	// WinnerEpoch sanity-checks that exactly one promotion happened.
	WinnerEpoch uint64 `json:"winner_epoch"`
}

var e15 = Experiment{"E15", "auto-failover unavailability window (last ack -> first post-promotion commit)", tabled(runE15,
	"unavailability ~ SuspectAfter + a few probe ticks at both levels; "+
		"lost must be 0 at quorum >= 1 (async level 0 may lose the unreplicated tail)")}

// runE15 measures the unavailability window of a self-driving failover
// (E15): a 3-node fleet under cluster controllers, the primary killed
// hard mid-workload, and the clock running from the last acknowledged
// commit until the auto-promoted winner accepts the next one. No
// operator action occurs between those two commits. Swept over
// SyncReplicas 0 (the async baseline, where acknowledged loss is
// possible) and 1 (quorum, where it must be zero).
func runE15(p Params) ([]E15Row, error) {
	var rows []E15Row
	for level := 0; level <= 1; level++ {
		row, err := runE15Config(p, level)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runE15Config(p Params, level int) (E15Row, error) {
	// preCommits acknowledged commits land before the primary is killed.
	preCommits := pick(p, 200, 40)
	row := E15Row{SyncReplicas: level, PreCommits: preCommits}

	f, err := fleet.Start(fleet.Spec{
		Replicas: 2,
		DB:       neograph.Options{SyncReplicas: level, SyncReplicaTimeout: -1},
		// Production-shaped timings, fast enough for a smoke run.
		Cluster: &cluster.Options{
			SuspectAfter:    200 * time.Millisecond,
			ElectionTimeout: time.Second,
			ProbeEvery:      50 * time.Millisecond,
		},
	})
	if err != nil {
		return row, err
	}
	defer f.Close()
	primary, survivors := f.Groups[0][0], f.Groups[0][1:]
	create := func(db *neograph.DB, retries, i int) error {
		return db.Update(retries, func(tx *neograph.Tx) error {
			_, err := tx.CreateNode([]string{"E15"}, neograph.Props{"i": neograph.Int(int64(i))})
			return err
		})
	}

	// Acked workload, then a hard kill.
	for i := 0; i < preCommits; i++ {
		if err := create(primary.DB, 3, i); err != nil {
			return row, err
		}
	}
	lastAck := time.Now()
	primary.Crash()

	// The unavailability window closes at the first commit the
	// auto-promoted winner acknowledges; survivors reject writes with
	// ErrReadOnlyReplica until then.
	deadline := time.Now().Add(60 * time.Second)
	var winner *fleet.Node
	for winner == nil {
		for _, n := range survivors {
			if create(n.DB, 1, preCommits) == nil {
				winner = n
				break
			}
		}
		if winner == nil {
			if time.Now().After(deadline) {
				return row, fmt.Errorf("bench: E15 no node auto-promoted within 60s at quorum %d", level)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	row.UnavailSeconds = time.Since(lastAck).Seconds()
	row.RecoveriesPS = 1 / row.UnavailSeconds
	row.WinnerEpoch, _ = winner.DB.Epoch()

	// Acked survival census on the winner (its own post-kill commit is
	// excluded by the index property range).
	err = winner.DB.View(func(tx *neograph.Tx) error {
		ids, err := tx.NodesByLabel("E15")
		if err != nil {
			return err
		}
		for _, id := range ids {
			n, err := tx.GetNode(id)
			if err != nil {
				return err
			}
			if v, _ := n.Props["i"].AsInt(); v < int64(preCommits) {
				row.Survived++
			}
		}
		return nil
	})
	if err != nil {
		return row, err
	}
	row.Lost = preCommits - row.Survived
	if level >= 1 && row.Lost > 0 {
		return row, fmt.Errorf("bench: E15 lost %d acknowledged commits at quorum %d", row.Lost, level)
	}
	return row, nil
}
