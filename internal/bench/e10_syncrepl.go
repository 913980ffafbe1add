package bench

import (
	"time"

	"neograph"
	"neograph/internal/fleet"
)

// E10Row is one quorum level's measurements.
type E10Row struct {
	SyncReplicas int `json:"sync_replicas"`
	Replicas     int `json:"replicas"`
	Commits      int `json:"commits"`
	// Commit latency distribution: what one synchronous writer pays per
	// acknowledged commit at this quorum level.
	P50  time.Duration `json:"p50"`
	P95  time.Duration `json:"p95"`
	Max  time.Duration `json:"max"`
	Mean time.Duration `json:"mean"`
	// CommitsPS is the sequential acknowledged-commit rate (1/mean).
	CommitsPS float64 `json:"commits_per_sec"`
	// Degraded counts commits acknowledged without their quorum — must
	// stay 0 with healthy replicas or the latency numbers are fiction.
	Degraded uint64 `json:"degraded"`
}

var e10 = Experiment{"E10", "commit latency vs synchronous-replication quorum (SyncReplicas)", tabled(runE10,
	"quorum >= 1 adds the ship + replica-fsync + ack round trip per commit over the async baseline; "+
		"degraded must be 0 (the quorum actually held)")}

// runE10 measures commit latency versus the synchronous-replication
// quorum (E10: the price of "an acknowledged commit survives primary
// loss"). Every quorum level (0 is the async baseline) runs the same
// sequential write workload against a fresh primary with the same number
// of attached replicas; only SyncReplicas varies, adding the replica
// fsync + ack round trip to each commit at quorum >= 1.
func runE10(p Params) ([]E10Row, error) {
	const replicas = 2 // held constant so only the ack gating varies
	var rows []E10Row
	for level := 0; level <= replicas; level++ {
		row, err := runE10Config(p, level, replicas)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runE10Config measures one quorum level against a fresh replication
// group.
func runE10Config(p Params, level, replicas int) (E10Row, error) {
	row := E10Row{SyncReplicas: level, Replicas: replicas, Commits: pick(p, 300, 60)}
	f, err := fleet.Start(fleet.Spec{Replicas: replicas, DB: neograph.Options{
		SyncReplicas: level,
		// Generous degrade window: a degrade means the row is measuring
		// the timeout, not replication — it is reported so the reader can
		// reject the row.
		SyncReplicaTimeout: 10 * time.Second,
	}})
	if err != nil {
		return row, err
	}
	defer f.Close()
	primary := f.Groups[0][0].DB
	ids, err := createNodes(primary, 1, []string{"E10"}, neograph.Props{"v": neograph.Int(0)})
	if err != nil {
		return row, err
	}

	lats := make([]time.Duration, 0, row.Commits)
	t0 := time.Now()
	for i := 0; i < row.Commits; i++ {
		c0 := time.Now()
		err := primary.Update(3, func(tx *neograph.Tx) error {
			return tx.SetNodeProp(ids[0], "v", neograph.Int(int64(i)))
		})
		if err != nil {
			return row, err
		}
		lats = append(lats, time.Since(c0))
	}
	elapsed := time.Since(t0)

	lat := summarize(lats)
	row.P50, row.P95, row.Max, row.Mean = lat.P50, lat.P95, lat.Max, lat.Mean
	row.CommitsPS = float64(row.Commits) / elapsed.Seconds()
	row.Degraded = primary.ReplStatus().DegradedCommits
	return row, nil
}
