package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"neograph"
	"neograph/client"
	"neograph/internal/fleet"
)

// E16Row is one (partitions, cross%) cell of the scale-up matrix.
type E16Row struct {
	Partitions int `json:"partitions"`
	CrossPct   int `json:"cross_pct"`
	Clients    int `json:"clients"`
	// Commits is acknowledged transactions across the whole fleet.
	Commits       int     `json:"commits"`
	CommitsPerSec float64 `json:"commits_per_sec"`
	// CrossCommits counts the committed transactions that actually
	// spanned partitions (0 at cross_pct 0, ~cross_pct% otherwise).
	CrossCommits int `json:"cross_commits"`
	// Conflicts are write-write conflict rejections (retried workload
	// keeps going; they are not commits).
	Conflicts int `json:"conflicts"`
	// ScaleupVs1 is CommitsPerSec over the 1-partition run at the same
	// cross percentage (0 on the baseline row itself).
	ScaleupVs1 float64 `json:"scaleup_vs_1,omitempty"`
}

var e16 = Experiment{"E16", "partitioned write scale-up (aggregate commit/s vs partition count)", tabled(runE16,
	"near-linear scale-up at 0% cross (independent WALs and fsync streams); "+
		"the 10% cross column gives up part of the gain to two-phase commit")}

// runE16 measures aggregate commit throughput as the vertex space is
// hash-partitioned over independent primaries (E16): each partition has
// its own WAL, group-commit pipeline and fsync stream, so disjoint
// write load should scale near-linearly, while cross-partition
// transactions pay two-phase commit. The 1-partition run is the
// unpartitioned baseline every speedup is measured against; cross
// traffic is the price of partitioning — 0% shows the ceiling, 10% the
// realistic mix.
func runE16(p Params) ([]E16Row, error) {
	var rows []E16Row
	for _, cross := range []int{0, 10} {
		var base float64 // 1-partition commits/s at this cross percentage
		for _, parts := range pick(p, []int{1, 2, 4}, []int{1, 2}) {
			row, err := runE16Config(p, parts, cross)
			if err != nil {
				return rows, err
			}
			if parts == 1 {
				base = row.CommitsPerSec
			} else if base > 0 {
				row.ScaleupVs1 = row.CommitsPerSec / base
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func runE16Config(p Params, parts, crossPct int) (E16Row, error) {
	// Concurrent writers per partition, so offered load scales with the
	// fleet, over a pre-created node population per partition that the
	// workload updates and connects.
	const clientsPerPartition = 4
	anchorsPerPartition := pick(p, 256, 128)
	row := E16Row{Partitions: parts, CrossPct: crossPct, Clients: parts * clientsPerPartition}

	f, err := fleet.Start(fleet.Spec{Partitions: parts})
	if err != nil {
		return row, err
	}
	defer f.Close()
	anchors := make([][]neograph.NodeID, parts)
	for part, g := range f.Groups {
		if anchors[part], err = createNodes(g[0].DB, anchorsPerPartition, []string{"E16"}, nil); err != nil {
			return row, err
		}
	}
	ctx := context.Background()
	router, err := client.OpenRouter(ctx, client.RouterConfig{Partitions: f.PartitionMap()})
	if err != nil {
		return row, err
	}
	defer router.Close()

	var commits, crossCommits, conflicts atomic.Int64
	elapsed := during(pick(p, 2*time.Second, 500*time.Millisecond), row.Clients, func(worker int, stop <-chan struct{}) {
		rng := rand.New(rand.NewSource(p.Seed + int64(worker)))
		home := worker % parts
		for seq := 0; !stopped(stop); seq++ {
			var err error
			a := anchors[home][rng.Intn(len(anchors[home]))]
			isCross := parts > 1 && rng.Intn(100) < crossPct
			if isCross {
				// Cross-partition: an edge from a home anchor to a
				// remote one, plus a property write on each side —
				// a 2PC transaction with work on both participants.
				remote := rng.Intn(parts)
				for remote == home {
					remote = rng.Intn(parts)
				}
				b := anchors[remote][rng.Intn(len(anchors[remote]))]
				var batch client.Batch
				batch.SetNodeProp(a, "w", neograph.Int(int64(seq)))
				batch.SetNodeProp(b, "w", neograph.Int(int64(seq)))
				batch.CreateRel("E16X", a, b, nil)
				_, err = router.RunBatch(ctx, "", &batch)
			} else {
				// Single-partition: ordinary fast-path commit on the
				// home partition.
				err = router.Write(ctx, "", a, func(c *client.Client) error {
					return c.SetNodeProp(ctx, a, "w", neograph.Int(int64(seq)))
				})
			}
			switch {
			case err == nil:
				commits.Add(1)
				if isCross {
					crossCommits.Add(1)
				}
			case isConflict(err):
				conflicts.Add(1)
			case stopped(stop):
				return // teardown races are not workload errors
			default:
				panic(fmt.Sprintf("bench: E16 worker: %v", err))
			}
		}
	})

	row.Commits = int(commits.Load())
	row.CrossCommits = int(crossCommits.Load())
	row.Conflicts = int(conflicts.Load())
	row.CommitsPerSec = float64(row.Commits) / elapsed.Seconds()
	return row, nil
}

// isConflict classifies write-write conflict rejections, which the
// open-loop workload counts rather than fails on.
func isConflict(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "conflict") || strings.Contains(err.Error(), "prepared"))
}
