package bench

import (
	"fmt"
	"math/rand"
	"os"
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

// updateBalance is the write transaction E2 and E2d share: one
// property update on a random person, committed.
func updateBalance(tx *neograph.Tx, g *workload.SocialGraph, r *rand.Rand) error {
	if err := tx.SetNodeProp(g.People[r.Intn(len(g.People))], "balance", neograph.Int(r.Int63n(1<<20))); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// E2DurableRow is one measured cell of the fsync comparison.
type E2DurableRow struct {
	Mode    string // "group" (batched fsync) or "per-commit" (baseline)
	Clients int
	Result  Result
	// Flushes and SyncedCommits are the engine's group-commit counters;
	// MeanBatch = SyncedCommits/Flushes is the realised group size.
	Flushes       uint64
	SyncedCommits uint64
	MeanBatch     float64
	// Speedup is group-mode throughput over the per-commit cell with the
	// same client count (0 on the baseline rows).
	Speedup float64 `json:"-"`
}

var e2d = Experiment{"E2d", "synced commit throughput, group commit vs per-commit fsync", tabled(runE2Durable,
	"parity at 1 client; group >= 2x per-commit by 8+ clients")}

// runE2Durable measures committed-transactions-per-second with the WAL
// fsync enabled, group commit versus the per-commit-fsync baseline. With
// one client both modes pay one fsync per commit; as writers are added the
// baseline stays serialised on the disk flush while group commit amortises
// one fsync over the whole batch. Throughput here is disk-flush-bound, so
// the filesystem under the temp dir is part of what is measured.
func runE2Durable(p Params) ([]E2DurableRow, error) {
	var rows []E2DurableRow
	for _, clients := range pick(p, []int{1, 2, 8, 16, 32}, []int{1, 8}) {
		var base float64
		for _, mode := range []struct {
			name    string
			noGroup bool
		}{
			{"per-commit", true},
			{"group", false},
		} {
			db, dir, err := tempDB(neograph.Options{DisableGroupCommit: mode.noGroup})
			if err != nil {
				return nil, err
			}
			g, err := workload.BuildSocial(db, workload.SocialConfig{People: pick(p, 2000, 500), AvgFriends: 3, Seed: p.Seed})
			if err != nil {
				db.Close()
				os.RemoveAll(dir)
				return nil, err
			}
			op := func(c int, r *rand.Rand) error { return updateBalance(db.Begin(), g, r) }
			st0 := db.Stats() // exclude BuildSocial's setup commits
			res := (&Runner{Clients: clients, Duration: pick(p, 2*time.Second, 500*time.Millisecond), Seed: p.Seed, Op: op}).
				Run(fmt.Sprintf("durable/%d/%s", clients, mode.name))
			st := db.Stats()
			row := E2DurableRow{
				Mode: mode.name, Clients: clients, Result: res,
				Flushes:       st.WALFlushes - st0.WALFlushes,
				SyncedCommits: st.WALSyncedCommits - st0.WALSyncedCommits,
			}
			if row.Flushes > 0 {
				row.MeanBatch = float64(row.SyncedCommits) / float64(row.Flushes)
			}
			if mode.noGroup {
				base = res.Throughput()
			} else if base > 0 {
				row.Speedup = res.Throughput() / base
			}
			rows = append(rows, row)
			db.Close()
			os.RemoveAll(dir)
		}
	}
	return rows, nil
}
