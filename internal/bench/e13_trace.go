package bench

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"neograph"
	"neograph/internal/trace"
	"neograph/internal/workload"
)

// E13Row is one measured cell: the E2d synced-commit workload at one
// head-sampling rate.
type E13Row struct {
	// Sample is the head-sampling rate (0 = tracing off entirely).
	Sample float64
	Result Result
	// Overhead is throughput relative to the untraced baseline (1.0 =
	// no cost; 0.95 = 5% slower).
	Overhead float64
}

var e13 = Experiment{"E13", "tracing overhead on synced commits (off vs 1% vs 100% head sampling)", tabled(runE13,
	"1% sampling within noise of untraced (>0.95x); 100% modestly below")}

// runE13 measures the cost of commit-pipeline tracing on the E2d durable
// group-commit workload: every transaction is a single property update
// committed with the WAL fsync on, and the traced cells mint a root span
// per commit so the engine records the full validate/append/fsync span
// tree. The design goal is that 1% head sampling is free (within noise)
// and even 100% costs little — the sampling decision happens once at the
// root and an unsampled commit touches only nil checks.
func runE13(p Params) ([]E13Row, error) {
	var rows []E13Row
	for _, sample := range []float64{0, 0.01, 1.0} {
		var tracer *trace.Tracer
		if sample > 0 {
			tracer = trace.New(sample, 0)
		}
		db, dir, err := tempDB(neograph.Options{Tracer: tracer})
		if err != nil {
			return nil, err
		}
		g, err := workload.BuildSocial(db, workload.SocialConfig{People: pick(p, 2000, 500), AvgFriends: 3, Seed: p.Seed})
		if err != nil {
			db.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		op := func(c int, r *rand.Rand) error {
			sp := tracer.StartRoot("bench.commit")
			defer sp.Finish()
			tx := db.Begin()
			tx.SetTraceSpan(sp)
			return updateBalance(tx, g, r)
		}
		res := (&Runner{Clients: pick(p, 16, 8), Duration: pick(p, 2*time.Second, 500*time.Millisecond), Seed: p.Seed, Op: op}).
			Run(fmt.Sprintf("trace/%g", sample))
		row := E13Row{Sample: sample, Result: res, Overhead: 1}
		// Overhead relative to the sample=0 baseline (the first cell).
		if len(rows) > 0 && rows[0].Result.Throughput() > 0 {
			row.Overhead = res.Throughput() / rows[0].Result.Throughput()
		}
		rows = append(rows, row)
		db.Close()
		os.RemoveAll(dir)
	}
	return rows, nil
}
