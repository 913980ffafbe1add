// Package bench is the experiment registry: Experiments lists every
// experiment of the paper (E1–E7, F1) and of the system around it (E8,
// E9, E11, E12, E14, E15 — each reports a ratio or an invariant the
// BENCHMARK.json workloads do not; E10, E13 and E16 asked what fleet_batch
// and its layer ledger now measure with verification, and are retired)
// with its ID, title and driver. An experiment's full and quick sizes
// live next to its code, once; cmd/neograph-bench, the root
// benchmarks and the shape tests all run it through Experiment.Run. The
// rest of this file is the shared harness: a multi-client transaction
// runner with throughput/latency/abort accounting, a latency summariser,
// fixture helpers, and table printing derived from the row structs that
// -json serialises.
package bench

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neograph"
)

// Params is everything a caller chooses about a run; sizes follow from
// Quick inside each experiment.
type Params struct {
	// Quick selects the small configuration (seconds, not minutes).
	Quick bool
	Seed  int64
}

// pick returns the size for this run's mode.
func pick[T any](p Params, full, quick T) T {
	if p.Quick {
		return quick
	}
	return full
}

// Experiment is one registry entry.
type Experiment struct {
	ID, Title string
	run       func(w io.Writer, p Params) (rows any, err error)
}

// Run prints the experiment's banner, table and expected shape to w and
// returns its structured rows (nil for a pure inventory).
func (e Experiment) Run(w io.Writer, p Params) (any, error) {
	fmt.Fprintf(w, "\n== %s: %s ==\n", e.ID, e.Title)
	return e.run(w, p)
}

// Experiments is the registry, in report order.
var Experiments = []Experiment{
	e1, e2, e3, e4, e5, e6, e7, e8, e9, e11, e12, e14, e15, f1,
}

// tabled adapts a typed driver to a registry entry: the rows it returns
// are printed as a table, followed by the expected-shape note.
func tabled[R any](run func(Params) (R, error), shape string) func(io.Writer, Params) (any, error) {
	return func(w io.Writer, p Params) (any, error) {
		rows, err := run(p)
		if err != nil {
			return nil, err
		}
		printRows(w, rows)
		fmt.Fprintln(w, "expected shape: "+shape)
		return rows, nil
	}
}

// Op is one client operation: it runs a whole transaction (including
// commit/abort) and reports the outcome through its error:
// nil = committed; ErrWriteConflict / ErrDeadlock = aborted by CC.
type Op func(client int, r *rand.Rand) error

// Result summarises one runner execution.
type Result struct {
	Name      string
	Clients   int
	Elapsed   time.Duration
	Commits   uint64
	Conflicts uint64
	Deadlocks uint64
	Errors    uint64
	P50, P95  time.Duration
}

// Throughput returns committed transactions per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Commits) / r.Elapsed.Seconds()
}

// AbortRate returns the fraction of attempts aborted by concurrency
// control.
func (r Result) AbortRate() float64 {
	total := r.Commits + r.Conflicts + r.Deadlocks
	if total == 0 {
		return 0
	}
	return float64(r.Conflicts+r.Deadlocks) / float64(total)
}

// Runner drives Clients goroutines executing Op for Duration.
type Runner struct {
	Clients  int
	Duration time.Duration
	Seed     int64
	Op       Op
}

// Run executes the workload and aggregates counters.
func (rn *Runner) Run(name string) Result {
	var commits, conflicts, deadlocks, errs atomic.Uint64
	var latMu sync.Mutex
	var lats []time.Duration

	elapsed := during(rn.Duration, rn.Clients, func(c int, stop <-chan struct{}) {
		r := rand.New(rand.NewSource(rn.Seed + int64(c)*7919))
		var local []time.Duration
		for i := 0; !stopped(stop); i++ {
			t0 := time.Now()
			err := rn.Op(c, r)
			if i%8 == 0 { // sample 1/8 of latencies
				local = append(local, time.Since(t0))
			}
			switch {
			case err == nil:
				commits.Add(1)
			case errors.Is(err, neograph.ErrWriteConflict):
				conflicts.Add(1)
			case errors.Is(err, neograph.ErrDeadlock):
				deadlocks.Add(1)
			default:
				errs.Add(1)
			}
		}
		latMu.Lock()
		lats = append(lats, local...)
		latMu.Unlock()
	})

	lat := summarize(lats)
	return Result{
		Name:    name,
		Clients: rn.Clients,
		Elapsed: elapsed,
		Commits: commits.Load(), Conflicts: conflicts.Load(),
		Deadlocks: deadlocks.Load(), Errors: errs.Load(),
		P50: lat.P50, P95: lat.P95,
	}
}

// during runs body on n goroutines for d, then closes their stop channel,
// waits for them to return, and reports the elapsed wall time.
func during(d time.Duration, n int, body func(worker int, stop <-chan struct{})) time.Duration {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body(i, stop)
		}(i)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	return time.Since(start)
}

// stopped polls a stop channel.
func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// latency is the distribution summary every latency column reports.
type latency struct {
	P50, P95, Max, Mean time.Duration
}

// summarize sorts lats in place and summarises them (zero when empty).
func summarize(lats []time.Duration) latency {
	if len(lats) == 0 {
		return latency{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	at := func(p float64) time.Duration { return lats[int(p*float64(len(lats)-1))] }
	return latency{P50: at(0.50), P95: at(0.95), Max: lats[len(lats)-1], Mean: sum / time.Duration(len(lats))}
}

// tempDB opens a database on a fresh temporary directory (opts.Dir is
// overwritten) and returns it with that directory.
func tempDB(opts neograph.Options) (*neograph.DB, string, error) {
	dir, err := os.MkdirTemp("", "neograph-bench-*")
	if err != nil {
		return nil, "", err
	}
	opts.Dir = dir
	db, err := neograph.Open(opts)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return db, dir, nil
}

// createNodes commits n nodes carrying labels and props in chunked
// transactions (one commit's write buffer stays modest) and returns
// their IDs.
func createNodes(db *neograph.DB, n int, labels []string, props neograph.Props) ([]neograph.NodeID, error) {
	const chunk = 1024
	nodes := make([]neograph.NodeID, 0, n)
	for len(nodes) < n {
		err := db.Update(0, func(tx *neograph.Tx) error {
			for i := 0; i < chunk && len(nodes) < n; i++ {
				id, err := tx.CreateNode(labels, props)
				if err != nil {
					return err
				}
				nodes = append(nodes, id)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return nodes, nil
}

// printRows renders rows — a struct, or a slice or array of structs — as
// an aligned text table. A slice becomes one line per element with a
// column per field; a single struct becomes one line per field. Headers
// are the names -json uses (the field's json tag, else its Go name), and
// a Result field expands into its throughput, abort-rate and latency
// columns.
func printRows(w io.Writer, rows any) {
	v := reflect.ValueOf(rows)
	var headers []string
	var lines [][]string
	if v.Kind() == reflect.Struct {
		headers = []string{"metric", "value"}
		h, c := cells(v)
		for i := range h {
			lines = append(lines, []string{h[i], c[i]})
		}
	} else {
		for i := 0; i < v.Len(); i++ {
			h, c := cells(v.Index(i))
			headers = h
			lines = append(lines, c)
		}
	}
	widths := make([]int, len(headers))
	for _, l := range append([][]string{headers}, lines...) {
		for i, c := range l {
			widths[i] = max(widths[i], len(c))
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "| %-*s ", widths[i], c)
		}
		fmt.Fprintln(w, "|")
	}
	line(headers)
	seps := make([]string, len(headers))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, l := range lines {
		line(l)
	}
}

// cells flattens one row struct into parallel header and cell lists.
func cells(row reflect.Value) (headers, out []string) {
	for i := 0; i < row.NumField(); i++ {
		f := row.Type().Field(i)
		if res, ok := row.Field(i).Interface().(Result); ok {
			headers = append(headers, "txn/s", "abort rate", "p50", "p95")
			out = append(out, cell(res.Throughput()), cell(res.AbortRate()), cell(res.P50), cell(res.P95))
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" || name == "-" {
			name = f.Name
		}
		headers = append(headers, name)
		out = append(out, cell(row.Field(i).Interface()))
	}
	return headers, out
}

func cell(v any) string {
	switch v := v.(type) {
	case float64:
		if v != 0 && v > -0.1 && v < 0.1 {
			return fmt.Sprintf("%.2g", v) // selectivities, sampling rates
		}
		return fmt.Sprintf("%.2f", v)
	case time.Duration:
		return v.Round(time.Microsecond).String()
	default:
		return fmt.Sprint(v)
	}
}
