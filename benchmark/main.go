// Command benchmark is neograph's benchmark: four workloads driven
// through the public API by two clients, end-to-end metrics measured with
// tracing off, and a per-layer ledger from a separate traced run. See
// README.md in this directory for every metric's definition.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
	"unsafe"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run of one workload: the driver's contract line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload  string
	traced    bool
	stream    string // hash of client 0's op stream
	problems  []string
	stages    []stageRow
	tracePath string // where a traced run wrote its spans
}

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problems = append(r.problems, fmt.Sprintf("metric %s is not finite", name))
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// problem records a failed verification; it counts as one failed op.
func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
	r.Failed++
}

type config struct {
	seed    int64
	seconds float64
	dir     string
	// shrink divides the graphs' person counts and the aging pass, and
	// rateScale multiplies the workloads' fixed rates; only the smoke test
	// changes them (a tiny graph, and a load the race detector's slowdown
	// can carry).
	shrink    int
	rateScale float64
}

// endToEnd lists the end-to-end metrics in the order they are printed.
var endToEnd = []string{
	"setup_s", "recovery_s", "heap_mb", "txn_per_s",
	"read_p50_us", "write_p50_us", "write_p90_us",
	"disk_bytes_per_write",
}

func main() {
	// The box has two cores; pin so that a larger one measures the same
	// run shape.
	runtime.GOMAXPROCS(2)
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed         = flag.Int64("seed", 42, "seed of the pre-generated op streams")
		seconds      = flag.Float64("seconds", 20, "measured seconds per run (open loop with its warm-up, then closed loop)")
		traceFlag    = flag.Int("trace", 2, "0: end-to-end run, tracing off; 1: traced per-layer run; 2: both")
		dir          = flag.String("dir", filepath.Join(".bench_build", "data"), "directory for the databases' files (real disk)")
		jsonOut      = flag.String("json", "", "write the full summary as JSON to this file")
		sets         = flag.Int("sets", 0, "repeat mode: run N full sets and compare each metric's range with its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(2, "unexpected argument %q", flag.Arg(0))
	}
	var run []*workloadDef
	if *workloadFlag == "all" {
		for i := range workloads {
			run = append(run, &workloads[i])
		}
	} else if w := findWorkload(*workloadFlag); w != nil {
		run = []*workloadDef{w}
	} else {
		fatal(2, "unknown workload %q (have %s)", *workloadFlag, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || *traceFlag < 0 || *traceFlag > 2 {
		fatal(2, "need -seconds >= 1 and -trace 0, 1 or 2")
	}
	cfg := config{seed: *seed, seconds: *seconds, dir: *dir, shrink: 1, rateScale: 1}
	ctx := context.Background()

	if *sets > 0 {
		os.Exit(runSets(ctx, run, cfg, *sets))
	}
	var reports []*report
	for _, w := range run {
		for _, traced := range []bool{false, true} {
			if (traced && *traceFlag == 0) || (!traced && *traceFlag == 1) {
				continue
			}
			rep, err := runOne(ctx, w, cfg, traced)
			if errors.Is(err, errInvalidRun) {
				// Show what was measured, but print no result line.
				rep.print(os.Stderr, false)
				fatal(3, "%s: %v", w.name, err)
			}
			if err != nil {
				fatal(1, "%s: %v", w.name, err)
			}
			rep.print(os.Stdout, true)
			reports = append(reports, rep)
		}
	}
	if *jsonOut != "" {
		if err := writeSummary(*jsonOut, cfg, reports); err != nil {
			fatal(1, "%v", err)
		}
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// runOne runs one workload once, untraced (end-to-end metrics) or traced
// (per-layer metrics), in a fresh directory that it removes afterwards.
func runOne(ctx context.Context, w *workloadDef, cfg config, traced bool) (*report, error) {
	root, err := filepath.Abs(filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	rep := &report{Metrics: make(map[string]metric), workload: w.name, traced: traced}
	if traced {
		err = runTraced(ctx, w, cfg, root, rep)
	} else {
		err = runMeasured(ctx, w, cfg, root, rep)
	}
	if err != nil && !errors.Is(err, errInvalidRun) {
		return nil, err
	}
	rep.Correct = err == nil && rep.Failed == 0 && len(rep.problems) == 0
	return rep, err
}

// errInvalidRun marks a run whose numbers must not be used: the load
// generator could not keep the open loop's schedule.
var errInvalidRun = errors.New("invalid run")

// prepared is what every run starts from: generated streams and a set-up
// system.
type prepared struct {
	s          *sut
	r          *runner
	gen        *loadGen
	setups     []float64 // seconds, one per set-up
	recoveries []float64 // seconds, recoveriesPerSetup per discarded set-up
	// harnessHeap is the live heap once the op streams exist and before
	// any database does: the load generator's, not the system's.
	harnessHeap uint64
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// prepare generates the streams (untimed) and sets the system up
// `repeats` times, each in its own directory. Every set-up but the last is
// then crashed and recovered recoveriesPerSetup times, for recovery_s, and
// discarded; the last one is the system the run measures.
//
// The measured system must not itself go through a recovery before the
// load: on reopen the store rebuilds its ID free lists from the record
// files alone, so IDs freed before the last checkpoint and re-used after
// it (by entities that so far live only in the WAL) are handed out a
// second time, and the next writes collide with live relationships.
func prepare(ctx context.Context, w *workloadDef, cfg config, root string, repeats int, traced bool) (*prepared, error) {
	p := &prepared{gen: &loadGen{}}
	var aging [clients][]op
	for c := 0; c < clients; c++ {
		p.gen.streams[c] = genStream(w, cfg.seed, c, streamLen, w.people/cfg.shrink, false)
		aging[c] = genStream(w, cfg.seed, c, (agingBefore+agingAfter)/clients, w.people/cfg.shrink, true)
	}
	p.harnessHeap = liveHeap()
	for i := 0; i < repeats; i++ {
		start := time.Now()
		s, r, err := setUp(ctx, w, filepath.Join(root, fmt.Sprintf("setup-%d", i)), cfg.shrink, newTracerIf(traced), newCrashFS(), aging)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		p.setups = append(p.setups, time.Since(start).Seconds())
		if i == repeats-1 {
			p.s, p.r, p.gen.r = s, r, r
			break
		}
		for j := 0; j < recoveriesPerSetup; j++ {
			d, err := s.recoverOnce(ctx, r)
			if err != nil {
				s.destroy()
				return nil, err
			}
			p.recoveries = append(p.recoveries, d.Seconds())
		}
		s.destroy()
	}
	return p, nil
}

// runMeasured is the end-to-end run: tracing off.
func runMeasured(ctx context.Context, w *workloadDef, cfg config, root string, rep *report) error {
	p, err := prepare(ctx, w, cfg, root, setupRepeats, false)
	if err != nil {
		return err
	}
	s, gen := p.s, p.gen
	defer s.destroy()
	rep.stream = streamHash(gen.streams[0])
	rep.set("setup_s", median(p.setups), "s")

	rep.set("recovery_s", median(p.recoveries), "s")

	// The open loop comes first: it offers a fixed number of ops, so every
	// run measures latency, heap and disk growth on the same database
	// state. The closed loop's op count varies with the box, and runs last.
	ph := splitSeconds(cfg.seconds)
	// Checkpoint on both sides of the open loop, so that the store growth
	// between the two belongs to the open loop's writes.
	if err := s.checkpointAll(); err != nil {
		return err
	}
	disk0, err := s.diskBytes()
	if err != nil {
		return err
	}
	runtime.GC()
	rate := w.rate * cfg.rateScale
	all, open := gen.openLoop(ctx, ph.warm+ph.open, rate)
	if err := s.checkpointAll(); err != nil {
		return err
	}
	disk1, err := s.diskBytes()
	if err != nil {
		return err
	}
	// What the system holds once its version GC has caught up: the
	// process's live heap less the generator's streams and the samples it
	// just took. Without the GC pass the reading depends on where in the
	// collector's one-second cycle the open loop happened to end.
	for _, n := range s.nodes() {
		n.db.RunGC()
	}
	harness := p.harnessHeap + uint64(cap(all))*uint64(unsafe.Sizeof(sample{}))
	rep.set("heap_mb", (float64(liveHeap())-float64(harness))/1e6, "MB")
	ackedWrites := open.writes - countFailedWrites(all)
	rep.set("disk_bytes_per_write", float64(disk1-disk0)/math.Max(1, float64(ackedWrites)), "B")

	samples := afterWarmUp(all, ph.warm)
	rep.set("read_p50_us", windowed(samples, 0.50, isRead, latencyUS), "us")
	rep.set("write_p50_us", windowed(samples, 0.50, isWrite, latencyUS), "us")
	rep.set("write_p90_us", windowed(samples, 0.90, isWrite, latencyUS), "us")

	rates, closed := gen.closedLoop(ctx, ph.closed)
	rep.set("txn_per_s", median(rates), "1/s")

	for _, c := range []counters{open, closed} {
		rep.Attempted += c.ops
		rep.Failed += c.failed
	}
	if gen.firstErr != nil {
		rep.problems = append(rep.problems, "first failed op: "+gen.firstErr.Error())
	}
	if err := checkSchedule(samples); err != nil {
		return err
	}
	return verify(ctx, p, rep, nil)
}

// afterWarmUp drops the samples scheduled in the first warm of the open
// loop: caches fill and lazy set-up finishes there.
func afterWarmUp(all []sample, warm time.Duration) []sample {
	i := sort.Search(len(all), func(i int) bool { return all[i].sched >= warm })
	return all[i:]
}

func countFailedWrites(samples []sample) (n int64) {
	for i := range samples {
		if samples[i].write && samples[i].failed {
			n++
		}
	}
	return n
}

// lateFrac is the share of open-loop sends the generator itself made late.
func lateFrac(samples []sample) float64 {
	late := 0
	for i := range samples {
		if samples[i].late > lateAfter {
			late++
		}
	}
	return float64(late) / math.Max(1, float64(len(samples)))
}

// checkSchedule invalidates a run whose generator did not keep the open
// loop's schedule.
func checkSchedule(samples []sample) error {
	if late := lateFrac(samples); late > maxLateFrac {
		return fmt.Errorf("%w: the generator sent %.2f%% of the open loop more than %v late (limit %.0f%%)",
			errInvalidRun, 100*late, lateAfter, 100*maxLateFrac)
	}
	return nil
}

// ---- output ----

// print writes the human-readable table and, when resultLine is set, the
// contract's JSON object as the last line.
func (r *report) print(f *os.File, resultLine bool) {
	mode, names := "end-to-end, tracing off", endToEnd
	if r.traced {
		mode, names = "per-layer, traced run", sortedKeys(r.Metrics)
	}
	fmt.Fprintf(f, "== %s (%s): ops=%d failed=%d correct=%v stream=%.12s\n", r.workload, mode, r.Attempted, r.Failed, r.Correct, r.stream)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-34s %16.4f %s\n", n, m.Value, m.Unit)
	}
	printStages(f, r.stages)
	if r.tracePath != "" {
		fmt.Fprintf(f, "spans written to %s\n", r.tracePath)
	}
	for _, p := range r.problems {
		fmt.Fprintf(f, "PROBLEM: %s\n", p)
	}
	if !resultLine {
		return
	}
	line, err := json.Marshal(r)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Fprintf(f, "%s\n", line)
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeSummary writes every report of the invocation. The benchmark
// defines metrics; it claims no gain, and says so last.
func writeSummary(path string, cfg config, reports []*report) error {
	type run struct {
		Workload string `json:"workload"`
		Traced   bool   `json:"traced"`
		*report
		Problems []string `json:"problems,omitempty"`
	}
	summary := struct {
		Seed        int64     `json:"seed"`
		Seconds     float64   `json:"seconds"`
		FlushPolicy string    `json:"flush_policy"`
		Runs        []run     `json:"runs"`
		Claim       *struct{} `json:"claim"`
	}{Seed: cfg.seed, Seconds: cfg.seconds,
		FlushPolicy: "durable: every commit fsynced before its ack, group commit at defaults (DisableSyncCommits=false, CommitMaxDelay=0)"}
	for _, r := range reports {
		summary.Runs = append(summary.Runs, run{Workload: r.workload, Traced: r.traced, report: r, Problems: r.problems})
	}
	out, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
