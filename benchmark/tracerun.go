package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"neograph/internal/trace"
)

// traceCapacity bounds the traces the shared tracer keeps: enough for
// every op of the traced segment at the highest fixed rate.
const traceCapacity = 1 << 16

// newTracerIf returns the tracer a traced run installs — through
// neograph.Options.Tracer and server.Config.Tracer — in every database and
// server. It records nothing until an op arrives with a span: the load
// generator opens one root span per op (sampling 1.0) only in the traced
// segment, so the same system serves the untraced segments untraced.
func newTracerIf(traced bool) *trace.Tracer {
	if !traced {
		return nil
	}
	return trace.New(1.0, traceCapacity)
}

// runTraced is the per-layer run. Its --seconds are split into an
// untraced open loop (public counters are diffed across it, and it is the
// base the tracing overhead is measured against), the traced open loop at
// the same rate, and a short closed loop each way for the overhead.
func runTraced(ctx context.Context, w *workloadDef, cfg config, root string, rep *report) error {
	p, err := prepare(ctx, w, cfg, root, 1, true)
	if err != nil {
		return err
	}
	s, gen := p.s, p.gen
	defer s.destroy()
	rep.stream = streamHash(gen.streams[0])
	l := ledger{}
	if err := probeLayers(ctx, p, l); err != nil {
		return err
	}
	total := splitSeconds(cfg.seconds)
	rate := w.rate * cfg.rateScale
	untracedFor, tracedFor, closedFor := total.warm+total.open/2, total.open/2, total.closed/2

	// Untraced segment.
	if err := s.checkpointAll(); err != nil {
		return err
	}
	before := takeSnapshot(s)
	sm := startSampler(p)
	all, open := gen.openLoop(ctx, untracedFor, rate)
	sm.finish(l)
	diffInto(l, before, takeSnapshot(s))
	samples := afterWarmUp(all, total.warm)
	driverMetrics(l, samples, rate)
	l["core.conflict_retry_frac"] = float64(open.retries) / math.Max(1, float64(open.writes+open.retries))
	loadMetrics(w, l, samples)
	if w.kind == kindFleet {
		l["partition.cross_frac"] = crossFrac(all)
	}
	if err := storeMetrics(s, l); err != nil {
		return err
	}
	untracedRates, closedU := gen.closedLoop(ctx, closedFor)

	// Traced segment: same system, same rate, every op under a root span.
	gen.tracer = s.tracer
	_, openT := gen.openLoop(ctx, tracedFor, rate)
	tracedRates, closedT := gen.closedLoop(ctx, closedFor)
	gen.tracer = nil
	l["trace.overhead_frac"] = 1 - median(tracedRates)/math.Max(1, median(untracedRates))

	records := s.tracer.Traces()
	rep.stages = analyzeTraces(records, l)
	path := filepath.Join(cfg.dir, "trace-"+w.name+".jsonl")
	if err := writeTraces(path, records); err != nil {
		return err
	}
	rep.tracePath = path

	for _, n := range s.nodes() {
		if n.srv != nil {
			l["server.inflight_peak"] = math.Max(l["server.inflight_peak"], float64(n.srv.Admission().InflightPeak))
		}
	}
	for _, c := range []counters{open, closedU, openT, closedT} {
		rep.Attempted += c.ops
		rep.Failed += c.failed
	}
	if gen.firstErr != nil {
		rep.problems = append(rep.problems, "first failed op: "+gen.firstErr.Error())
	}
	if err := checkSchedule(samples); err != nil {
		l.into(rep)
		return err
	}
	// The same verification as the end-to-end run, with the store scan
	// between the crash and the reopen.
	if err := verify(ctx, p, rep, func() error { return recoveryScan(s, l) }); err != nil {
		return err
	}
	l.into(rep)
	return nil
}

// loadMetrics derives the per-layer numbers that come out of the load
// itself rather than out of a probe or a counter.
func loadMetrics(w *workloadDef, l ledger, samples []sample) {
	if w.kind != kindEmbed {
		// What is left of a remote read once the engine's work and the
		// JSON codec on both ends are taken out: system calls, TCP, the
		// scheduler and the server's dispatch.
		engine := (l["core.begin_ns"] + l["core.getnode_ns"] + avgFriends*l["core.neighbors_ns_per_edge"]) / 1000
		if w.kind == kindTraverse {
			engine = l["query.embedded_khop_us"]
		}
		codec := (l["wire.req_encode_ns"] + l["wire.req_decode_ns"] + l["wire.resp_encode_ns"] + l["wire.resp_decode_ns"]) / 1000
		l["server.residual_us"] = math.Max(0, windowed(samples, 0.5, isRead, serviceUS)-engine-codec)
	}
	if w.kind == kindTraverse {
		rows, busy := 0, 0.0
		for i := range samples {
			if s := &samples[i]; !s.write && !s.failed {
				rows += s.rows
				busy += s.took.Seconds()
			}
		}
		l["query.rows_per_s"] = float64(rows) / math.Max(1e-9, busy)
		l["query.first_chunk_us"] = windowed(samples, 0.5, isRead, func(s *sample) float64 { return usOf(s.firstRow) })
	}
	if w.kind == kindFleet {
		l["partition.twopc_commit_us"] = windowed(samples, 0.5, func(s *sample) bool { return s.write && s.cross }, serviceUS)
		l["partition.single_commit_us"] = windowed(samples, 0.5, func(s *sample) bool { return s.write && !s.cross }, serviceUS)
	}
}

// crossFrac is the share of the fleet's writes that spanned both
// partitions, counted per client over whole tens of its writes from the
// start of its stream. The stream makes every tenth write of a client a
// cross-partition one, so the share is exactly 0.10 unless the executor
// ran a different mix than the stream holds.
func crossFrac(fromStreamStart []sample) float64 {
	var writes, cross [clients]int
	for i := range fromStreamStart {
		if s := &fromStreamStart[i]; s.write {
			writes[s.client]++
			if s.cross {
				cross[s.client]++
			}
		}
	}
	counted, crossed := 0, 0
	for c := range writes {
		counted += writes[c] - writes[c]%10
		crossed += cross[c]
	}
	if counted == 0 {
		return 0
	}
	return float64(crossed) / float64(counted)
}

// ---- trace analysis ----

// stageRow is one line of the per-stage table of one op class.
type stageRow struct {
	class    string  // "read" or "write"
	span     string  // span name
	perTrace float64 // mean number of such spans in a trace of the class
	selfUS   float64 // median, over the class's traces, of the self time summed per trace
	share    float64 // the name's self time over the class's root time, all traces together
}

// spanGroup names the metric a span's self time is reported under.
func spanGroup(name string) string {
	switch {
	case strings.HasPrefix(name, "bench."):
		return "bench"
	case strings.HasPrefix(name, "client."):
		return "client"
	case strings.HasPrefix(name, "server."):
		return "server"
	}
	return strings.ReplaceAll(name, ".", "_")
}

type interval struct{ from, to int64 }

// covered returns how much of [from,to) the intervals cover.
func covered(from, to int64, ivs []interval) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var sum int64
	edge := from
	for _, iv := range ivs {
		a, b := max(iv.from, edge), min(iv.to, to)
		if b > a {
			sum += b - a
			edge = b
		}
	}
	return sum
}

// analyzeTraces computes every span's self time — its duration minus the
// part of it its child spans cover, clipped to the root's interval, since
// what runs after the op returned (a replica's apply) is not on its
// blocking path — and folds it per op class and span name.
func analyzeTraces(records []trace.TraceRecord, l ledger) []stageRow {
	type classAcc struct {
		roots  []float64
		self   map[string][]float64 // span name -> per-trace self sum (only traces that have it)
		count  map[string]int
		total  map[string]float64
		traces int
	}
	acc := map[string]*classAcc{}
	groupSelf := map[string][]float64{}
	for _, rec := range records {
		var root *trace.SpanRecord
		children := map[string][]*trace.SpanRecord{}
		for i := range rec.Spans {
			sp := &rec.Spans[i]
			if sp.Parent == "" && strings.HasPrefix(sp.Name, "bench.") {
				root = sp
			} else {
				children[sp.Parent] = append(children[sp.Parent], sp)
			}
		}
		if root == nil {
			continue
		}
		class := strings.TrimPrefix(root.Name, "bench.")
		a := acc[class]
		if a == nil {
			a = &classAcc{self: map[string][]float64{}, count: map[string]int{}, total: map[string]float64{}}
			acc[class] = a
		}
		a.traces++
		a.roots = append(a.roots, float64(root.DurUS))
		lo, hi := root.StartUS, root.StartUS+root.DurUS
		perName := map[string]float64{}
		perGroup := map[string]float64{}
		for i := range rec.Spans {
			sp := &rec.Spans[i]
			from, to := max(sp.StartUS, lo), min(sp.StartUS+sp.DurUS, hi)
			if to < from {
				to = from
			}
			var kids []interval
			for _, k := range children[sp.ID] {
				kids = append(kids, interval{k.StartUS, k.StartUS + k.DurUS})
			}
			self := float64(to - from - covered(from, to, kids))
			perName[sp.Name] += self
			perGroup[spanGroup(sp.Name)] += self
			a.count[sp.Name]++
		}
		for name, v := range perName {
			a.self[name] = append(a.self[name], v)
			a.total[name] += v
		}
		for g, v := range perGroup {
			groupSelf[g] = append(groupSelf[g], v)
		}
	}
	var rows []stageRow
	for class, a := range acc {
		rootMedian := median(a.roots)
		rootTotal := 0.0
		for _, r := range a.roots {
			rootTotal += r
		}
		l["trace.root_"+class+"_p50_us"] = rootMedian
		sum := 0.0
		for name, selfs := range a.self {
			// Traces without the span count as zero self time.
			padded := append(make([]float64, a.traces-len(selfs)), selfs...)
			m := median(padded)
			sum += m
			rows = append(rows, stageRow{class: class, span: name, perTrace: float64(a.count[name]) / float64(a.traces),
				selfUS: m, share: a.total[name] / math.Max(1, rootTotal)})
		}
		l["trace.self_sum_frac_"+class] = sum / math.Max(1, rootMedian)
	}
	for g, v := range groupSelf {
		l["trace."+g+"_self_us"] = median(v)
	}
	if q := groupSelf["repl_quorum_wait"]; len(q) > 0 {
		l["repl.quorum_wait_us"] = median(q)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].class != rows[j].class {
			return rows[i].class < rows[j].class
		}
		return rows[i].share > rows[j].share
	})
	return rows
}

// printStages prints the per-stage table: where an op's time goes.
func printStages(f *os.File, rows []stageRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(f, "%-6s %-24s %10s %14s %10s\n", "class", "span", "per trace", "self p50 (us)", "share")
	for _, r := range rows {
		fmt.Fprintf(f, "%-6s %-24s %10.2f %14.1f %9.1f%%\n", r.class, r.span, r.perTrace, r.selfUS, 100*r.share)
	}
}

// writeTraces writes one JSON object per trace, the format /debug/traces
// serves: {"trace_id", "start", "spans":[{"id","parent","name","start_us","dur_us"}]}.
func writeTraces(path string, records []trace.TraceRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
