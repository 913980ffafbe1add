// Package metrics is a dependency-free metrics registry: atomic
// counters, gauges and histograms with a Prometheus-text-format
// exposition endpoint. It is the production surface's observability
// layer — the engine, WAL batcher, page cache, replication endpoints,
// server and client pool all register here, and one scrape of /metrics
// shows commit rates, fsync latency, cache hit ratios, replica lag and
// admission-control pressure in a form any Prometheus-compatible
// collector ingests directly.
//
// Design constraints, in order:
//
//   - Hot-path writes are single atomic operations (Counter.Inc,
//     Gauge.Add, Histogram.Observe). No locks, no allocation.
//   - Scrapes take registry locks but never block writers; a scrape
//     concurrent with writes sees a slightly torn but always
//     well-formed snapshot (cumulative histogram buckets are computed
//     from one pass over the counts, so they are monotone by
//     construction).
//   - Sampled metrics (CounterFunc/GaugeFunc) pull from component
//     stats snapshots at scrape time, so components keep their own
//     counters and pay nothing new.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram of float64 observations.
// Observations and scrapes are lock-free; the exposition renders
// Prometheus-style cumulative buckets.
type Histogram struct {
	bounds []float64 // sorted upper bounds (exclusive of +Inf)
	counts []atomic.Uint64
	// sumBits carries the observation sum as float64 bits, updated with
	// a CAS loop (atomic float add).
	sumBits atomic.Uint64
	// ex holds the most recent traced observation (see ObserveExemplar);
	// a single slot is enough to hand operators a concrete trace ID to
	// look up for any latency population they see on the scrape.
	ex atomic.Pointer[exemplar]
}

// exemplar pairs one observation with the trace that produced it.
type exemplar struct {
	v       float64
	traceID string
}

// NewHistogram creates a standalone histogram with the given bucket
// upper bounds (sorted and de-duplicated; NaN/±Inf bounds are dropped —
// the +Inf bucket is implicit). Standalone histograms are embedded in
// components (e.g. the WAL batcher's fsync latency) and attached to a
// registry later with Registry.AttachHistogram.
func NewHistogram(bounds []float64) *Histogram {
	clean := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			clean = append(clean, b)
		}
	}
	sort.Float64s(clean)
	uniq := clean[:0]
	for i, b := range clean {
		if i == 0 || b != clean[i-1] {
			uniq = append(uniq, b)
		}
	}
	return &Histogram{
		bounds: uniq,
		counts: make([]atomic.Uint64, len(uniq)+1),
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// ObserveExemplar records one observation and, when traceID is non-empty,
// remembers it as the histogram's exemplar. The exposition appends it to
// the covering bucket line in OpenMetrics exemplar syntax
// (`... # {trace_id="..."} <v>`), linking the latency series to a
// concrete trace retrievable from /debug/traces.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.Observe(v)
	if traceID != "" {
		h.ex.Store(&exemplar{v: v, traceID: traceID})
	}
}

// Exemplar returns the most recent traced observation, if any.
func (h *Histogram) Exemplar() (v float64, traceID string, ok bool) {
	e := h.ex.Load()
	if e == nil {
		return 0, "", false
	}
	return e.v, e.traceID, true
}

// Snapshot returns per-bucket (non-cumulative) counts — one entry per
// bound plus the +Inf overflow bucket — and the observation sum.
func (h *Histogram) Snapshot() (counts []uint64, sum float64) {
	counts = make([]uint64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, math.Float64frombits(h.sumBits.Load())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LatencyBuckets spans 100µs to ~26s in powers of two — the default for
// request/fsync latency histograms measured in seconds.
func LatencyBuckets() []float64 { return ExpBuckets(100e-6, 2, 18) }

// SizeBuckets spans 1 to ~32k in powers of four — for op-count-per-batch
// style distributions.
func SizeBuckets() []float64 { return ExpBuckets(1, 4, 8) }

// metric kinds (Prometheus TYPE strings).
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labelled metric within a family.
type series struct {
	labels string // pre-rendered {k="v",...} or ""
	// exactly one of the following is set:
	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
	counterFunc func() float64
	gaugeFunc   func() float64
	// histogramFunc resolves the histogram at scrape time; nil from it
	// means the owner has none right now and the series is skipped.
	histogramFunc func() *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name, help, typ string
	series          []*series
	byLabels        map[string]*series
}

// Registry holds named metric families and renders them in Prometheus
// text exposition format. All methods are safe for concurrent use.
// Registration methods panic on misuse (invalid name, re-registration
// with a different type or help) — these are programming errors, caught
// at startup, exactly as the Prometheus client library treats them.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// renderLabels renders a sorted, escaped {k="v",...} block ("" when
// empty). extra is appended unsorted (the histogram le label).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the text exposition format:
// backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline only (quotes
// are legal in HELP).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// register returns the series for (name, labels), creating family and
// series as needed. mk builds a new series when absent; an existing
// series of the same family type is returned as-is (idempotent).
func (r *Registry) register(name, help, typ string, labels []Label, mk func() *series) *series {
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Name) || strings.HasPrefix(l.Name, "__") {
			panic(fmt.Sprintf("metrics: invalid label name %q on %q", l.Name, name))
		}
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("metrics: %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	if s := f.byLabels[key]; s != nil {
		return s
	}
	s := mk()
	s.labels = key
	f.series = append(f.series, s)
	f.byLabels[key] = s
	return s
}

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.register(name, help, typeCounter, labels, func() *series {
		return &series{counter: &Counter{}}
	})
	if s.counter == nil {
		panic(fmt.Sprintf("metrics: %q%s is not a plain counter", name, s.labels))
	}
	return s.counter
}

// CounterFunc registers a counter sampled from fn at scrape time. fn
// must be monotonically non-decreasing (it typically reads a component's
// own atomic counter).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, typeCounter, labels, func() *series {
		return &series{counterFunc: fn}
	})
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.register(name, help, typeGauge, labels, func() *series {
		return &series{gauge: &Gauge{}}
	})
	if s.gauge == nil {
		panic(fmt.Sprintf("metrics: %q%s is not a plain gauge", name, s.labels))
	}
	return s.gauge
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, typeGauge, labels, func() *series {
		return &series{gaugeFunc: fn}
	})
}

// Histogram registers (or returns the existing) histogram with the given
// bucket upper bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	s := r.register(name, help, typeHistogram, labels, func() *series {
		return &series{histogram: NewHistogram(bounds)}
	})
	if s.histogram == nil {
		panic(fmt.Sprintf("metrics: %q%s is not a histogram", name, s.labels))
	}
	return s.histogram
}

// AttachHistogram registers an existing standalone histogram under name —
// the path for component-owned histograms (e.g. WAL fsync latency) that
// record regardless of whether a registry scrapes them.
func (r *Registry) AttachHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(name, help, typeHistogram, labels, func() *series {
		return &series{histogram: h}
	})
}

// HistogramFunc registers a histogram whose owner can be replaced while
// the registry lives — a database reopens its engine on a re-seed — and
// is therefore looked up through fn at every scrape.
func (r *Registry) HistogramFunc(name, help string, fn func() *Histogram, labels ...Label) {
	r.register(name, help, typeHistogram, labels, func() *series {
		return &series{histogramFunc: fn}
	})
}

// formatFloat renders a sample value: integral floats without exponent
// noise, +Inf/-Inf/NaN in Prometheus spelling.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText renders every registered family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		r.mu.Lock()
		ss := append([]*series(nil), f.series...)
		r.mu.Unlock()
		for _, s := range ss {
			writeSeries(&b, f, s)
		}
		if _, err := w.Write([]byte(b.String())); err != nil {
			return err
		}
	}
	return nil
}

// writeSeries renders one series' sample lines.
func writeSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.counter != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, strconv.FormatUint(s.counter.Value(), 10))
	case s.counterFunc != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatFloat(s.counterFunc()))
	case s.gauge != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, strconv.FormatInt(s.gauge.Value(), 10))
	case s.gaugeFunc != nil:
		fmt.Fprintf(b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gaugeFunc()))
	case s.histogram != nil || s.histogramFunc != nil:
		h := s.histogram
		if h == nil {
			if h = s.histogramFunc(); h == nil {
				return
			}
		}
		counts, sum := h.Snapshot()
		// Cumulative bucket counts are sums over one snapshot pass, so
		// they are monotone non-decreasing and _count == the +Inf bucket
		// even while observations race the scrape.
		var cum uint64
		ev, etid, eok := h.Exemplar()
		// The exemplar annotates the lowest bucket whose bound covers it.
		exAt := len(h.bounds)
		if eok {
			exAt = sort.SearchFloat64s(h.bounds, ev)
		}
		exSuffix := func(i int) string {
			if !eok || i != exAt {
				return ""
			}
			return fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabelValue(etid), formatFloat(ev))
		}
		for i, bound := range h.bounds {
			cum += counts[i]
			fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name, withLE(s.labels, formatFloat(bound)), cum, exSuffix(i))
		}
		cum += counts[len(h.bounds)]
		fmt.Fprintf(b, "%s_bucket%s %d%s\n", f.name, withLE(s.labels, "+Inf"), cum, exSuffix(len(h.bounds)))
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, s.labels, formatFloat(sum))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, s.labels, cum)
	}
}

// withLE splices the le label into a pre-rendered label block.
func withLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}
