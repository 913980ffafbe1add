package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"neograph/internal/trace"
)

// counters are one client's tallies over one phase.
type counters struct {
	ops, writes, failed, retries int64
}

func (a *counters) add(b counters) {
	a.ops += b.ops
	a.writes += b.writes
	a.failed += b.failed
	a.retries += b.retries
}

func (c *counters) note(o *op, res result, took time.Duration) (failed bool) {
	c.ops++
	c.retries += int64(res.retries)
	if o.Write {
		c.writes++
	}
	if res.err != nil || took > opDeadline {
		c.failed++
		return true
	}
	return false
}

// sample is one open-loop op.
type sample struct {
	sched time.Duration // scheduled send, from the phase start
	lag   time.Duration // actual send minus scheduled send
	// late is how long the send left after the moment it could have: the
	// generator's own share of lag (see lateAfter).
	late     time.Duration
	took     time.Duration // completion minus actual send
	firstRow time.Duration
	rows     int
	client   int8
	write    bool
	cross    bool
	failed   bool
}

// loadGen is the load generator: one goroutine per client, each walking
// its own pre-generated stream over its own connection.
type loadGen struct {
	r       *runner
	streams [clients][]op
	cursor  [clients]int
	// tracer, when set, makes every op a traced one: the generator opens
	// a root span around the call and the layers hang theirs below it.
	tracer *trace.Tracer

	mu       sync.Mutex
	firstErr error
}

func (g *loadGen) noteErr(c int, o *op, err error) {
	if err == nil {
		err = fmt.Errorf("op exceeded its %v deadline", opDeadline)
	}
	g.mu.Lock()
	if g.firstErr == nil {
		g.firstErr = fmt.Errorf("client %d (write=%v): %w", c, o.Write, err)
	}
	g.mu.Unlock()
}

func (g *loadGen) next(c int) *op {
	o := &g.streams[c][g.cursor[c]%len(g.streams[c])]
	g.cursor[c]++
	return o
}

// run executes one op, traced when the generator has a tracer.
func (g *loadGen) run(ctx context.Context, c int, o *op) result {
	if g.tracer == nil {
		return g.r.exec(ctx, c, o, nil)
	}
	name := "bench.read"
	if o.Write {
		name = "bench.write"
	}
	root := g.tracer.StartRoot(name)
	res := g.r.exec(ctx, c, o, root)
	root.Finish()
	return res
}

// closedLoop runs every client flat out for dur: a client sends its next
// op when the previous one completes. It returns the completions per
// second of each whole sub-window.
func (g *loadGen) closedLoop(ctx context.Context, dur time.Duration) ([]float64, counters) {
	n := max(1, int(dur/window))
	width := dur / time.Duration(n)
	done := make([][]int64, clients)
	per := make([]counters, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		done[c] = make([]int64, n)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				o := g.next(c)
				res := g.run(ctx, c, o)
				t1 := time.Now()
				if per[c].note(o, res, t1.Sub(t0)) {
					g.noteErr(c, o, res.err)
					continue
				}
				if w := int(t1.Sub(start) / width); w < n {
					done[c][w]++
				}
			}
		}(c)
	}
	wg.Wait()
	rates := make([]float64, n)
	var total counters
	for c := 0; c < clients; c++ {
		total.add(per[c])
		for w := range rates {
			rates[w] += float64(done[c][w]) / width.Seconds()
		}
	}
	return rates, total
}

// waitUntil returns once due has passed since start, and how long after
// start it returned. The sandbox's timers fire on a 1 ms tick (a 50µs
// sleep takes 1.1 ms), so the last stretch is a yielding spin: precise,
// and any runnable goroutine still gets the processor at once.
func waitUntil(start time.Time, due time.Duration) time.Duration {
	for {
		now := time.Since(start)
		switch rem := due - now; {
		case rem <= 0:
			return now
		case rem > 5*time.Millisecond:
			time.Sleep(rem - 3*time.Millisecond)
		default:
			runtime.Gosched()
			syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
		}
	}
}

// openLoop offers a fixed rate for dur, whatever the system does: client
// c's i-th op is due at (i*clients+c)/rate and is sent then, or as soon as
// the client's previous op has completed — a client has one connection and
// a connection carries one request at a time. An op's latency runs from
// its scheduled send to its completion (lag + took), so the wait a slow op
// or a stall imposes on the ops behind it is counted, not omitted.
func (g *loadGen) openLoop(ctx context.Context, dur time.Duration, rate float64) ([]sample, counters) {
	interval := time.Duration(float64(clients) / rate * float64(time.Second))
	count := int(dur / interval)
	samples := make([][]sample, clients)
	per := make([]counters, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		samples[c] = make([]sample, 0, count)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			offset := interval * time.Duration(c) / clients
			var free time.Duration // when the client's previous op completed
			for i := 0; i < count; i++ {
				sched := offset + interval*time.Duration(i)
				now := waitUntil(start, sched)
				o := g.next(c)
				res := g.run(ctx, c, o)
				end := time.Since(start)
				s := sample{sched: sched, lag: now - sched, late: now - max(sched, free), took: end - now,
					firstRow: res.firstRow, rows: res.rows, client: int8(c), write: o.Write, cross: res.cross}
				if s.failed = per[c].note(o, res, end-now); s.failed {
					g.noteErr(c, o, res.err)
				}
				samples[c] = append(samples[c], s)
				free = end
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	var total counters
	for c := 0; c < clients; c++ {
		all = append(all, samples[c]...)
		total.add(per[c])
	}
	sort.Slice(all, func(i, j int) bool { return all[i].sched < all[j].sched })
	return all, total
}

// ---- statistics ----

// percentile returns the p-quantile (0..1) of sorted values by nearest rank.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// windowed cuts the samples keep selects into consecutive sub-windows of
// their scheduled send time, takes the p-quantile of value in each whole
// window and returns the median window. Background work (a checkpoint
// every 5 s, the engine's GC every second, a Go GC cycle every few) and
// the box's neighbours stall the system for 10-50 ms at a time; a
// percentile over the whole phase lands inside or outside those stalls by
// chance. The median window keeps the stalls every window has and drops
// the ones only a few have.
func windowed(samples []sample, p float64, keep func(*sample) bool, value func(*sample) float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	first := samples[0].sched
	span := samples[len(samples)-1].sched - first
	n := max(1, int((span+window/2)/window))
	per := make([][]float64, n)
	for i := range samples {
		if s := &samples[i]; !s.failed && keep(s) {
			w := min(int((s.sched-first)/window), n-1)
			per[w] = append(per[w], value(s))
		}
	}
	var quantiles []float64
	for _, v := range per {
		if len(v) > 0 {
			sort.Float64s(v)
			quantiles = append(quantiles, percentile(v, p))
		}
	}
	return median(quantiles)
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func isRead(s *sample) bool  { return !s.write }
func isWrite(s *sample) bool { return s.write }

// latencyUS is an op's latency: from its scheduled send to its completion.
func latencyUS(s *sample) float64 { return usOf(s.lag + s.took) }

// serviceUS is the part of it the op itself took: from the moment it was
// handed to the API to its completion. The probes and the per-layer
// ledger use it where a queue must not be counted.
func serviceUS(s *sample) float64 { return usOf(s.took) }
