package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
)

// bounds is the share of the parent's median by which an end-to-end metric
// may get worse before a change counts as a regression. BENCHMARK.json
// carries the same numbers (a test keeps the two equal).
var bounds = map[string]float64{
	"setup_s": 0.25, "recovery_s": 0.25, "heap_mb": 0.03, "txn_per_s": 0.25,
	"read_p50_us": 0.25, "write_p50_us": 0.25, "write_p90_us": 0.25,
	"disk_bytes_per_write": 0.03,
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(math.Floor(pos))
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.75)
}

// runSets is the repeat mode: n full sets of end-to-end runs of the same
// seed, then for every workload/metric the minimum, median and maximum and
// the range as a share of the median, against the metric's bound; from
// four sets up also the interquartile spread, which is what the driver
// computes (there over ten seeds). It returns the process's exit code: 1
// when a range exceeds its bound.
func runSets(ctx context.Context, run []*workloadDef, cfg config, n int) int {
	values := map[string][]float64{}
	for set := 0; set < n; set++ {
		for _, w := range run {
			rep, err := runOne(ctx, w, cfg, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: set %d %s: %v\n", set+1, w.name, err)
				return 1
			}
			fmt.Printf("set %d/%d %s: ops=%d failed=%d\n", set+1, n, w.name, rep.Attempted, rep.Failed)
			if !rep.Correct {
				for _, p := range rep.problems {
					fmt.Printf("PROBLEM: %s\n", p)
				}
				return 1
			}
			for _, m := range endToEnd {
				key := w.name + "/" + m
				values[key] = append(values[key], rep.Metrics[m].Value)
			}
		}
	}
	code := 0
	fmt.Printf("%-38s %12s %12s %12s %8s %8s %6s\n", "workload/metric", "min", "median", "max", "range", "iqr", "bound")
	for _, w := range run {
		for _, m := range endToEnd {
			v := values[w.name+"/"+m]
			med := median(v)
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			rng := (hi - lo) / med
			iqr := "-"
			if n >= 4 {
				q1, q3 := quartiles(v)
				iqr = fmt.Sprintf("%.1f%%", 100*(q3-q1)/med)
			}
			verdict := ""
			if rng > bounds[m] {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Printf("%-38s %12.4f %12.4f %12.4f %7.1f%% %8s %5.0f%%%s\n", w.name+"/"+m, lo, med, hi, 100*rng, iqr, 100*bounds[m], verdict)
		}
	}
	return code
}
