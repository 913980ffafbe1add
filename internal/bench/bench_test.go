package bench

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neograph"
)

// TestRegistry runs every experiment once in quick mode — the same
// configuration `neograph-bench -quick` runs — and checks it produces
// output and rows, that no cell errored or sat idle, and the *shape* each
// claim predicts, not absolute numbers.
func TestRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("timed experiments")
	}
	seen := map[string]bool{}
	for _, e := range Experiments {
		if seen[e.ID] || e.ID == "" || e.Title == "" {
			t.Fatalf("registry entry %q (%q) is unnamed or duplicated", e.ID, e.Title)
		}
		seen[e.ID] = true
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			rows, err := e.Run(&buf, Params{Quick: true, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "== "+e.ID+": ") || strings.Count(out, "\n| ") < 3 {
				t.Fatalf("missing banner or table:\n%s", out)
			}
			check, ok := shapes[e.ID]
			if !ok {
				t.Fatalf("no shape check registered for %s", e.ID)
			}
			if e.ID == "F1" {
				check(t, out)
				return
			}
			v := reflect.ValueOf(rows)
			if !v.IsValid() || (v.Kind() == reflect.Slice && v.Len() == 0) {
				t.Fatalf("no rows")
			}
			// Every runner-driven cell must have committed work and hit
			// no unexpected error.
			for i := 0; v.Kind() == reflect.Slice && i < v.Len(); i++ {
				if f := v.Index(i).FieldByName("Result"); f.IsValid() {
					res := f.Interface().(Result)
					if res.Commits == 0 || res.Errors != 0 {
						t.Fatalf("cell %+v: no commits or unexpected errors", v.Index(i).Interface())
					}
				}
			}
			check(t, rows)
		})
	}
}

// find returns the first row matching pred, failing the test if none does.
func find[R any](t *testing.T, rows []R, what string, pred func(R) bool) R {
	t.Helper()
	for _, r := range rows {
		if pred(r) {
			return r
		}
	}
	t.Fatalf("missing cell %s in %+v", what, rows)
	panic("unreachable")
}

// shapes holds each experiment's shape assertions over its quick-mode
// rows (F1: over its printed inventory).
var shapes = map[string]func(t *testing.T, rows any){
	"E1": func(t *testing.T, rows any) {
		res := rows.([]E1Result)
		si, rc := res[0], res[1]
		if si.CheckTxns == 0 || rc.CheckTxns == 0 {
			t.Fatalf("checkers did not run: %+v", res)
		}
		if si.UnrepeatableReads != 0 || si.PhantomReads != 0 {
			t.Fatalf("SI exhibited anomalies: %+v", si)
		}
		if rc.UnrepeatableReads == 0 && rc.PhantomReads == 0 {
			t.Fatalf("RC exhibited no anomalies under write load: %+v", rc)
		}
	},

	"E2": func(t *testing.T, rows any) {
		if got, want := len(rows.([]E2Row)), len(mixes)*3*2; got != want {
			t.Fatalf("rows = %d, want %d (mixes x client counts x isolation levels)", got, want)
		}
	},

	"E3": func(t *testing.T, rows any) {
		cells := rows.([]E3Row)
		if len(cells) != 4*2 {
			t.Fatalf("rows = %d, want 8 (thetas x policies)", len(cells))
		}
		// When the loser learns it lost, counted: FCW at commit, after all
		// four updates; FUW at a conflicting update, after at most three.
		// (Abort rates against skew are timings: neograph-bench prints them.)
		for _, r := range cells {
			aborts := r.Result.Conflicts + r.Result.Deadlocks
			if r.Policy == "FCW" && r.WastedOps != 4*aborts || r.Policy == "FUW" && r.WastedOps > 3*aborts {
				t.Errorf("theta %.1f %s: %d wasted ops over %d aborts", r.Theta, r.Policy, r.WastedOps, aborts)
			}
		}
	},

	"E4": func(t *testing.T, rows any) {
		var threaded, vacuum []E4Row
		for _, r := range rows.([]E4Row) {
			// Every rewrite but the first (which repeats the creation's value)
			// left one dead "v" entry behind; the index pass examines those
			// and nothing else, whatever the store's size.
			if r.IndexPruned != r.Garbage-1 || r.IndexScanned > r.IndexPruned+1 {
				t.Errorf("%s, %d live: index pruned %d of %d dead entries, examining %d",
					r.Mode, r.Live, r.IndexPruned, r.Garbage, r.IndexScanned)
			}
			if r.Mode == "threaded" {
				threaded = append(threaded, r)
			} else {
				vacuum = append(vacuum, r)
			}
		}
		for _, r := range threaded {
			if r.Collected != r.Garbage {
				t.Errorf("threaded collected %d != garbage %d", r.Collected, r.Garbage)
			}
			if r.Scanned > r.Garbage+1 {
				t.Errorf("threaded scanned %d > garbage+1 (cost not O(garbage))", r.Scanned)
			}
		}
		if len(vacuum) != 2 || len(threaded) != 2 {
			t.Fatalf("want two store sizes per collector, got %d/%d", len(threaded), len(vacuum))
		}
		// Vacuum scan cost grows with the live set at fixed garbage.
		if vacuum[1].Scanned <= vacuum[0].Scanned {
			t.Errorf("vacuum scanned did not grow with store: %d -> %d", vacuum[0].Scanned, vacuum[1].Scanned)
		}
		// Threaded scan cost does not.
		if threaded[1].Scanned > threaded[0].Scanned+1 {
			t.Errorf("threaded scanned grew with store: %d -> %d", threaded[0].Scanned, threaded[1].Scanned)
		}
	},

	"E5": func(t *testing.T, rows any) {
		samples := rows.([]E5Row)
		n := len(samples)
		if n < 3 {
			t.Fatalf("rows = %d", n)
		}
		// Versions grow monotonically while the reader is active...
		for i := 1; i < n-1; i++ {
			if samples[i].Versions < samples[i-1].Versions {
				t.Errorf("versions fell while reader active: %+v", samples)
			}
		}
		// ...and collapse to the live set (the first sample: one version
		// per node) after it finishes.
		last := samples[n-1]
		if last.Phase != "reader-done" {
			t.Fatalf("last phase = %s", last.Phase)
		}
		if last.Versions != samples[0].Versions {
			t.Errorf("versions after release = %d, want %d (live set)", last.Versions, samples[0].Versions)
		}
		if last.Backlog != 0 {
			t.Errorf("backlog after release = %d", last.Backlog)
		}
	},

	"E6": func(t *testing.T, rows any) {
		r := find(t, rows.([]E6Row), "selectivity 0.01", func(r E6Row) bool { return r.Selectivity == 0.01 })
		if r.Hits == 0 {
			t.Fatal("no hits")
		}
		if r.IndexTime >= r.ScanTime {
			t.Errorf("index (%v) not faster than scan (%v) at selectivity 0.01", r.IndexTime, r.ScanTime)
		}
	},

	"E7": func(t *testing.T, rows any) {
		cells := rows.([]E7Row)
		for _, r := range cells {
			if r.ResultSize != cells[0].ResultSize+r.WriteSet {
				t.Fatalf("merge lost or invented rows: %+v", cells)
			}
		}
	},

	"F1": func(t *testing.T, out any) {
		for _, want := range []string{"object cache", "persistent store", "neostore.nodes.db", "wal"} {
			if !strings.Contains(out.(string), want) {
				t.Errorf("F1 output missing %q", want)
			}
		}
	},
}

func TestPrintRowsAligned(t *testing.T) {
	type row struct {
		A      string
		Long   float64       `json:"long_header,omitempty"`
		Hidden time.Duration `json:"-"`
		Result Result
	}
	var buf bytes.Buffer
	printRows(&buf, []row{{A: "x", Long: 2.5}, {A: "xyz", Hidden: time.Millisecond}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, l := range lines {
		if len(l) != len(lines[0]) {
			t.Errorf("misaligned table:\n%s", buf.String())
		}
	}
	for _, h := range []string{"| A ", "long_header", "Hidden", "txn/s", "abort rate", "p50", "p95"} {
		if !strings.Contains(lines[0], h) {
			t.Errorf("header %q missing from %q", h, lines[0])
		}
	}
	if !strings.Contains(lines[2], "2.50") || !strings.Contains(lines[3], "1ms") {
		t.Errorf("cells not formatted:\n%s", buf.String())
	}

	// A single struct prints one line per field.
	buf.Reset()
	printRows(&buf, row{A: "solo"})
	if got := strings.Count(buf.String(), "\n"); got != 2+3+4 {
		t.Errorf("vertical table has %d lines:\n%s", got, buf.String())
	}
}

func TestSummarize(t *testing.T) {
	if got := summarize(nil); got != (latency{}) {
		t.Fatalf("empty summary = %+v", got)
	}
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(100-i) * time.Millisecond // unsorted on purpose
	}
	got := summarize(lats)
	want := latency{P50: 50 * time.Millisecond, P95: 95 * time.Millisecond}
	if got != want {
		t.Fatalf("summary = %+v, want %+v", got, want)
	}
}

func TestRunnerCounters(t *testing.T) {
	var n atomic.Uint64
	res := (&Runner{
		Clients:  2,
		Duration: 50 * time.Millisecond,
		Op: func(c int, r *rand.Rand) error {
			switch n.Add(1) % 3 {
			case 0:
				return neograph.ErrWriteConflict
			case 1:
				return errOther
			default:
				return nil
			}
		},
	}).Run("counters")
	if res.Commits == 0 || res.Conflicts == 0 || res.Errors == 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
	if res.AbortRate() <= 0 || res.AbortRate() >= 1 {
		t.Fatalf("abort rate = %f", res.AbortRate())
	}
}

var errOther = errors.New("other")
