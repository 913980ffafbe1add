package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestStreamsComeFromTheSeed: the same seed yields a byte-identical
// stream, another seed or client another one, and embed_mix and remote_mix
// replay the same stream.
func TestStreamsComeFromTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a := streamHash(genStream(w, 42, 0, 5000, w.people, false))
		if b := streamHash(genStream(w, 42, 0, 5000, w.people, false)); a != b {
			t.Errorf("%s: same seed, different streams", w.name)
		}
		if b := streamHash(genStream(w, 43, 0, 5000, w.people, false)); a == b {
			t.Errorf("%s: different seeds, same stream", w.name)
		}
		if b := streamHash(genStream(w, 42, 1, 5000, w.people, false)); a == b {
			t.Errorf("%s: both clients got the same stream", w.name)
		}
	}
	embed := streamHash(genStream(findWorkload("embed_mix"), 7, 0, 5000, 12000, false))
	remote := streamHash(genStream(findWorkload("remote_mix"), 7, 0, 5000, 12000, false))
	if embed != remote {
		t.Error("embed_mix and remote_mix must replay the same stream")
	}
}

// TestStreamShape: both op classes are at least a quarter of every
// stream, a client writes only its own persons, and on the fleet exactly
// one write in ten spans both partitions.
func TestStreamShape(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		per := uint32(w.people / w.parts)
		for c := 0; c < clients; c++ {
			ops := genStream(w, 42, c, 20000, w.people, false)
			writes, cross := 0, 0
			for _, o := range ops {
				if !o.Write {
					if o.N[0] >= per {
						t.Fatalf("%s: read of person %d of %d", w.name, o.N[0], per)
					}
					continue
				}
				writes++
				if o.Cross {
					cross++
				}
				used := map[kind]int{kindEmbed: 2, kindRemote: 2, kindTraverse: 5, kindFleet: 7}[w.kind]
				if o.Cross {
					used = 6
				}
				for _, n := range o.N[:used] {
					if n >= per || int(n)%clients != c {
						t.Fatalf("%s: client %d writes person %d", w.name, c, n)
					}
				}
			}
			if frac := float64(writes) / float64(len(ops)); frac < 0.24 || frac > 0.76 {
				t.Errorf("%s: write share %.3f leaves a class under a quarter", w.name, frac)
			}
			if w.kind == kindFleet && cross != writes/10 {
				t.Errorf("%s: %d of %d writes cross partitions, want one in ten", w.name, cross, writes)
			}
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload end to end on a tiny graph with
// one-second runs, untraced and traced, and checks the output's schema.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	cfg := config{seed: 42, seconds: 1, dir: dir, shrink: 20, rateScale: 0.2}
	ctx := context.Background()
	var reports []*report
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			rep, err := runOne(ctx, w, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			reports = append(reports, rep)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v", w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
			}
			want := map[string]bool{}
			if traced {
				for _, m := range perLayer {
					want[m.name] = true
				}
			} else {
				for _, m := range endToEnd {
					want[m] = true
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for name, m := range rep.Metrics {
				if !want[name] || !nameRE.MatchString(name) || m.Unit == "" || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: bad metric %q = %v %q", w.name, traced, name, m.Value, m.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, name, m.Value)
				}
				if !traced {
					continue
				}
				layer, _, _ := strings.Cut(name, ".")
				unused := (w.kind == kindEmbed && (layer == "client" || layer == "wire" || layer == "server")) ||
					(w.kind != kindFleet && (layer == "repl" || layer == "partition")) ||
					(w.kind != kindTraverse && layer == "query")
				if unused && m.Value != 0 {
					t.Errorf("%s: %s = %v, but the workload does not use that layer", w.name, name, m.Value)
				}
			}
			if traced && w.kind == kindFleet {
				if f := rep.Metrics["partition.cross_frac"].Value; math.Abs(f-0.10) > 1e-12 {
					t.Errorf("fleet_batch: partition.cross_frac = %v, want exactly 0.10", f)
				}
			}
			// The contract's line: exactly these keys.
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("result line has keys %v", keys)
			}
		}
	}
	path := filepath.Join(dir, "summary.json")
	if err := writeSummary(path, cfg, reports); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("summary is not JSON: %v", err)
	}
	if !strings.HasSuffix(strings.TrimSpace(string(raw)), "\"claim\": null\n}") {
		t.Errorf("summary must end with \"claim\": null, ends with %q", raw[max(0, len(raw)-40):])
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the driver reads, equal to
// what the program reports, and inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("size %d, run_seconds %d", len(raw), b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) || len(b.Workloads) > 8 {
		t.Fatalf("%d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
		if rate := fmt.Sprintf("open loop at %.0f txn/s", workloads[i].rate); !strings.Contains(w.Why, rate) {
			t.Errorf("workload %s: why must state the fixed rate (%q): %q", w.Name, rate, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics, the program has %d", len(b.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i] || !nameRE.MatchString(m.Name) || m.Bound != bounds[m.Name] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: %+v (program: %s, bound %v)", i, m, endToEnd[i], bounds[endToEnd[i]])
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better=%q", m.Name, m.Better)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if len(b.PerLayer) != len(perLayer) || len(b.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the program has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !nameRE.MatchString(m.Name) {
			t.Errorf("per-layer metric %d: %+v (program: %+v)", i, m, perLayer[i])
		}
	}
}
