// Command neograph-bench runs the experiment registry in internal/bench —
// the paper's experiments (E1–E7, F1) and the system experiments (E8, E9,
// E11, E12, E14, E15) — and prints one table per experiment.
//
// Usage:
//
//	neograph-bench                 # run everything at full size
//	neograph-bench -exp E4         # one experiment
//	neograph-bench -quick          # small, fast configurations
//	neograph-bench -json out.json  # also write structured results
//	neograph-bench -exp E11 -cpuprofile cpu.pprof  # profile a run
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"neograph/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run: an ID of the registry (E1..E15, F1) or all")
		quick    = flag.Bool("quick", false, "small configurations (seconds, not minutes)")
		seed     = flag.Int64("seed", 42, "workload seed")
		jsonPath = flag.String("json", "", "write structured results to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	// Profiles are finalised through exit() on every path — os.Exit would
	// otherwise skip deferred finalisers, truncating the CPU profile and
	// dropping the heap profile exactly when a failing run is the thing
	// worth profiling.
	profilesDone := false
	stopProfiles := func() {
		if profilesDone {
			return
		}
		profilesDone = true
		if *cpuProf != "" {
			pprof.StopCPUProfile()
		}
		if *memProf != "" {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	defer stopProfiles()

	// report accumulates each experiment's structured rows for -json.
	w := os.Stdout
	params := bench.Params{Quick: *quick, Seed: *seed}
	report := map[string]any{"quick": *quick, "seed": *seed}
	matched := 0
	for _, e := range bench.Experiments {
		if *exp != "all" && !strings.EqualFold(*exp, e.ID) {
			continue
		}
		matched++
		t0 := time.Now()
		rows, err := e.Run(w, params)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			exit(1)
		}
		if rows != nil {
			report[e.ID] = rows
		}
		fmt.Fprintf(w, "(%s completed in %v)\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	if matched == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want an ID of the registry — E1..E15, F1 — or all)\n", *exp)
		exit(2)
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal results: %v\n", err)
			exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			exit(1)
		}
		fmt.Fprintf(w, "(results written to %s)\n", *jsonPath)
	}
}
