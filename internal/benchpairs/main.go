// Command benchpairs measures a change against a parent commit the way a
// perf claim has to be: N alternated pairs of `bash benchmark/run.sh
// --workload W --trace 0` per workload — the parent's tree from `git
// archive`, the change's from the working tree (what `git add -A` would
// stage, so an uncommitted change is what gets built), each in its own
// directory so that neither build sees the other's cache — then the
// change's full `-json` summary. Everything lands in ONE file,
// BENCH_<tree>.json, named after the tree object of the change as measured:
// both sides of every pair, who ran first, and the summary. Run it through
// `make pairs`, on a box doing nothing else.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// result is the last stdout line of one benchmark run.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// pairRow is one side of one pair, flattened: the end-to-end metrics by name.
type pairRow map[string]any

// bench is the file's layout.
type bench struct {
	Tree    string               `json:"tree"`   // the change, as `git write-tree` of the working tree names it
	Parent  string               `json:"parent"` // the commit it is measured against
	How     string               `json:"how"`
	Pairs   map[string][]pairRow `json:"pairs"`
	Summary json.RawMessage      `json:"summary,omitempty"`
}

func main() {
	workloads := flag.String("workload", "", "comma-separated workloads to pair (required)")
	parent := flag.String("parent", "", "parent commit (required)")
	n := flag.Int("n", 10, "pairs per workload")
	dir := flag.String("dir", "", "scratch directory for the two trees (default: a temporary one, removed afterwards)")
	summary := flag.Bool("summary", true, "end with the change's full -json summary (all workloads, traced and untraced)")
	flag.Parse()
	if *workloads == "" || *parent == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(strings.Split(*workloads, ","), *parent, *n, *dir, *summary); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func run(workloads []string, parent string, n int, dir string, summary bool) error {
	sha, err := output("", "git", "rev-parse", parent)
	if err != nil {
		return err
	}
	sha = strings.TrimSpace(sha)
	if dir == "" {
		if dir, err = os.MkdirTemp("", "benchpairs"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	trees := map[string]string{"parent": filepath.Join(dir, "parent"), "change": filepath.Join(dir, "change")}
	for _, t := range trees {
		if err := os.MkdirAll(t, 0o755); err != nil {
			return err
		}
	}
	if err := pipe("", "git archive "+sha+" | tar -x -C "+trees["parent"]); err != nil {
		return err
	}
	// The working tree as a tree object, through an index of its own: what
	// `git add -A` would stage, without touching the real index or any ref.
	index := "GIT_INDEX_FILE=" + filepath.Join(dir, "index")
	tree, err := output("", "bash", "-c", index+" git add -A && "+index+" git write-tree")
	if err != nil {
		return err
	}
	tree = strings.TrimSpace(tree)
	if err := pipe("", "git archive "+tree+" | tar -x -C "+trees["change"]); err != nil {
		return err
	}

	b := bench{Tree: tree, Parent: sha, Pairs: map[string][]pairRow{}}
	b.How = "per workload, alternated pairs of `bash benchmark/run.sh --workload W --trace 0`, odd pairs parent first, " +
		"each side built from its own tree in its own directory (parent: git archive; change: the working tree); " +
		"summary: the change's `bash benchmark/run.sh -json` (all workloads, one end-to-end and one traced run each)"
	for _, w := range workloads {
		var rows []pairRow
		for i := 1; i <= n; i++ {
			order := []string{"parent", "change"}
			if i%2 == 0 {
				order = []string{"change", "parent"}
			}
			for k, side := range order {
				fmt.Fprintf(os.Stderr, "%s pair %d/%d: %s\n", w, i, n, side)
				res, err := runOnce(trees[side], w)
				if err != nil {
					return fmt.Errorf("%s pair %d, %s: %w", w, i, side, err)
				}
				row := pairRow{"pair": i, "side": side, "ran": []string{"first", "second"}[k],
					"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed}
				for name, m := range res.Metrics {
					row[name] = m.Value
				}
				rows = append(rows, row)
			}
		}
		b.Pairs[w] = rows
		report(w, rows)
	}
	if summary {
		fmt.Fprintln(os.Stderr, "the change's full summary")
		tmp := filepath.Join(dir, "summary.json")
		if err := pipe(trees["change"], "bash benchmark/run.sh -json "+tmp+" >/dev/null"); err != nil {
			return err
		}
		if b.Summary, err = os.ReadFile(tmp); err != nil {
			return err
		}
	}
	enc, err := json.MarshalIndent(&b, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile("BENCH_"+tree[:7]+".json", append(enc, '\n'), 0o644)
}

// runOnce is one end-to-end run of workload w in tree; the result is the
// last line the benchmark prints.
func runOnce(tree, w string) (*result, error) {
	text, err := output(tree, "bash", "benchmark/run.sh", "--workload", w, "--trace", "0")
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// report prints, per metric, what a claim is judged by: each side's median
// and quartiles, and in how many pairs the change was the lower.
func report(w string, rows []pairRow) {
	sides := map[string]map[string][]float64{"parent": {}, "change": {}}
	byPair := map[string]map[int]map[string]float64{}
	failed := map[string]int{}
	for _, r := range rows {
		side, pair := r["side"].(string), r["pair"].(int)
		failed[side] += r["failed"].(int)
		for name, v := range r {
			f, ok := v.(float64)
			if !ok {
				continue
			}
			sides[side][name] = append(sides[side][name], f)
			if byPair[name] == nil {
				byPair[name] = map[int]map[string]float64{}
			}
			if byPair[name][pair] == nil {
				byPair[name][pair] = map[string]float64{}
			}
			byPair[name][pair][side] = f
		}
	}
	var names []string
	for name := range byPair {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: failed ops parent %d, change %d\n", w, failed["parent"], failed["change"])
	fmt.Printf("%-22s %12s %25s %12s %25s %8s %s\n", "metric", "parent p50", "[q1, q3]", "change p50", "[q1, q3]", "delta", "change lower in")
	for _, name := range names {
		p, c := quartiles(sides["parent"][name]), quartiles(sides["change"][name])
		lower, ties := 0, 0
		for _, v := range byPair[name] {
			switch {
			case v["change"] < v["parent"]:
				lower++
			case v["change"] == v["parent"]:
				ties++
			}
		}
		fmt.Printf("%-22s %12.4f [%11.4f,%11.4f] %12.4f [%11.4f,%11.4f] %+7.1f%% %d/%d (%d ties)\n",
			name, p[1], p[0], p[2], c[1], c[0], c[2], 100*(c[1]-p[1])/p[1], lower, len(byPair[name]), ties)
	}
}

// quartiles returns q1, the median and q3 (linear interpolation).
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		if len(s) == 0 {
			return 0
		}
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// output runs a command in dir and returns its stdout; stderr passes through.
func output(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	var buf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &buf, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err)
	}
	return buf.String(), nil
}

// pipe runs a shell pipeline in dir.
func pipe(dir, script string) error {
	cmd := exec.Command("bash", "-o", "pipefail", "-c", script)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", script, err)
	}
	return nil
}
