// Command srbench regenerates the paper's evaluation: every figure and
// quantified claim mapped to an experiment in DESIGN.md §4, plus the few
// engineering rungs bench/ cannot host yet. experiments.Index is the list;
// comparing two runs is bench/'s job (bash bench/run.sh -compare).
//
// Usage:
//
//	srbench                 # run everything at full (laptop) scale
//	srbench -scale 0.1      # quicker pass
//	srbench -only E1,E3     # a subset
//	srbench -list           # show the experiment index
//	srbench -only E15 -json BENCH_sched.json -budget BENCH_budget.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"

	"streamrel/internal/experiments"
)

// jsonReport is the machine-readable output format for -json: enough
// context (host, scale, date) for future PRs to track the throughput
// trajectory across runs.
type jsonReport struct {
	Suite      string               `json:"suite"`
	Scale      float64              `json:"scale"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	GitSHA     string               `json:"git_sha,omitempty"`
	GitDirty   bool                 `json:"git_dirty,omitempty"`
	Started    time.Time            `json:"started"`
	ElapsedMS  int64                `json:"elapsed_ms"`
	Tables     []*experiments.Table `json:"tables"`
	Durations  map[string]int64     `json:"experiment_ms"`
}

// gitStamp returns the short HEAD sha and whether the tree is dirty, so
// each result names the exact code it measured. The committed BENCH_*.json
// reports are not code: `make bench` rewrites them one after another, and
// the first must not make the rest dirty. Outside a git checkout both are
// zero values.
func gitStamp() (sha string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "", false
	}
	sha = strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain", "--", ".", ":(exclude)BENCH_*.json").Output()
	if err == nil && len(strings.TrimSpace(string(st))) > 0 {
		dirty = true
	}
	return sha, dirty
}

// checkBudget compares every metric the run produced against the maxima
// in a checked-in budget file (metric name → max allowed value). Metrics
// absent from the budget are unconstrained; budget entries the run didn't
// produce warn loudly on stderr but don't fail (a small -scale run may
// legitimately skip rungs) — a silently vanished metric must never read
// as a passing gate.
func checkBudget(path string, tables []*experiments.Table) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var budget map[string]float64
	if err := json.Unmarshal(data, &budget); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	got := map[string]float64{}
	for _, t := range tables {
		for k, v := range t.Metrics {
			got[k] = v
		}
	}
	var failures []string
	missing := 0
	for name, limit := range budget {
		v, ok := got[name]
		if !ok {
			missing++
			fmt.Fprintf(os.Stderr,
				"srbench: WARNING: budget key %q was not measured this run (limit %g) — "+
					"the gate did not check it; run the experiment that produces it "+
					"(or at a scale that does), or prune the key from the budget file\n",
				name, limit)
			continue
		}
		if v > limit {
			failures = append(failures, fmt.Sprintf("%s = %.3f exceeds budget %.3f", name, v, limit))
		} else {
			fmt.Printf("budget: %s = %.3f within %.3f\n", name, v, limit)
		}
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "srbench: WARNING: %d of %d budget keys unchecked this run\n",
			missing, len(budget))
	}
	if len(failures) > 0 {
		return fmt.Errorf("budget exceeded:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// selectIDs parses -only into the set of experiments to run; empty means
// all. An id experiments.Index does not list is an error naming the ones it
// does: a typo must not pass as a run that measured nothing.
func selectIDs(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	known := make([]string, len(experiments.Index))
	for i, e := range experiments.Index {
		known[i] = e.ID
	}
	for _, id := range strings.Split(only, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("-only: unknown experiment %q (known: %s)", id, strings.Join(known, ", "))
		}
		want[id] = true
	}
	return want, nil
}

func main() {
	scale := flag.Float64("scale", 1.0, "experiment size multiplier (1.0 = full laptop scale)")
	only := flag.String("only", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "also write results as JSON to this file")
	budgetPath := flag.String("budget", "", "compare run metrics against this budget file (metric → max); exit non-zero on breach")
	flag.Parse()

	if *list {
		for _, e := range experiments.Index {
			fmt.Printf("%-4s %s\n", e.ID, e.What)
		}
		return
	}

	want, err := selectIDs(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "srbench: %v\n", err)
		os.Exit(2)
	}

	fmt.Printf("streamrel experiment suite (scale %.2g)\n", *scale)
	fmt.Printf("reproducing: Franklin et al., \"Continuous Analytics\", CIDR 2009\n\n")
	sha, dirty := gitStamp()
	report := &jsonReport{
		Suite:      "streamrel",
		Scale:      *scale,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GitSHA:     sha,
		GitDirty:   dirty,
		Started:    time.Now().UTC(),
		Durations:  map[string]int64{},
	}
	start := time.Now()
	for _, e := range experiments.Index {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		t0 := time.Now()
		table, err := e.Run(experiments.Scale(*scale))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		took := time.Since(t0)
		fmt.Println(table.String())
		fmt.Printf("(%s took %s)\n\n", e.ID, took.Round(time.Millisecond))
		report.Tables = append(report.Tables, table)
		report.Durations[e.ID] = took.Milliseconds()
	}
	report.ElapsedMS = time.Since(start).Milliseconds()
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *budgetPath != "" {
		if err := checkBudget(*budgetPath, report.Tables); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}
}
