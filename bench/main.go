// Command bench is streamrel's canonical benchmark: four workloads that each
// stress a different set of layers, end-to-end metrics measured with the
// engine's tracing at its default, and a per-layer cost ledger built from
// probes and a fully traced pass. README.md in this directory defines every
// workload and metric.
//
//	bash bench/run.sh -seed 1                      all four workloads, ledger, bench/out/<UTC>_<sha>.json
//	bash bench/run.sh -seed 1 -workload mem_fanout  one workload, both runs
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                one run; last line is the driver's JSON object
//	bash bench/run.sh -compare OLD.json NEW.json    old → new against the bounds in BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the exit, so the self-tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all four)")
		seed     = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 20, "measured seconds of a --trace 0 run (sat 2/5, paced 3/5)")
		traceRun = fs.Int("trace", -1, "0: end-to-end run, 1: probes and traced pass; unset: both, in child processes")
		out      = fs.String("out", "", "write the full result as JSON to this file")
		outDir   = fs.String("outdir", filepath.Join("bench", "out"), "directory for trace files and default results")
		tmpDir   = fs.String("tmpdir", filepath.Join(".bench_build", "run"), "parent of data directories, removed on exit")
		compare  = fs.Bool("compare", false, "compare two results: -compare OLD.json[,OLD2.json…] NEW.json[,…]")
		smoke    = fs.Bool("smoke", false, "tenth-length phases and passes, to exercise the harness")
		allowGMP = fs.Bool("allow-gomaxprocs", false, "run even though GOMAXPROCS is below the CPU count")
		corrupt  = fs.Bool("corrupt-reference", false, "flip a bit in every reference transcript (the run must then fail)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare OLD.json[,…] NEW.json[,…]")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if runtime.GOMAXPROCS(0) < runtime.NumCPU() && !*allowGMP {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS=%d is below the %d CPUs; every committed ladder so far ran on one core "+
			"and hid the engine's concurrency. Pass -allow-gomaxprocs to run anyway.\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}
	var defs []*workloadDef
	if *workload == "" {
		defs = workloads
	} else if w := workloadByName(*workload); w != nil {
		defs = []*workloadDef{w}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}

	if *traceRun == 0 || *traceRun == 1 {
		if len(defs) != 1 {
			fmt.Fprintln(stderr, "bench: -trace needs -workload")
			return 2
		}
		tmp, cleanup, err := makeTmp(*tmpDir)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		defer cleanup()
		cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke, tmp: tmp, outDir: *outDir, corruptReference: *corrupt}
		return runOne(defs[0], cfg, *traceRun, *allowGMP, *out, stdout, stderr)
	}
	common := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds),
		"-outdir", *outDir, "-tmpdir", *tmpDir, fmt.Sprintf("-smoke=%t", *smoke),
		fmt.Sprintf("-allow-gomaxprocs=%t", *allowGMP), fmt.Sprintf("-corrupt-reference=%t", *corrupt)}
	return runSuite(defs, common, *seed, *outDir, *out, stdout, stderr)
}

// makeTmp creates this process's data directory under parent and returns a
// cleanup that removes it; an interrupt or termination removes it too.
func makeTmp(parent string) (string, func(), error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return "", nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if _, ok := <-sig; ok {
			os.RemoveAll(dir)
			os.Exit(130)
		}
	}()
	return dir, func() {
		signal.Stop(sig)
		close(sig)
		os.RemoveAll(dir)
	}, nil
}

// contractLine is the JSON object the driver reads from the last line.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int64                     `json:"attempted"`
	Failed    int64                     `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is one run of one workload. It prints every metric it measured by
// name and, as the last line, the driver's JSON object: the end-to-end
// metrics of a --trace 0 run or the per-layer metrics of a --trace 1 run.
func runOne(w *workloadDef, cfg runConfig, traceMode int, allowGMP bool, out string, stdout, stderr io.Writer) int {
	var res *runResult
	var err error
	if traceMode == 0 {
		res, err = runTimed(w, cfg)
	} else {
		res, err = runTraced(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	res.AllowGOMAXPROCS = allowGMP
	specs := endToEnd
	if traceMode == 1 {
		specs = perLayer
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]contractMetric{}}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok {
			fmt.Fprintf(stderr, "bench: %s: metric %s was not measured\n", w.name, s.Name)
			return 1
		}
		line.Metrics[s.Name] = contractMetric{Value: m.Value, Unit: s.Unit}
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	printResult(stdout, res)
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(buf))
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// printResult prints a run's metrics by name with unit and sample count.
func printResult(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "== %s seed=%d trace=%d seconds=%d nproc=%d gomaxprocs=%d %s\n",
		res.Workload, res.Seed, res.Trace, res.Seconds, res.NumCPU, res.GOMAXPROCS, res.GoVersion)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if m.N > 0 {
			fmt.Fprintf(w, "%-40s %16.4f %-6s n=%d\n", n, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "%-40s %16.4f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%-40s %16d\n%-40s %16d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	for _, e := range res.Explain {
		for _, l := range e.Lines {
			if t := strings.TrimSpace(l); strings.HasPrefix(t, "mode:") || strings.HasPrefix(t, "shared:") ||
				strings.HasPrefix(t, "shared slices:") || strings.HasPrefix(t, "sched:") {
				fmt.Fprintf(w, "explain %-16s %s\n", e.Name, t)
			}
		}
	}
	if res.Ledger != nil {
		printLedger(w, res)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// printLedger prints the layers ranked by cost per row.
func printLedger(w io.Writer, res *runResult) {
	l := res.Ledger
	fmt.Fprintf(w, "-- ledger %s: one producer spends %.0f ns per row (traced pass)\n", res.Workload, l.BaseNsPerRow)
	fmt.Fprintf(w, "%-34s %12s %8s  %-8s %s\n", "layer", "ns/row", "share", "source", "path")
	for _, r := range l.Rows {
		path, share := "on", fmt.Sprintf("%7.1f%%", 100*r.Share)
		if !r.OnPath {
			// Off-path time is spent (or waited) on other goroutines; it is
			// not a share of the producer's time.
			path, share = "off", "       -"
		}
		fmt.Fprintf(w, "%-34s %12.1f %s  %-8s %s\n", r.Layer, r.NsPerRow, share, r.Source, path)
	}
	fmt.Fprintf(w, "%-34s %12s %7.1f%%\n%-34s %12s %7.1f%%\n", "attributed", "", 100*l.Attributed,
		"unattributed", "", 100*l.Unattributed)
	fmt.Fprintf(w, "%-34s %12s %7.2f%%\n", "trace.overhead_pct", "", res.Metrics["trace.overhead_pct"].Value)
}

// suiteResult is what a full run writes to bench/out/<UTC>_<sha>.json.
type suiteResult struct {
	UTC   string       `json:"utc"`
	SHA   string       `json:"sha"`
	Dirty bool         `json:"dirty"`
	Seed  int64        `json:"seed"`
	Runs  []*runResult `json:"runs"`
}

// gitState names the commit being measured; outside a git checkout the sha
// is "nogit".
func gitState() (sha string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "nogit", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err != nil || len(strings.TrimSpace(string(status))) > 0
}

// runSuite runs each workload's two runs in child processes of their own,
// so that peak memory and allocation counts belong to one workload, and
// gathers their results.
func runSuite(defs []*workloadDef, common []string, seed int64, outDir, out string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sha, dirty := gitState()
	suite := suiteResult{UTC: time.Now().UTC().Format("20060102T150405Z"), SHA: sha, Dirty: dirty, Seed: seed}
	code := 0
	for _, w := range defs {
		for traceMode := 0; traceMode <= 1; traceMode++ {
			part := filepath.Join(outDir, fmt.Sprintf(".%s.trace%d.json", w.name, traceMode))
			childArgs := append(append([]string(nil), common...),
				"-workload", w.name, "-trace", fmt.Sprint(traceMode), "-out", part)
			cmd := exec.Command(self, childArgs...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s --trace %d: %v\n", w.name, traceMode, err)
				code = 1
			}
			var res runResult
			buf, err := os.ReadFile(part)
			os.Remove(part)
			if err != nil || json.Unmarshal(buf, &res) != nil {
				fmt.Fprintf(stderr, "bench: %s --trace %d left no result\n", w.name, traceMode)
				code = 1
				continue
			}
			suite.Runs = append(suite.Runs, &res)
		}
	}
	if out == "" {
		name := suite.UTC + "_" + sha
		if dirty {
			// Only results of a clean tree may be committed; a dirty one
			// says so in its name.
			name += "-dirty"
		}
		out = filepath.Join(outDir, name+".json")
	}
	if err := writeJSON(out, &suite); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printSummary(stdout, &suite)
	fmt.Fprintf(stdout, "results written to %s\n", out)
	return code
}

// printSummary closes a suite run with, per workload, the headline numbers
// and the three costliest attributed layers on the producer's path.
func printSummary(w io.Writer, suite *suiteResult) {
	fmt.Fprintf(w, "\n== summary (seed %d, %s%s)\n", suite.Seed, suite.SHA, map[bool]string{true: ", dirty tree"}[suite.Dirty])
	byName := map[string][2]*runResult{}
	var order []string
	for _, r := range suite.Runs {
		pair, seen := byName[r.Workload]
		if !seen {
			order = append(order, r.Workload)
		}
		pair[r.Trace&1] = r
		byName[r.Workload] = pair
	}
	for _, name := range order {
		timed, traced := byName[name][0], byName[name][1]
		if timed != nil {
			m := timed.Metrics
			fmt.Fprintf(w, "%-13s %9.0f rows/s  ack p50 %.3f ms  delivery p50 %.3f ms p95 %.3f ms  %.1f allocs/row  failed %d/%d\n",
				name, m["rows_per_s"].Value, m["append_ack_p50_ms"].Value, m["delivery_p50_ms"].Value,
				m["delivery_p95_ms"].Value, m["allocs_per_row"].Value, timed.Failed, timed.Attempted)
		}
		if traced == nil || traced.Ledger == nil {
			continue
		}
		top := 0
		for _, r := range traced.Ledger.Rows {
			if !r.OnPath || r.Source == "self" || top == 3 {
				continue
			}
			top++
			fmt.Fprintf(w, "%-13s   top %d: %-32s %9.1f ns/row %5.1f%%\n", "", top, r.Layer, r.NsPerRow, 100*r.Share)
		}
		fmt.Fprintf(w, "%-13s   unattributed %.1f%%, tracing overhead %.2f%%\n", "",
			100*traced.Ledger.Unattributed, traced.Metrics["trace.overhead_pct"].Value)
	}
}
