package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// loadRuns reads result files (a suite's, or a single run's written with
// -out) and groups their runs by workload and run kind.
func loadRuns(list string) (map[string][]*runResult, error) {
	out := map[string][]*runResult{}
	for _, path := range strings.Split(list, ",") {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var suite suiteResult
		if err := json.Unmarshal(buf, &suite); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(suite.Runs) == 0 {
			var one runResult
			if err := json.Unmarshal(buf, &one); err != nil || one.Workload == "" {
				return nil, fmt.Errorf("%s: neither a suite result nor a run result", path)
			}
			suite.Runs = []*runResult{&one}
		}
		for _, r := range suite.Runs {
			key := fmt.Sprintf("%s/%d", r.Workload, r.Trace)
			out[key] = append(out[key], r)
		}
	}
	return out, nil
}

func valuesOf(runs []*runResult, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// spreadFile is bench/spread.json: the same-code spread of each end-to-end
// metric per workload, measured on the reference box (see README.md). It is
// the fallback when -compare is given a single file per side.
type spreadFile map[string]map[string]float64

// runCompare prints, per workload and metric, old → new with the change and
// a verdict against the bound in BENCHMARK.json: ok, worse, or unresolved
// when the spread of same-code runs is wider than the bound. With several
// files per side it compares medians and takes the spread from the old
// side's own runs.
func runCompare(oldList, newList string, stdout, stderr io.Writer) int {
	olds, err := loadRuns(oldList)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	news, err := loadRuns(newList)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return compareRuns(olds, news, stdout, stderr)
}

func compareRuns(olds, news map[string][]*runResult, stdout, stderr io.Writer) int {
	bounds := map[string]metricSpec{}
	for _, s := range endToEnd {
		bounds[s.Name] = s
	}
	if buf, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if json.Unmarshal(buf, &bf) == nil {
			for _, s := range bf.EndToEnd {
				bounds[s.Name] = s
			}
		}
	} else {
		fmt.Fprintln(stderr, "bench: BENCHMARK.json not found here; using the bounds compiled in")
	}
	recorded := spreadFile{}
	if buf, err := os.ReadFile("bench/spread.json"); err == nil {
		json.Unmarshal(buf, &recorded) //nolint:errcheck // an unreadable file means no recorded spreads
	}

	for _, s := range advisory {
		bounds[s.Name] = s
	}
	worse := 0
	for _, w := range workloads {
		o, n := olds[w.name+"/0"], news[w.name+"/0"]
		if len(o) > 0 && len(n) > 0 {
			fmt.Fprintf(stdout, "== %s (%d old, %d new runs)\n%-22s %14s %14s %9s %8s %8s  %s\n", w.name, len(o), len(n),
				"metric", "old", "new", "change", "bound", "spread", "verdict")
			for i, s := range append(append([]metricSpec(nil), endToEnd...), advisory...) {
				bounded := i < len(endToEnd)
				ov, nv := valuesOf(o, s.Name), valuesOf(n, s.Name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				om, nm := medianOf(ov), medianOf(nv)
				change := ratio(nm-om, math.Abs(om))
				worsening := change
				if s.Better == "higher" {
					worsening = -change
				}
				spread, have := quartileSpread(ov), len(ov) >= 3
				if !have {
					spread, have = recorded[w.name][s.Name], recorded[w.name] != nil
				}
				bound := bounds[s.Name].Bound
				verdict := "ok"
				switch {
				case have && spread > bound:
					verdict = "unresolved"
				case worsening > bound && bounded:
					verdict = "worse"
					worse++
				case worsening > bound:
					verdict = "worse (advisory)"
				}
				sp := "n/a"
				if have {
					sp = fmt.Sprintf("%.1f%%", 100*spread)
				}
				fmt.Fprintf(stdout, "%-22s %14.4f %14.4f %+8.1f%% %7.0f%% %8s  %s\n",
					s.Name, om, nm, 100*change, 100*bound, sp, verdict)
			}
			for _, r := range n {
				if r.Failed > 0 {
					fmt.Fprintf(stdout, "%-22s %d of %d operations failed in a new run: every latency bound counts as missed\n",
						"ops_failed", r.Failed, r.Attempted)
					worse++
				}
			}
		}
		compareLayers(w, olds[w.name+"/1"], news[w.name+"/1"], stdout)
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// compareLayers names the ledger layer whose cost per row moved most and
// prints any EXPLAIN strategy line that changed, next to the numbers it may
// have moved.
func compareLayers(w *workloadDef, o, n []*runResult, stdout io.Writer) {
	if len(o) == 0 || len(n) == 0 {
		return
	}
	layerNs := func(runs []*runResult) map[string]float64 {
		byLayer := map[string][]float64{}
		for _, r := range runs {
			if r.Ledger == nil {
				continue
			}
			for _, row := range r.Ledger.Rows {
				key := row.Layer
				if !row.OnPath {
					key += " (off path)"
				}
				byLayer[key] = append(byLayer[key], row.NsPerRow)
			}
		}
		out := map[string]float64{}
		for k, v := range byLayer {
			out[k] = medianOf(v)
		}
		return out
	}
	ol, nl := layerNs(o), layerNs(n)
	moved, delta := "", 0.0
	for k, ov := range ol {
		if d := nl[k] - ov; math.Abs(d) > math.Abs(delta) {
			moved, delta = k, d
		}
	}
	if moved != "" {
		fmt.Fprintf(stdout, "%s: layer that moved most: %s %.1f → %.1f ns/row (%+.1f)\n",
			w.name, moved, ol[moved], nl[moved], delta)
	}
	oldLines := map[string]string{}
	for _, e := range o[len(o)-1].Explain {
		oldLines[e.Name] = strings.Join(e.Lines, "\n")
	}
	for _, e := range n[len(n)-1].Explain {
		if was, ok := oldLines[e.Name]; ok && was != strings.Join(e.Lines, "\n") {
			fmt.Fprintf(stdout, "%s: EXPLAIN of %s changed:\n  old: %s\n  new: %s\n", w.name, e.Name,
				strings.ReplaceAll(was, "\n", "\n       "), strings.ReplaceAll(strings.Join(e.Lines, "\n"), "\n", "\n       "))
		}
	}
}
