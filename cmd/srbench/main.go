// Command srbench regenerates the paper's evaluation: every figure and
// quantified claim mapped to an experiment in DESIGN.md §4.
// experiments.Index is the list; every engineering number, and comparing two
// runs, is bench/'s job (bash bench/run.sh -compare).
//
// Usage:
//
//	srbench                 # run everything at full (laptop) scale
//	srbench -scale 0.1      # quicker pass
//	srbench -only E1,E3     # a subset
//	srbench -list           # show the experiment index
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"streamrel/internal/experiments"
)

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
		fmt.Println(table.String())
		fmt.Printf("(%s took %s)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("total: %s\n", time.Since(start).Round(time.Millisecond))
}
