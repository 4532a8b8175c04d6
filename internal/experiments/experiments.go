// Package experiments implements the paper's evaluation suite. The CIDR
// paper is a vision paper with one conceptual figure and one quantified
// case study; DESIGN.md §4 maps every figure and quantified claim to an
// experiment here (F1, E1–E8). cmd/srbench prints each experiment's table;
// bench_test.go mirrors them as testing.B benchmarks.
//
// All experiments run the real engine end to end: the "store-first" side
// is the same engine used batch-style (bulk load, then snapshot query), so
// comparisons isolate the architectural variable rather than
// implementation quality.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one experiment's result, printable as the paper would report
// it.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale adjusts experiment sizes: 1.0 is the default laptop-scale run;
// benchmarks use smaller scales.
type Scale float64

func (s Scale) n(base int) int {
	v := int(float64(base) * float64(s))
	if v < 1 {
		return 1
	}
	return v
}

// fmtDur renders a duration with enough precision to compare across many
// orders of magnitude.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return d.Round(time.Second).String()
	}
}

func fmtRate(n int, d time.Duration) string {
	if d <= 0 {
		return "∞"
	}
	r := float64(n) / d.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2fM/s", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk/s", r/1e3)
	default:
		return fmt.Sprintf("%.0f/s", r)
	}
}

func fmtX(x float64) string {
	switch {
	case x >= 100:
		return fmt.Sprintf("%.0f×", x)
	default:
		return fmt.Sprintf("%.1f×", x)
	}
}

// Index is the one list of experiments: cmd/srbench's -list, -only and
// dispatch, All and the test all range over it. F1 and E1–E8 reproduce the
// paper's figure and quantified claims; every engineering number is bench/'s
// (see EXPERIMENTS.md).
var Index = []struct {
	ID, What string
	Run      func(Scale) (*Table, error)
}{
	{"F1", "Figure 1: windows produce a sequence of tables — window kinds, correctness, throughput", F1},
	{"E1", "§4 case study: network-security report, store-first vs continuous (the 'orders of magnitude' claim)", E1},
	{"E2", "§1.1 growth sweep: report latency vs event volume", E2},
	{"E3", "§2.2 shared 'Jellybean' processing: k CQs shared vs unshared", E3},
	{"E4", "§5 materialized views: periodic refresh vs Active Tables (cost + staleness)", E4},
	{"E5", "§3.3/§6 stream-table joins: enrichment and Example 5 historical comparison", E5},
	{"E6", "§4 recovery: rebuild from Active Tables vs recompute from raw archive", E6},
	{"E7", "§5 map/reduce comparison: successive refreshes over a growing log", E7},
	{"E8", "§1.2 result-availability delay: batch period vs 1-minute windows", E8},
}

// All runs every experiment at the given scale.
func All(s Scale) ([]*Table, error) {
	out := make([]*Table, 0, len(Index))
	for _, e := range Index {
		t, err := e.Run(s)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
