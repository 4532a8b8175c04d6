package streamrel

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// typed renders a row's values, each with its type.
func typed(row Row) string {
	var b strings.Builder
	for _, v := range row {
		fmt.Fprintf(&b, " %s:%s", v.Type(), v)
	}
	return b.String()
}

// TestTypedLanesMatchGenericCQ: a CQ whose sums read a base stream's BIGINT,
// DOUBLE and INTERVAL columns and coalesce(i, f) fires, at every close, each
// group's counts and sums as a re-sum of the rows its window holds makes them,
// each sum of the type CQ.Columns declares (coalesce's DOUBLE) — on the stores
// and re-executing, at ParallelCQ 0 and 4, over a sliding window whose groups
// empty and whose values hold NULLs and, in the DOUBLE column, BIGINTs the
// stream casts. The DOUBLEs are quarters, whose sums retraction leaves exact.
func TestTypedLanesMatchGenericCQ(t *testing.T) {
	const q = `SELECT k, count(*), count(i), sum(i), count(f), sum(f), sum(d), sum(coalesce(i, f))
		FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY k`
	const visible, advance = 30 * time.Second, 10 * time.Second
	base := MustTimestamp("2009-01-04 00:00:00")
	for _, mode := range []string{"incremental", "reexec"} {
		for _, parallel := range []int{0, 4} {
			e := openMemModeCfg(t, mode, Config{ParallelCQ: parallel})
			mustExec(t, e, `CREATE STREAM s (k varchar, at timestamp CQTIME USER, i bigint, f double, d interval)`)
			cq, err := e.Subscribe(q)
			if err != nil {
				t.Fatal(err)
			}
			if cq.Strategy != mode {
				t.Fatalf("%s: the CQ runs %s", mode, cq.Strategy)
			}
			if got := fmt.Sprint(cq.Columns); !strings.Contains(got, "sum BIGINT") || strings.Count(got, "sum DOUBLE") != 2 || !strings.Contains(got, "sum INTERVAL") {
				t.Fatalf("the CQ declares %s", got)
			}
			rng := rand.New(rand.NewSource(7))
			at, k := time.Duration(0), ""
			maybe := func(v Value) Value {
				if k == "/k4" || rng.Intn(4) == 0 { // /k4's sums are NULL
					return Null
				}
				return v
			}
			var sent []Row
			for n := 0; n < 600; n++ {
				at += time.Duration(rng.Intn(400)) * time.Millisecond
				f := Float(float64(rng.Intn(2000)-1000) / 4)
				if rng.Intn(3) == 0 {
					f = Int(int64(rng.Intn(100))) // cast to DOUBLE on append
				}
				k = fmt.Sprintf("/k%d", (int(at/(10*time.Second))+rng.Intn(3))%5)
				row := Row{String(k), Timestamp(base.Add(at)), maybe(Int(rng.Int63n(1<<40) - 1<<39)),
					maybe(f), maybe(Interval(time.Duration(rng.Intn(1e6)) * time.Microsecond))}
				if err := e.Append("s", row); err != nil {
					t.Fatal(err)
				}
				sent = append(sent, row)
			}
			if err := e.AdvanceTime("s", base.Add(at+time.Minute)); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			// resum is the window closing at c, each group's rows summed afresh.
			resum := func(c time.Time) []string {
				type sums struct {
					n, ni, nf, nd, nc int64
					i, d              int64
					f, c              float64
				}
				groups := map[string]*sums{}
				for _, r := range sent {
					if ts := r[1].Time(); ts.Before(c.Add(-visible)) || !ts.Before(c) {
						continue
					}
					g := groups[r[0].Str()]
					if g == nil {
						g = &sums{}
						groups[r[0].Str()] = g
					}
					g.n++
					if !r[2].IsNull() {
						g.ni, g.i, g.nc, g.c = g.ni+1, g.i+r[2].Int(), g.nc+1, g.c+float64(r[2].Int())
					}
					if !r[3].IsNull() {
						g.nf, g.f = g.nf+1, g.f+r[3].Float()
						if r[2].IsNull() {
							g.nc, g.c = g.nc+1, g.c+r[3].Float()
						}
					}
					if !r[4].IsNull() {
						g.nd, g.d = g.nd+1, g.d+r[4].IntervalMicros()
					}
				}
				var out []string
				for key, g := range groups {
					or := func(n int64, v Value) Value {
						if n == 0 {
							return Null
						}
						return v
					}
					out = append(out, typed(Row{String(key), Int(g.n), Int(g.ni), or(g.ni, Int(g.i)), Int(g.nf), or(g.nf, Float(g.f)),
						or(g.nd, Interval(time.Duration(g.d)*time.Microsecond)), or(g.nc, Float(g.c))}))
				}
				slices.Sort(out)
				return out
			}
			fired := map[time.Time][]string{}
			for _, batch := range cq.Drain() {
				for _, row := range batch.Rows {
					fired[batch.Close] = append(fired[batch.Close], typed(row))
				}
			}
			closes, nulls := 0, false
			for c := base.Add(advance); !c.After(base.Add(at + time.Minute)); c = c.Add(advance) {
				got, want := fired[c], resum(c)
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, ParallelCQ %d, close %s: the CQ fired\n%s\na re-sum of the window makes\n%s", mode, parallel, c,
						strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
				if len(want) > 0 {
					closes++
				}
				nulls = nulls || strings.Contains(strings.Join(want, ""), "NULL")
			}
			if closes < 12 || !nulls {
				t.Fatalf("%s, ParallelCQ %d: %d closes, NULLs %v: the tape is too short", mode, parallel, closes, nulls)
			}
		}
	}
}
