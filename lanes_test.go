package streamrel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// typedTranscript renders every batch a CQ fired, each value with its type.
func typedTranscript(cq *CQ) string {
	var b strings.Builder
	for _, batch := range cq.Drain() {
		fmt.Fprintf(&b, "close %s\n", batch.Close.UTC().Format(time.RFC3339Nano))
		for _, row := range batch.Rows {
			for _, v := range row {
				fmt.Fprintf(&b, " %s:%s", v.Type(), v)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestTypedLanesMatchGenericCQ: a CQ whose sums read a base stream's BIGINT,
// DOUBLE and INTERVAL columns, which take the typed lanes, fires a transcript
// byte for byte the one of the same CQ whose sums read coalesce(x, x), which
// keeps the generic lane — on the stores and re-executing, at ParallelCQ 0 and
// 4, over a sliding window whose groups empty and whose values hold NULLs and,
// in the DOUBLE column, BIGINTs the stream casts.
func TestTypedLanesMatchGenericCQ(t *testing.T) {
	const typed = `SELECT k, count(*), count(i), sum(i), count(f), sum(f), sum(d)
		FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY k`
	const generic = `SELECT k, count(*), count(i), sum(coalesce(i, i)), count(f), sum(coalesce(f, f)), sum(coalesce(d, d))
		FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY k`
	base := MustTimestamp("2009-01-04 00:00:00")
	for _, mode := range []string{"incremental", "reexec"} {
		for _, parallel := range []int{0, 4} {
			e := openMemModeCfg(t, mode, Config{ParallelCQ: parallel})
			mustExec(t, e, `CREATE STREAM s (k varchar, at timestamp CQTIME USER, i bigint, f double, d interval)`)
			var cqs [2]*CQ
			for n, q := range []string{typed, generic} {
				cq, err := e.Subscribe(q)
				if err != nil {
					t.Fatal(err)
				}
				if cq.Strategy != mode {
					t.Fatalf("%s: %s runs %s", mode, q, cq.Strategy)
				}
				cqs[n] = cq
			}
			rng := rand.New(rand.NewSource(7))
			at, k := time.Duration(0), ""
			maybe := func(v Value) Value {
				if k == "/k4" || rng.Intn(4) == 0 { // /k4's sums are NULL
					return Null
				}
				return v
			}
			for n := 0; n < 600; n++ {
				at += time.Duration(rng.Intn(400)) * time.Millisecond
				f := Float(float64(rng.Intn(2000)-1000) / 7)
				if rng.Intn(3) == 0 {
					f = Int(int64(rng.Intn(100))) // cast to DOUBLE on append
				}
				k = fmt.Sprintf("/k%d", (int(at/(10*time.Second))+rng.Intn(3))%5)
				if err := e.Append("s", Row{String(k), Timestamp(base.Add(at)), maybe(Int(rng.Int63n(1<<40) - 1<<39)),
					maybe(f), maybe(Interval(time.Duration(rng.Intn(1e6)) * time.Microsecond))}); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.AdvanceTime("s", base.Add(at+time.Minute)); err != nil {
				t.Fatal(err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			got, want := typedTranscript(cqs[0]), typedTranscript(cqs[1])
			if got != want {
				t.Fatalf("%s, ParallelCQ %d: the typed lanes fired\n%s\nthe generic ones\n%s", mode, parallel, got, want)
			}
			if closes := strings.Count(got, "close "); closes < 15 || !strings.Contains(got, "NULL") {
				t.Fatalf("%s, ParallelCQ %d: %d closes, NULLs %v: the tape is too short", mode, parallel, closes, strings.Contains(got, "NULL"))
			}
		}
	}
}
