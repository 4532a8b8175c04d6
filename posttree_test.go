//go:build go1.24

package streamrel

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestPostTreePinsNoFire: a continuous query's post stage is one operator
// tree, built at its first close and opened again at every close after, and
// what it keeps between closes holds no row. While the query still runs, the
// rows a close delivered — and the slice they came in — are collectable once
// the subscriber drops them: no container of the tree, no group its
// aggregate recycles and no scratch of the feed that fired it keeps one. On
// an enrichment query over a store, over a time and over a row window, and
// on one that re-executes.
func TestPostTreePinsNoFire(t *testing.T) {
	advance := func(e *Engine, at time.Time) { e.AdvanceTime("hits", at) }
	for _, c := range []struct {
		name, window string
		override     StateOverride
		close        func(e *Engine, at time.Time)
	}{
		{"store", `<VISIBLE '10 seconds' ADVANCE '10 seconds'>`, StateAuto, advance},
		{"rows", `<VISIBLE 2 ROWS ADVANCE 2 ROWS>`, StateAuto, func(*Engine, time.Time) {}},
		{"reexec", `<VISIBLE 2 ROWS ADVANCE 2 ROWS>`, StateReexec, func(*Engine, time.Time) {}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := Open(Config{StateOverride: c.override})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
			mustExec(t, e, `CREATE TABLE urls (url varchar, category varchar)`)
			mustExec(t, e, `INSERT INTO urls VALUES ('/a', 'x'), ('/b', 'y')`)
			cq, err := e.Subscribe(`SELECT u.category, count(*) AS n, sum(h.bytes) AS total FROM hits h ` + c.window + `, urls u
				WHERE h.url = u.url GROUP BY u.category`)
			if err != nil {
				t.Fatal(err)
			}
			if (cq.Strategy == "reexec") != (c.override == StateReexec) {
				t.Fatalf("strategy %s", cq.Strategy)
			}
			base := time.UnixMicro(ivmBase)
			fire := func(k int) Batch {
				at := base.Add(time.Duration(k) * 10 * time.Second)
				if err := e.Append("hits", Row{String("/a"), Timestamp(at), Int(1)}, Row{String("/b"), Timestamp(at), Int(2)}); err != nil {
					t.Fatal(err)
				}
				c.close(e, at.Add(10*time.Second))
				b, ok := cq.TryNext()
				if !ok || len(b.Rows) != 2 {
					t.Fatalf("close %d delivered %v, %v", k, b, ok)
				}
				return b
			}
			fire(0)
			b := fire(1) // through a tree opened again
			rows, slice := weak.Make(&b.Rows[0][0]), weak.Make(&b.Rows[0])
			b = Batch{}
			runtime.GC()
			runtime.GC()
			if rows.Value() != nil || slice.Value() != nil {
				t.Fatalf("the running query keeps what a close delivered reachable: rows %v, slice %v", rows.Value() != nil, slice.Value() != nil)
			}
			fire(2) // it does still run
			cq.Close()
		})
	}
}
