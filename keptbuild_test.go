//go:build go1.24

package streamrel

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"streamrel/internal/exec"
)

// TestKeptBuildReleasedOnClose: the build side an enrichment post stage
// keeps between closes belongs to the CQ's plan — nothing in the engine
// caches it — so it is reachable while the CQ runs and gone once the CQ is
// closed and dropped.
func TestKeptBuildReleasedOnClose(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
	mustExec(t, e, `CREATE TABLE urls (url varchar, category varchar)`)
	mustExec(t, e, `INSERT INTO urls VALUES ('/a', 'x'), ('/b', 'y')`)
	cq, err := e.Subscribe(`SELECT u.category, count(*) AS n FROM hits h <VISIBLE '10 seconds' ADVANCE '10 seconds'>, urls u
		WHERE h.url = u.url GROUP BY u.category`)
	if err != nil {
		t.Fatal(err)
	}
	base := time.UnixMicro(ivmBase)
	if err := e.Append("hits", Row{String("/a"), Timestamp(base), Int(1)}); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTime("hits", base.Add(10*time.Second))
	if got := collectBatches(t, cq); len(got) != 1 {
		t.Fatalf("fired %q", got)
	}
	alive := func() func() bool {
		_, rows := keptBuildOf(t, cq).Kept()
		if len(rows) != 2 {
			t.Fatalf("the close kept %d build rows, want 2", len(rows))
		}
		w := weak.Make(&rows[0])
		return func() bool { return w.Value() != nil }
	}()
	runtime.GC()
	if !alive() {
		t.Fatal("the kept build side was collected while its CQ runs")
	}
	cq.Close()
	cq = nil
	runtime.GC()
	runtime.GC()
	if alive() {
		t.Fatal("the kept build side outlives its CQ")
	}
}

// TestMaintainedAggregatePinsNoDroppedTable: a cached report's idle tree keeps
// its aggregate's groups and its join's build side between calls; once a table
// it reads is dropped, the next statement drops the cached plan, and with it
// both become garbage.
func TestMaintainedAggregatePinsNoDroppedTable(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE fact (k bigint, v bigint)`)
	mustExec(t, e, `CREATE TABLE dim (k bigint, name varchar)`)
	mustExec(t, e, `INSERT INTO dim VALUES (1, 'a'), (2, 'b'), (3, 'a')`)
	rows := make([]Row, 5000)
	for i := range rows {
		rows[i] = Row{Int(int64(i % 4)), Int(int64(i))}
	}
	if err := e.BulkInsert("fact", rows); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT dim.name, count(*), sum(fact.v) FROM fact JOIN dim ON fact.k = dim.k GROUP BY dim.name`
	for range 2 {
		mustQuery(t, e, q)
	}
	agg, build := func() (weak.Pointer[exec.HashAgg], func() bool) {
		idle := e.plans.entries[q].idle
		tree := <-idle
		defer func() { idle <- tree }()
		for op := tree; ; {
			switch o := op.(type) {
			case *exec.Project:
				op = o.Child
			case *exec.HashAgg:
				join := o.Child.(*exec.HashJoin)
				_, kept := join.Keep.Kept()
				if len(kept) != 3 {
					t.Fatalf("the join kept %d build rows, want 3", len(kept))
				}
				w := weak.Make(&kept[0])
				return weak.Make(o), func() bool { return w.Value() != nil }
			default:
				t.Fatalf("no aggregate in the cached tree: %T", op)
			}
		}
	}()
	runtime.GC()
	if agg.Value() == nil || !build() {
		t.Fatal("the idle tree's aggregate or its kept build side was collected while the plan is cached")
	}
	mustExec(t, e, `DROP TABLE dim`)
	mustQuery(t, e, `SELECT 1`)
	runtime.GC()
	runtime.GC()
	if agg.Value() != nil || build() {
		t.Fatalf("after DROP TABLE the aggregate is reachable %v, the kept build side %v", agg.Value() != nil, build())
	}
}
