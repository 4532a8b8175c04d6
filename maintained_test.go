package streamrel

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"streamrel/internal/catalog"
	"streamrel/internal/exec"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/sql/sqlgen"
	"streamrel/internal/storage"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// maintainedQuery writes one aggregate over genTables' g, alone or joined to
// d, around the expressions g draws — grouped, scalar, a float sum, an
// aggregate with no inverse — some sorted and limited.
func maintainedQuery(g *sqlgen.Gen) string {
	expr := func() string { return g.Expr(sql.PrecAdd, 2) }
	cond, where := "TRUE", ""
	if g.Pick(3) > 0 {
		cond = g.Expr(sql.PrecOr, 2)
		where = " WHERE " + cond
	}
	var q string
	switch g.Pick(4) {
	case 0:
		q = "SELECT g.url, count(*), sum(" + expr() + "), min(" + expr() + "), sum(g.v * 0.1) FROM g" + where + " GROUP BY g.url"
	case 1:
		q = "SELECT count(*), avg(" + expr() + "), max(" + expr() + "), stddev(g.w) FROM g" + where
	case 2:
		q = "SELECT d.cat, count(*), max(" + expr() + "), sum(g.w * 0.01) FROM g JOIN d ON g.url = d.url" + where + " GROUP BY d.cat"
	default:
		q = "SELECT d.cat, g.url, count(DISTINCT g.v), first(" + expr() + ") FROM g, d WHERE g.url = d.url AND (" + cond +
			") GROUP BY d.cat, g.url HAVING count(*) > " + g.One("0", "3")
	}
	if g.Pick(2) == 1 {
		q += " ORDER BY 2 DESC, 1 LIMIT " + g.One("1", "3", "1000")
	}
	return q
}

// maintainedQueries returns the SQL suite's aggregates — the suite's tables
// created, its writes done — and n generated by maintainedQuery over
// genTables' tables that plan, with how many of them all plan a maintained
// aggregate.
func maintainedQueries(t *testing.T, e *Engine, n int) (queries []string, maintained int) {
	t.Helper()
	if err := e.ExecScript(sqlSuiteSetup); err != nil {
		t.Fatal(err)
	}
	add := func(q string) bool {
		stmt, err := sql.ParseArgs(q, nil)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		p, err := e.snapshotPlan(stmt)
		if err != nil {
			return false
		}
		_, stats := exec.Instrument(p.Build(&plan.Input{}))
		agg := false
		for _, st := range stats {
			agg = agg || st.Name == "HashAgg"
			if st.Detail == "(maintained)" {
				maintained++
				break
			}
		}
		if agg {
			queries = append(queries, q)
		}
		return agg
	}
	for _, c := range sqlSuiteCases {
		if c.exec {
			mustExec(t, e, c.sql)
		} else {
			add(c.sql)
		}
	}
	genTables(t, e)
	for seed, ran := int64(0), 0; ran < n; seed++ {
		if seed == 20*int64(n) {
			t.Fatalf("%d of %d generated queries planned", ran, seed)
		}
		if add(maintainedQuery(genSeed(seed))) {
			ran++
		}
	}
	return queries, maintained
}

// perCall runs q under ctx as a statement planned for this call alone does:
// a tree of its own, no build side kept and no aggregate maintained.
func perCall(e *Engine, ctx *exec.Ctx, q string) string {
	stmt, err := sql.ParseArgs(q, nil)
	if err != nil {
		return "error: " + err.Error()
	}
	p, err := e.snapshotPlan(stmt)
	if err != nil {
		return "error: " + err.Error()
	}
	rows, err := exec.Drain(&exec.Ctx{Snap: ctx.Snap, Now: ctx.Now}, p.Build(&plan.Input{}), 0)
	return renderRows(rows, err)
}

func renderRows(rows []types.Row, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String() + "\n")
	}
	return sb.String()
}

// cachedCall runs q under ctx through the plan cache, as QueryArgs does.
func cachedCall(e *Engine, ctx *exec.Ctx, q string) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	res, err := e.query(ctx, q, nil)
	if err != nil {
		return renderRows(nil, err)
	}
	return renderRows(res.Data, nil)
}

// TestMaintainedAggregateEquivalence: the SQL suite's aggregates and 200
// generated ones over a table, alone and joined to a second, run through the
// plan cache — whose trees keep their join's build side and fold what was
// appended into their aggregates — and planned per call, the uncached oracle;
// the two are byte-identical under each snapshot after each step of a random
// tape of INSERT, BulkInsert, DELETE, UPDATE, aborted transactions, a
// transaction held open across calls, Vacuum and a replicated insert that
// fills a gap below the next RowID, and under an older snapshot after a
// newer one.
func TestMaintainedAggregateEquivalence(t *testing.T) {
	e := openMem(t)
	n := 200
	if racing {
		n = 20 // -race runs TestMaintainedAggregateUnderWriter for the concurrency
	}
	queries, maintained := maintainedQueries(t, e, n)
	t.Logf("%d queries, %d of them maintained", len(queries), maintained)
	if maintained < 3*len(queries)/4 {
		t.Fatalf("only %d of %d queries plan a maintained aggregate", maintained, len(queries))
	}
	g, _ := e.cat.Table("g")
	d, _ := e.cat.Table("d")
	rng := rand.New(rand.NewSource(1))
	gRows := func(n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{String(fmt.Sprintf("/u%d", rng.Intn(6))), Int(int64(rng.Intn(40) - 10)), Int(int64(1 + rng.Intn(9)))}
		}
		return rows
	}
	write := func(tbl *catalog.Table, runs []wal.RowIDRun, rows []Row) *writeTxn {
		w := e.beginWrite()
		if err := w.insert(tbl, runs, rows); err != nil {
			t.Fatal(err)
		}
		return w
	}
	check := func(ctx *exec.Ctx, what string) {
		t.Helper()
		for _, q := range queries {
			if got, want := cachedCall(e, ctx, q), perCall(e, ctx, q); got != want {
				t.Fatalf("%s: %s\ncached:\n%s\nplanned per call:\n%s", what, q, got, want)
			}
		}
	}
	old := e.execCtx()
	var held *writeTxn
	for step, op := range rng.Perm(9) { // every step once, in a random order
		var what string
		switch op {
		case 0:
			what = "INSERT"
			mustExec(t, e, fmt.Sprintf(`INSERT INTO g VALUES ('/u%d', %d, %d), ('/u2', 3, 4)`, rng.Intn(6), rng.Intn(30), 1+rng.Intn(9)))
		case 1:
			what = "BulkInsert"
			if err := e.BulkInsert("g", gRows(1+rng.Intn(300))); err != nil {
				t.Fatal(err)
			}
		case 2:
			what = "DELETE"
			mustExec(t, e, fmt.Sprintf(`DELETE FROM g WHERE v = %d`, rng.Intn(30)-10))
		case 3:
			what = "UPDATE"
			mustExec(t, e, fmt.Sprintf(`UPDATE g SET w = w + 1 WHERE v = %d`, rng.Intn(30)-10))
		case 4:
			what = "an aborted transaction"
			w := write(g, nil, gRows(5))
			w.deleteRow(g, storage.RowID(rng.Intn(int(g.Heap.NextID())))) // refused if deleted already
			w.fail(errors.New("aborted"))
		case 5:
			what = "a transaction left open across a call"
			held = write(g, nil, gRows(3))
		case 6:
			what = "Vacuum"
			for _, tbl := range []*catalog.Table{g, d} {
				tbl.Heap.Vacuum(old.Snap, nil)
			}
		case 7:
			what = "a replicated insert into a gap below the next RowID"
			gap := g.Heap.NextID()
			g.Heap.EnsureNext(gap + 2)
			if err := e.BulkInsert("g", gRows(4)); err != nil {
				t.Fatal(err)
			}
			check(e.execCtx(), fmt.Sprintf("step %d, past a gap", step)) // the calls keep a mark above it
			if err := write(g, []wal.RowIDRun{{First: uint64(gap), N: 2}}, gRows(2)).commit(); err != nil {
				t.Fatal(err)
			}
		default:
			what = "a dimension row and the suite's tables"
			mustExec(t, e, fmt.Sprintf(`INSERT INTO d VALUES ('/u%d', 'c%d')`, rng.Intn(6), rng.Intn(3)))
			if err := e.ExecScript(fmt.Sprintf(`INSERT INTO nums VALUES (%d, %d.5, 'x'); INSERT INTO pairs VALUES (%d, 'z')`, rng.Intn(9), rng.Intn(9), rng.Intn(6))); err != nil {
				t.Fatal(err)
			}
		}
		// The older snapshot first: each step's writes meet what the calls of
		// the step before kept.
		if step%2 == 1 {
			check(old, fmt.Sprintf("step %d, after %s, an older snapshot", step, what))
		}
		ctx := e.execCtx()
		check(ctx, fmt.Sprintf("step %d, after %s", step, what))
		if held != nil {
			if err := held.commit(); err != nil {
				t.Fatal(err)
			}
			held = nil
			check(e.execCtx(), fmt.Sprintf("step %d, after its commit", step))
		}
		if step%3 == 2 {
			old = ctx
		}
	}
}

// TestMaintainedAggregateUnderWriter: with a writer appending to g, deleting
// from it and changing d, concurrent callers share the cached trees of
// maintained aggregates, and each call reads what a statement planned for it
// alone reads at the same snapshot (run under -race by make drain-policies).
func TestMaintainedAggregateUnderWriter(t *testing.T) {
	e := openMem(t)
	queries, _ := maintainedQueries(t, e, 20)
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for n := 0; n < 400; n++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch n % 10 {
			case 9:
				_, err = e.Exec(fmt.Sprintf(`DELETE FROM g WHERE v = %d`, n%40-10))
			case 5:
				_, err = e.Exec(fmt.Sprintf(`INSERT INTO d VALUES ('/u%d', 'c%d')`, n%6, n%3))
			default:
				err = e.BulkInsert("g", []Row{{String(fmt.Sprintf("/u%d", n%6)), Int(int64(n%40 - 10)), Int(int64(1 + n%9))}})
			}
			if err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	for r := range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := range 60 {
				q := queries[(r*60+i)%len(queries)]
				ctx := e.execCtx()
				if got, want := cachedCall(e, ctx, q), perCall(e, ctx, q); got != want {
					t.Errorf("%s:\ncached:\n%s\nplanned per call at the same snapshot:\n%s", q, got, want)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestMaintainedAggregateReadsNoArgument: an aggregate below which a $n is
// read — in WHERE, a group key, an aggregate's argument, a join's ON clause
// or a subquery's select list — is not maintained, so a cached call with other
// arguments reads what a statement planned for those arguments does; a $n
// above it, in HAVING, leaves it maintained.
func TestMaintainedAggregateReadsNoArgument(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE big (k bigint, v bigint)`)
	mustExec(t, e, `CREATE TABLE small (k bigint, name varchar)`)
	mustExec(t, e, `INSERT INTO small VALUES (1, 'a'), (2, 'b'), (3, 'c')`)
	rows := make([]Row, 3000)
	for i := range rows {
		rows[i] = Row{Int(int64(i % 4)), Int(int64(i))}
	}
	if err := e.BulkInsert("big", rows); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT k, count(*) FROM big WHERE v > $1 GROUP BY k`,
		`SELECT k + $1, count(*) FROM big GROUP BY k + $1`,
		`SELECT k, sum(v * $1) FROM big GROUP BY k`,
		`SELECT name, count(*) FROM big JOIN small ON big.k = small.k - $1 GROUP BY name`,
		`SELECT k, max(w) FROM (SELECT k, v + $1 AS w FROM big) s GROUP BY k`,
		`SELECT k, count(*) FROM big GROUP BY k HAVING count(*) > $1`,
	} {
		for _, arg := range []int64{1, 2, 700, 1} {
			args := []Value{Int(arg)}
			got, err := e.QueryArgs(q, args...)
			if err != nil {
				t.Fatalf("%s %v: %v", q, args, err)
			}
			stmt, err := sql.ParseArgs(q, args)
			if err != nil {
				t.Fatal(err)
			}
			p, err := e.snapshotPlan(stmt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := exec.Drain(e.execCtx(), p.Build(&plan.Input{}), 0)
			if a, b := renderRows(got.Data, nil), renderRows(want, err); a != b {
				t.Fatalf("%s %v: cached\n%s\nplanned per call\n%s", q, args, a, b)
			}
		}
	}
}
