package streamrel

import (
	"strings"
	"testing"
	"time"

	"streamrel/internal/sql"
)

func TestQueryArgs(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE t (a bigint, s varchar)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')`)

	rows, err := e.QueryArgs(`SELECT s FROM t WHERE a = $1`, Int(2))
	if err != nil {
		t.Fatal(err)
	}
	expectData(t, rows, "two")

	rows, err = e.QueryArgs(`SELECT a FROM t WHERE a BETWEEN $1 AND $2 ORDER BY a`, Int(2), Int(3))
	if err != nil {
		t.Fatal(err)
	}
	expectData(t, rows, "2", "3")

	// Reuse of the same placeholder.
	rows, err = e.QueryArgs(`SELECT count(*) FROM t WHERE a = $1 OR length(s) = $1`, Int(3))
	if err != nil {
		t.Fatal(err)
	}
	expectData(t, rows, "3") // a=3, plus 'one' and 'two' (length 3)
}

func TestExecArgs(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE t (a bigint, s varchar)`)
	if _, err := e.ExecArgs(`INSERT INTO t VALUES ($1, $2), ($3, $4)`,
		Int(1), String("x"), Int(2), String("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecArgs(`UPDATE t SET s = $1 WHERE a = $2`, String("z"), Int(1)); err != nil {
		t.Fatal(err)
	}
	expectData(t, mustQuery(t, e, `SELECT s FROM t ORDER BY a`), "z", "y")
	res, err := e.ExecArgs(`DELETE FROM t WHERE a < $1`, Int(10))
	if err != nil || res.RowsAffected != 2 {
		t.Fatalf("delete: %v %v", res, err)
	}
}

func TestSubscribeArgs(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, err := e.SubscribeArgs(`SELECT count(*) FROM s <ADVANCE '1 minute'> WHERE v >= $1`, Int(10))
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	base := MustTimestamp("2009-01-04 00:00:00")
	e.Append("s", Row{Int(5), Timestamp(base.Add(time.Second))})
	e.Append("s", Row{Int(15), Timestamp(base.Add(2 * time.Second))})
	e.AdvanceTime("s", base.Add(time.Minute))
	b, ok := cq.TryNext()
	if !ok || b.Rows[0][0].Int() != 1 {
		t.Fatalf("batch: %+v ok=%v", b, ok)
	}
}

func TestParamErrors(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	if _, err := e.QueryArgs(`SELECT * FROM t WHERE a = $2`, Int(1)); err == nil {
		t.Fatal("out-of-range placeholder")
	}
	if _, err := e.QueryArgs(`SELECT * FROM t WHERE a = $1`, Int(1), Int(2)); err == nil {
		t.Fatal("unused trailing argument")
	}
	if _, err := e.Query(`SELECT * FROM t WHERE a = $1`); err == nil {
		t.Fatal("unbound parameter should error")
	}
	if _, err := e.Query(`SELECT $ FROM t`); err == nil {
		t.Fatal("bare $ should fail to lex")
	}
	if _, err := e.ExecArgs(`CREATE TABLE u (a bigint)`, Int(1)); err == nil {
		t.Fatal("DDL with args should error")
	}
}

// TestParamEquivalence: a statement with its literals lifted to $n reads
// byte for byte what its literal text reads — columns, types and rows, or an
// error for an error — on its first call (planned) and its second (a cached
// tree opened again with the arguments). A $n in LIMIT or a select-list
// position is planned per call with the arguments bound, and is checked the
// same way. Over every query of the SQL suite and 200 generated ones.
func TestParamEquivalence(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(sqlSuiteSetup); err != nil {
		t.Fatal(err)
	}
	answer := func(rows *Rows, err error) string {
		if err != nil {
			return "error"
		}
		return rows.Columns.String() + "\n" + strings.Join(rowStrings(rows), "\n")
	}
	cached, uncached := 0, 0
	check := func(q string) bool {
		generic, args := lift(t, q)
		want := answer(e.Query(q))
		for _, call := range []string{"cold", "cached"} {
			if got := answer(e.QueryArgs(generic, args...)); got != want {
				t.Fatalf("%s\nas %s %v, %s call:\n%s\nthe literal text:\n%s", q, generic, args, call, got, want)
			}
		}
		if e.plans.entries[generic] != nil {
			cached++
		} else {
			uncached++
		}
		return want != "error"
	}
	for _, c := range sqlSuiteCases {
		if c.exec {
			mustExec(t, e, c.sql)
		} else {
			check(c.sql)
		}
	}
	// Positions and row counts the suite does not spell.
	for _, q := range []string{
		`SELECT k, count(*) FROM pairs GROUP BY 1 ORDER BY 2 DESC, 1 LIMIT 2 OFFSET 1`,
		`SELECT k + 1, count(*) FROM pairs GROUP BY k + 1 HAVING count(*) > 1`,
		`SELECT n FROM nums WHERE n > 1 ORDER BY n LIMIT 1 + 1`,
	} {
		check(q)
	}
	genTables(t, e)
	for seed, ran := int64(0), 0; ran < 200; seed++ {
		if check(reopenQuery(genSeed(seed))) {
			ran++
		}
	}
	t.Logf("%d statements cached, %d planned per call", cached, uncached)
	if cached < 100 || uncached < 50 {
		t.Fatalf("%d statements cached, %d planned per call: the lifted queries miss one path", cached, uncached)
	}
}

// lift rewrites every literal of the SELECT q to a parameter — equal
// literals, by type and spelling, to the same one — with one sql.Rewrite
// pass over each of its expressions, and returns the text and arguments.
func lift(t *testing.T, q string) (string, []Value) {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var args []Value
	index := map[string]int{}
	rewrite := func(e sql.Expr) sql.Expr {
		return sql.Rewrite(e, func(x sql.Expr) (sql.Expr, bool) {
			lit, ok := x.(*sql.Literal)
			if !ok {
				return x, false
			}
			key := lit.Val.Type().String() + " " + sql.Format(lit)
			if index[key] == 0 {
				args = append(args, lit.Val)
				index[key] = len(args)
			}
			return &sql.Param{Index: index[key]}, true
		})
	}
	var block func(*sql.Select)
	var from func(sql.TableRef)
	block = func(s *sql.Select) {
		for i := range s.Items {
			s.Items[i].Expr = rewrite(s.Items[i].Expr)
		}
		for _, r := range s.From {
			from(r)
		}
		s.Where, s.Having = rewrite(s.Where), rewrite(s.Having)
		for i := range s.GroupBy {
			s.GroupBy[i] = rewrite(s.GroupBy[i])
		}
		for i := range s.OrderBy {
			s.OrderBy[i].Expr = rewrite(s.OrderBy[i].Expr)
		}
		s.Limit, s.Offset = rewrite(s.Limit), rewrite(s.Offset)
		if s.SetOp != nil {
			block(s.SetOp.Right)
		}
	}
	from = func(r sql.TableRef) {
		switch r := r.(type) {
		case *sql.Subquery:
			block(r.Query)
		case *sql.Join:
			from(r.Left)
			from(r.Right)
			r.On = rewrite(r.On)
		}
	}
	sel := stmt.(*sql.Select)
	block(sel)
	return sql.Format(sel), args
}
