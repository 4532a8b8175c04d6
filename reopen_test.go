package streamrel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"streamrel/internal/exec"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/sql/sqlgen"
	"streamrel/internal/types"
)

// TestReopenEquivalence: an operator tree is built once and opened again for
// every execution — a continuous query's post stage at every close, a cached
// snapshot query at every call — so what it reads on its second, third …
// execution must be what a fresh tree reads. Every query of the SQL suite and
// 200 generated over a table of three chunks and a dimension table run twice
// through one tree, each result byte-identical to a fresh tree's, and so does
// each with its literals lifted to parameters (where that still plans
// generic); and a tree whose execution failed midway, on a row past its first
// chunk, then runs clean input as a fresh tree does — over a table and over
// a window.
func TestReopenEquivalence(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(sqlSuiteSetup); err != nil {
		t.Fatal(err)
	}
	lifted := 0
	both := func(q string) bool {
		generic, args := lift(t, q)
		ctx := e.execCtx()
		ctx.Args = args
		if reopenEquals(t, e, generic, ctx, nil) {
			lifted++
		}
		return reopenEquals(t, e, q, e.execCtx(), nil)
	}
	for _, c := range sqlSuiteCases {
		if c.exec {
			mustExec(t, e, c.sql)
		} else {
			both(c.sql)
		}
	}

	window := genTables(t, e)
	ran := 0
	for seed := int64(0); ran < 200; seed++ {
		if seed == 2000 {
			t.Fatalf("%d of %d generated queries planned", ran, seed)
		}
		if both(reopenQuery(genSeed(seed))) {
			ran++
		}
	}
	if lifted < 150 {
		t.Fatalf("only %d parameterised queries planned generic", lifted)
	}

	// A failure midway: the row that divides by zero is the last of a table
	// or a window of three chunks.
	clean := e.execCtx()
	mustExec(t, e, `INSERT INTO g VALUES ('/u1', 1, 0)`)
	bad := append(window[:len(window):len(window)], types.Row{String("/u1"), Timestamp(time.UnixMicro(ivmBase + 1<<20)), Int(1), Int(0)})
	for _, q := range []string{
		`SELECT d.cat, count(*), sum(10 / g.w) FROM g JOIN d ON g.url = d.url GROUP BY d.cat`,
		`SELECT url, 10 / w FROM g ORDER BY 2, 1 LIMIT 20`,
		`SELECT DISTINCT url, 10 / w FROM g`,
		`SELECT d.cat, count(*), sum(10 / s.w) FROM s <VISIBLE 5000 ROWS ADVANCE 5000 ROWS>, d WHERE s.url = d.url GROUP BY d.cat`,
		`SELECT url, max(10 / w) FROM s <VISIBLE 5000 ROWS ADVANCE 5000 ROWS> GROUP BY url HAVING count(*) > 1 ORDER BY 1`,
	} {
		if !reopenEquals(t, e, q, clean, &reopenFailure{ctx: e.execCtx(), bad: bad, clean: window}) {
			t.Fatalf("%s: does not plan", q)
		}
	}
}

// genTables creates g — three chunks of rows — and d, the tables reopenQuery
// writes over, and the stream s of g's columns; it returns g's rows as a
// window of s.
func genTables(t *testing.T, e *Engine) []types.Row {
	t.Helper()
	mustExec(t, e, `CREATE TABLE g (url varchar, v bigint, w bigint)`)
	mustExec(t, e, `CREATE TABLE d (url varchar, cat varchar)`)
	mustExec(t, e, `INSERT INTO d VALUES ('/u0', 'c0'), ('/u1', 'c0'), ('/u2', 'c1'), ('/u3', 'c1'), ('/u3', 'c2')`)
	mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint, w bigint)`)
	rng := rand.New(rand.NewSource(7))
	rows := make([]Row, 3*1024)
	window := make([]types.Row, len(rows))
	for i := range rows {
		url, v := String(fmt.Sprintf("/u%d", rng.Intn(5))), Int(int64(rng.Intn(40)-10))
		rows[i] = Row{url, v, Int(int64(1 + rng.Intn(9)))}
		window[i] = types.Row{url, Timestamp(time.UnixMicro(ivmBase + int64(i))), v, rows[i][2]}
	}
	if err := e.BulkInsert("g", rows); err != nil {
		t.Fatal(err)
	}
	return window
}

// genSeed is the generator of the seed'th query over genTables' g and d.
func genSeed(seed int64) *sqlgen.Gen {
	data := make([]byte, 64)
	rand.New(rand.NewSource(seed)).Read(data)
	return &sqlgen.Gen{Data: data, Keys: []string{"g.url"}, Ints: []string{"g.v", "g.w"}}
}

// reopenFailure is what runs through the tree before the clean execution:
// an execution under ctx, over the window bad, that must fail.
type reopenFailure struct {
	ctx        *exec.Ctx
	bad, clean []types.Row
}

// reopenEquals plans q — generic, for arguments of ctx.Args' types — and
// compares a fresh tree's result under ctx with one tree's, executed twice —
// or, with fail, executed once to fail and then on the clean window. It
// reports false, checking nothing, for a query that does not plan.
func reopenEquals(t *testing.T, e *Engine, q string, ctx *exec.Ctx, fail *reopenFailure) bool {
	t.Helper()
	stmt, err := sql.ParseGeneric(q, ctx.Args)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	p, err := e.planner.BuildSelect(stmt.(*sql.Select))
	if err != nil {
		return false
	}
	in := &plan.Input{}
	run := func(ctx *exec.Ctx, tree exec.Operator, window []types.Row) string {
		in.WindowRows = window
		out, err := exec.Drain(ctx, tree, 0)
		if err != nil {
			return "error: " + err.Error()
		}
		var sb strings.Builder
		for _, r := range out {
			sb.WriteString(r.String() + "\n")
		}
		return sb.String()
	}
	var window []types.Row
	tree := p.Build(in)
	if fail != nil {
		if got := run(fail.ctx, tree, fail.bad); !strings.Contains(got, "division by zero") {
			t.Fatalf("%s: the execution that was to fail midway read\n%s", q, got)
		}
		window = fail.clean
	}
	want := run(ctx, p.Build(in), window)
	for i := 1; i <= 2; i++ {
		if got := run(ctx, tree, window); got != want {
			t.Fatalf("%s: execution %d of one tree read\n%s\na fresh tree\n%s", q, i, got, want)
		}
	}
	return true
}

// reopenQuery writes one query over g (and d) around the expressions g
// draws: a projection, an aggregate, a join, DISTINCT, a set operation, each
// under a generated WHERE, some sorted and limited.
func reopenQuery(g *sqlgen.Gen) string {
	expr := func() string { return g.Expr(sql.PrecAdd, 2) }
	where := " WHERE " + g.Expr(sql.PrecOr, 2)
	var q string
	switch g.Pick(6) {
	case 0:
		q = "SELECT g.url, g.v, " + expr() + " FROM g" + where
	case 1:
		q = "SELECT g.url, count(*), sum(" + expr() + "), min(" + expr() + ") FROM g" + where +
			" GROUP BY g.url HAVING count(*) > " + g.One("0", "100", "700")
	case 2:
		q = "SELECT d.cat, count(*), max(" + expr() + ") FROM g JOIN d ON g.url = d.url" + where + " GROUP BY d.cat"
	case 3:
		q = "SELECT g.url, d.cat, " + expr() + " FROM g LEFT JOIN d ON g.url = d.url" + where
	case 4:
		q = "SELECT DISTINCT g.url, " + expr() + " FROM g" + where
	default:
		q = "SELECT g.url, " + expr() + " FROM g" + where + g.One(" UNION ", " EXCEPT ALL ", " INTERSECT ") +
			"SELECT g.url, " + expr() + " FROM g" + where
	}
	if g.Pick(2) == 1 {
		q += " ORDER BY 2 DESC, 1 LIMIT " + g.One("1", "10", "1000")
	}
	return q
}
