package plan

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"streamrel/internal/catalog"
	"streamrel/internal/exec"
	"streamrel/internal/sql"
	"streamrel/internal/storage"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// testEnv builds a catalog with small populated tables:
//
//	emp(id INT, name STRING, dept STRING, salary INT)
//	dept(name STRING, budget INT)
//	url_stream(url STRING, atime TIMESTAMP cqtime, client_ip STRING)
type testEnv struct {
	cat *catalog.Catalog
	mgr *txn.Manager
}

func newEnv(t *testing.T) *testEnv {
	t.Helper()
	env := &testEnv{cat: catalog.New(), mgr: txn.NewManager()}
	emp, err := env.cat.CreateTable("emp", types.Schema{
		{Name: "id", Type: types.TypeInt},
		{Name: "name", Type: types.TypeString},
		{Name: "dept", Type: types.TypeString},
		{Name: "salary", Type: types.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	dept, err := env.cat.CreateTable("dept", types.Schema{
		{Name: "name", Type: types.TypeString},
		{Name: "budget", Type: types.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.cat.CreateStream("url_stream", types.Schema{
		{Name: "url", Type: types.TypeString},
		{Name: "atime", Type: types.TypeTimestamp},
		{Name: "client_ip", Type: types.TypeString},
	}, 1, false); err != nil {
		t.Fatal(err)
	}
	rows := []types.Row{
		{types.NewInt(1), types.NewString("alice"), types.NewString("eng"), types.NewInt(100)},
		{types.NewInt(2), types.NewString("bob"), types.NewString("eng"), types.NewInt(80)},
		{types.NewInt(3), types.NewString("carol"), types.NewString("sales"), types.NewInt(90)},
		{types.NewInt(4), types.NewString("dave"), types.NewString("sales"), types.NewInt(60)},
		{types.NewInt(5), types.NewString("erin"), types.NewString("hr"), types.NewInt(70)},
	}
	for _, r := range rows {
		if _, err := emp.Heap.InsertRun(txn.Bootstrap, []types.Row{r}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []types.Row{
		{types.NewString("eng"), types.NewInt(1000)},
		{types.NewString("sales"), types.NewInt(500)},
	} {
		if _, err := dept.Heap.InsertRun(txn.Bootstrap, []types.Row{r}); err != nil {
			t.Fatal(err)
		}
	}
	return env
}

// query plans and runs a snapshot SELECT, returning the output rows.
func (env *testEnv) query(t *testing.T, src string) ([]types.Row, *Plan) {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p := &Planner{Cat: env.cat}
	plan, err := p.BuildSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	rows, err := exec.Drain(&exec.Ctx{Snap: env.mgr.SnapshotNow()}, plan.Build(&Input{}), 0)
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	return rows, plan
}

func (env *testEnv) mustFail(t *testing.T, src string) {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		return // parse error counts
	}
	p := &Planner{Cat: env.cat}
	if _, err := p.BuildSelect(stmt.(*sql.Select)); err == nil {
		t.Errorf("plan %q should fail", src)
	}
}

func rowsToStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

func expectRows(t *testing.T, got []types.Row, want ...string) {
	t.Helper()
	gs := rowsToStrings(got)
	if strings.Join(gs, "\n") != strings.Join(want, "\n") {
		t.Fatalf("rows:\n%s\nwant:\n%s", strings.Join(gs, "\n"), strings.Join(want, "\n"))
	}
}

func TestSimpleSelect(t *testing.T) {
	env := newEnv(t)
	rows, plan := env.query(t, `SELECT name, salary FROM emp WHERE salary >= 80 ORDER BY salary DESC`)
	expectRows(t, rows, "alice|100", "carol|90", "bob|80")
	if plan.Columns[0].Name != "name" || plan.Columns[1].Type != types.TypeInt {
		t.Fatalf("schema: %v", plan.Columns)
	}
	if plan.Stream != nil {
		t.Fatal("table query should not be a CQ")
	}
}

func TestSelectStar(t *testing.T) {
	env := newEnv(t)
	rows, plan := env.query(t, `SELECT * FROM dept ORDER BY name`)
	expectRows(t, rows, "eng|1000", "sales|500")
	if len(plan.Columns) != 2 || plan.Columns[1].Name != "budget" {
		t.Fatalf("schema: %v", plan.Columns)
	}
}

func TestExpressionsInProjection(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT upper(name), salary * 2 AS double_pay FROM emp WHERE id = 1`)
	expectRows(t, rows, "ALICE|200")
}

func TestFromlessSelect(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT 1 + 1, 'x'`)
	expectRows(t, rows, "2|x")
}

func TestOrderByForms(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT name, salary FROM emp ORDER BY 2 DESC LIMIT 2`)
	expectRows(t, rows, "alice|100", "carol|90")
	rows, _ = env.query(t, `SELECT name, salary AS pay FROM emp ORDER BY pay LIMIT 1`)
	expectRows(t, rows, "dave|60")
	// Hidden-column sort: ORDER BY an expression not in the output.
	rows, _ = env.query(t, `SELECT name FROM emp ORDER BY salary % 7, name LIMIT 2`)
	if len(rows) != 2 {
		t.Fatal("hidden sort")
	}
}

func TestLimitOffset(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1`)
	expectRows(t, rows, "2", "3")
}

// TestSortBound: wherever a LIMIT meets an ORDER BY, the plan bounds the
// Sort at OFFSET + LIMIT, the rows the Limit reads: in a plain block, under
// hidden keys, over a UNION chain, inside a FROM subquery and in a
// store-backed CQ's post stage. ORDER BY alone, LIMIT 0 and OFFSET alone
// bound nothing.
func TestSortBound(t *testing.T) {
	env := newEnv(t)
	for _, c := range []struct {
		sql   string
		bound int
	}{
		{`SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 3 OFFSET 2`, 5},
		{`SELECT dept FROM emp GROUP BY dept ORDER BY sum(salary) LIMIT 2 OFFSET 1`, 3},
		{`SELECT dept FROM emp UNION SELECT name FROM dept ORDER BY 1 LIMIT 2 OFFSET 1`, 3},
		{`SELECT n FROM (SELECT name AS n FROM emp ORDER BY salary LIMIT 2 OFFSET 1) t`, 3},
		{`SELECT url, count(*) AS d FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url ORDER BY d DESC LIMIT 5`, 5},
		{`SELECT name FROM emp ORDER BY salary`, 0},
		{`SELECT name FROM emp ORDER BY salary LIMIT 0`, 0},
		{`SELECT name FROM emp ORDER BY salary OFFSET 3`, 0},
	} {
		stmt, err := sql.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := (&Planner{Cat: env.cat}).BuildSelect(stmt.(*sql.Select))
		if err != nil {
			t.Fatal(err)
		}
		tree := p.Build(&Input{})
		if p.StreamAgg != nil {
			tree = p.StreamAgg.PostBuild(&Input{})
		}
		if got := sortBounds(tree); !slices.Equal(got, []int{c.bound}) {
			t.Errorf("%s: Sorts bounded at %v, want one at %d", c.sql, got, c.bound)
		}
	}
}

// sortBounds lists the bound of every Sort in a tree, walking every
// exported Operator field.
func sortBounds(op exec.Operator) []int {
	var bounds []int
	if s, ok := op.(*exec.Sort); ok {
		bounds = append(bounds, s.Limit)
	}
	v := reflect.ValueOf(op).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		if v.Type().Field(i).IsExported() && f.Type() == reflect.TypeFor[exec.Operator]() && !f.IsNil() {
			bounds = append(bounds, sortBounds(f.Interface().(exec.Operator))...)
		}
	}
	return bounds
}

func TestDistinct(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT DISTINCT dept FROM emp ORDER BY dept`)
	expectRows(t, rows, "eng", "hr", "sales")
}

func TestAggregates(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT count(*), sum(salary), avg(salary), min(salary), max(salary) FROM emp`)
	expectRows(t, rows, "5|400|80.0|60|100")
}

func TestGroupBy(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT dept, count(*) AS n, sum(salary) FROM emp GROUP BY dept ORDER BY dept`)
	expectRows(t, rows, "eng|2|180", "hr|1|70", "sales|2|150")
}

func TestGroupByUnsortedIsDeterministic(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT dept, count(*) FROM emp GROUP BY dept`)
	expectRows(t, rows, "eng|2", "hr|1", "sales|2")
}

func TestGroupByPositionAndAlias(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT dept AS d, count(*) FROM emp GROUP BY 1 ORDER BY 1`)
	expectRows(t, rows, "eng|2", "hr|1", "sales|2")
	rows, _ = env.query(t, `SELECT dept AS d, count(*) FROM emp GROUP BY d ORDER BY d`)
	expectRows(t, rows, "eng|2", "hr|1", "sales|2")
}

// TestGroupByPositionOfAggregate: a GROUP BY position that names an
// aggregate is refused as the aggregate itself would be.
func TestGroupByPositionOfAggregate(t *testing.T) {
	env := newEnv(t)
	stmt, err := sql.Parse(`SELECT count(*) FROM emp GROUP BY 1`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = (&Planner{Cat: env.cat}).BuildSelect(stmt.(*sql.Select))
	if want := "plan: aggregate functions are not allowed in GROUP BY"; err == nil || err.Error() != want {
		t.Fatalf("GROUP BY a position naming count(*): %v, want %s", err, want)
	}
}

// TestGroupByKeysOfOneName: two keys that are columns of one name, a.dept and
// b.dept of a self-join, group as two keys of different names do.
func TestGroupByKeysOfOneName(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT a.dept, b.dept, count(*) FROM emp a JOIN emp b ON a.salary / 50 = b.salary / 50
		GROUP BY a.dept, b.dept HAVING count(*) > 0 ORDER BY a.dept, b.dept`)
	twin, _ := env.query(t, `SELECT a.dept, b.d, count(*) FROM emp a JOIN (SELECT salary, dept AS d FROM emp) b ON a.salary / 50 = b.salary / 50
		GROUP BY a.dept, b.d HAVING count(*) > 0 ORDER BY a.dept, b.d`)
	if got, want := rowsToStrings(rows), rowsToStrings(twin); !slices.Equal(got, want) || len(got) < 3 {
		t.Fatalf("keys of one name: %v, want %v", got, want)
	}
}

func TestHaving(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT dept, count(*) FROM emp GROUP BY dept HAVING count(*) > 1 ORDER BY dept`)
	expectRows(t, rows, "eng|2", "sales|2")
}

func TestGroupByExpression(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT salary / 50, count(*) FROM emp GROUP BY salary / 50 ORDER BY 1`)
	expectRows(t, rows, "1|4", "2|1")
}

func TestOrderByAggregate(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT dept FROM emp GROUP BY dept ORDER BY count(*) DESC, dept LIMIT 2`)
	expectRows(t, rows, "eng", "sales")
}

func TestAggregateValidation(t *testing.T) {
	env := newEnv(t)
	env.mustFail(t, `SELECT name, count(*) FROM emp GROUP BY dept`)
	env.mustFail(t, `SELECT count(sum(salary)) FROM emp`)
	env.mustFail(t, `SELECT * FROM emp GROUP BY dept`)
	env.mustFail(t, `SELECT dept FROM emp GROUP BY count(*)`)
}

func TestImplicitJoin(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `
		SELECT e.name, d.budget FROM emp e, dept d
		WHERE e.dept = d.name AND e.salary > 80 ORDER BY e.name`)
	expectRows(t, rows, "alice|1000", "carol|500")
}

func TestExplicitJoin(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `
		SELECT e.name, d.budget FROM emp e JOIN dept d ON e.dept = d.name
		ORDER BY e.name`)
	expectRows(t, rows, "alice|1000", "bob|1000", "carol|500", "dave|500")
}

func TestLeftJoin(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `
		SELECT e.name, d.budget FROM emp e LEFT JOIN dept d ON e.dept = d.name
		ORDER BY e.name`)
	expectRows(t, rows, "alice|1000", "bob|1000", "carol|500", "dave|500", "erin|NULL")
}

func TestRightJoin(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `
		SELECT e.name, d.name FROM dept d RIGHT JOIN emp e ON e.dept = d.name
		ORDER BY e.name`)
	expectRows(t, rows, "alice|eng", "bob|eng", "carol|sales", "dave|sales", "erin|NULL")
}

func TestFullJoin(t *testing.T) {
	env := newEnv(t)
	// hr has employees but no dept row; add a dept with no employees.
	d, _ := env.cat.Table("dept")
	d.Heap.InsertRun(txn.Bootstrap, []types.Row{types.Row{types.NewString("legal"), types.NewInt(50)}})
	rows, _ := env.query(t, `
		SELECT e.dept, d.name FROM (SELECT DISTINCT dept FROM emp) e
		FULL JOIN dept d ON e.dept = d.name ORDER BY 1, 2`)
	expectRows(t, rows, "NULL|legal", "eng|eng", "hr|NULL", "sales|sales")
}

func TestCrossJoin(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT count(*) FROM emp CROSS JOIN dept`)
	expectRows(t, rows, "10")
}

func TestNonEquiJoin(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `
		SELECT e.name FROM emp e, dept d WHERE e.dept = d.name AND e.salary < d.budget / 8
		ORDER BY e.name`)
	expectRows(t, rows, "alice", "bob", "dave")
}

func TestSubqueryInFrom(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `
		SELECT d, total FROM (SELECT dept AS d, sum(salary) AS total FROM emp GROUP BY dept) t
		WHERE total > 100 ORDER BY d`)
	expectRows(t, rows, "eng|180", "sales|150")
}

func TestSetOperations(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT dept FROM emp UNION SELECT name FROM dept ORDER BY 1`)
	expectRows(t, rows, "eng", "hr", "sales")
	rows, _ = env.query(t, `SELECT dept FROM emp EXCEPT SELECT name FROM dept`)
	expectRows(t, rows, "hr")
	rows, _ = env.query(t, `SELECT DISTINCT dept FROM emp INTERSECT SELECT name FROM dept ORDER BY 1`)
	expectRows(t, rows, "eng", "sales")
}

func TestViewExpansion(t *testing.T) {
	env := newEnv(t)
	stmt, _ := sql.Parse(`SELECT name, salary FROM emp WHERE dept = 'eng'`)
	env.cat.CreateView(&catalog.View{Name: "eng_emps", Query: stmt.(*sql.Select)})
	rows, _ := env.query(t, `SELECT name FROM eng_emps WHERE salary > 90`)
	expectRows(t, rows, "alice")
}

func TestIndexSelection(t *testing.T) {
	env := newEnv(t)
	ix, err := env.cat.CreateIndex("emp_salary", "emp", []string{"salary"})
	if err != nil {
		t.Fatal(err)
	}
	// Backfill the index manually (the engine normally does this).
	emp, _ := env.cat.Table("emp")
	emp.Heap.Scan(env.mgr.SnapshotNow(), func(rid storage.RowID, r types.Row) bool {
		ix.Tree.Insert(ix.KeyOf(r), rid)
		return true
	})
	// Equality via index.
	rows, _ := env.query(t, `SELECT name FROM emp WHERE salary = 90`)
	expectRows(t, rows, "carol")
	// Range via index plus residual filter.
	rows, _ = env.query(t, `SELECT name FROM emp WHERE salary >= 70 AND salary < 100 AND dept <> 'hr' ORDER BY name`)
	expectRows(t, rows, "bob", "carol")
	// Reversed operand order.
	rows, _ = env.query(t, `SELECT name FROM emp WHERE 100 <= salary`)
	expectRows(t, rows, "alice")
}

func TestStreamQueryPlanning(t *testing.T) {
	env := newEnv(t)
	stmt, _ := sql.Parse(`SELECT url, count(*) AS n FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>
		GROUP BY url ORDER BY n DESC LIMIT 10`)
	p := &Planner{Cat: env.cat}
	plan, err := p.BuildSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stream == nil || plan.Stream.Name != "url_stream" || plan.Stream.CQTimeCol != 1 {
		t.Fatalf("stream info: %+v", plan.Stream)
	}
	if plan.StreamAgg == nil {
		t.Fatal("expected shared-aggregation fast path")
	}
	// Execute the plan against a synthetic window.
	win := []types.Row{
		{types.NewString("/a"), types.NewTimestampMicros(1), types.NewString("ip1")},
		{types.NewString("/a"), types.NewTimestampMicros(2), types.NewString("ip2")},
		{types.NewString("/b"), types.NewTimestampMicros(3), types.NewString("ip1")},
	}
	rows, err := exec.Drain(&exec.Ctx{Snap: env.mgr.SnapshotNow()}, plan.Build(&Input{WindowRows: win}), 0)
	if err != nil {
		t.Fatal(err)
	}
	expectRows(t, rows, "/a|2", "/b|1")
}

func TestStreamAggFastPathDisabledByJoin(t *testing.T) {
	env := newEnv(t)
	stmt, _ := sql.Parse(`SELECT count(*) FROM url_stream <VISIBLE '1 minute'> u, dept d`)
	p := &Planner{Cat: env.cat}
	plan, err := p.BuildSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	if plan.StreamAgg != nil {
		t.Fatal("join query must not take the shared-agg path")
	}
	if plan.Stream == nil {
		t.Fatal("still a CQ")
	}
}

func TestStreamErrors(t *testing.T) {
	env := newEnv(t)
	env.mustFail(t, `SELECT * FROM url_stream`)                                                           // no window
	env.mustFail(t, `SELECT * FROM emp <VISIBLE '1 minute'>`)                                             // window on table
	env.mustFail(t, `SELECT 1 FROM url_stream <VISIBLE '1 minute'> a, url_stream <VISIBLE '1 minute'> b`) // two streams
}

func TestPlannerErrors(t *testing.T) {
	env := newEnv(t)
	env.mustFail(t, `SELECT * FROM nonexistent`)
	env.mustFail(t, `SELECT bogus FROM emp`)
	env.mustFail(t, `SELECT name FROM emp, dept`) // ambiguous "name"
	env.mustFail(t, `SELECT id FROM emp ORDER BY 99`)
	env.mustFail(t, `SELECT id FROM emp LIMIT 'x'`)
	env.mustFail(t, `SELECT id FROM emp LIMIT -1`)
	env.mustFail(t, `SELECT id FROM emp UNION SELECT id, name FROM emp`)
}

func TestCQCloseColumnDetection(t *testing.T) {
	env := newEnv(t)
	stmt, _ := sql.Parse(`SELECT url, count(*) AS scnt, cq_close(*) FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url`)
	p := &Planner{Cat: env.cat}
	plan, err := p.BuildSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	if plan.CloseCol != 2 {
		t.Fatalf("CloseCol = %d, want 2", plan.CloseCol)
	}
	if plan.Columns[2].Name != "cq_close" || plan.Columns[2].Type != types.TypeTimestamp {
		t.Fatalf("cq_close column: %+v", plan.Columns[2])
	}
}

func TestCaseInsensitiveColumns(t *testing.T) {
	env := newEnv(t)
	rows, _ := env.query(t, `SELECT NAME FROM EMP WHERE ID = 1`)
	expectRows(t, rows, "alice")
}
