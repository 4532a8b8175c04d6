package sql

import (
	"strings"
	"testing"

	"streamrel/internal/types"
)

func TestLexParams(t *testing.T) {
	toks, err := Tokenize(`$1 $23`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokParam || toks[0].Text != "1" {
		t.Fatalf("%+v", toks[0])
	}
	if toks[1].Kind != TokParam || toks[1].Text != "23" {
		t.Fatalf("%+v", toks[1])
	}
	if _, err := Tokenize(`$x`); err == nil {
		t.Fatal("bare $ should fail")
	}
}

func TestParseParams(t *testing.T) {
	e, err := ParseExpr(`a = $1 AND b BETWEEN $2 AND $3`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	WalkExprs(e, func(x Expr) bool {
		if _, ok := x.(*Param); ok {
			n++
		}
		return true
	})
	// WalkExprs doesn't visit Param specially; count via String instead.
	if !strings.Contains(e.String(), "$1") {
		t.Fatalf("params lost: %s", e.String())
	}
}

func TestParseArgsSelect(t *testing.T) {
	const src = `SELECT a + $1 FROM t WHERE b = $2 GROUP BY a + $1 HAVING count(*) > $3 ORDER BY 1 LIMIT 5`
	args := []types.Datum{types.NewInt(10), types.NewString("x"), types.NewInt(2)}
	bound, err := ParseArgs(src, args)
	if err != nil {
		t.Fatal(err)
	}
	sel := bound.(*Select)
	if sel.Items[0].Expr.String() != "(a + 10)" {
		t.Fatalf("items: %s", sel.Items[0].Expr.String())
	}
	if sel.Where.String() != "(b = 'x')" {
		t.Fatalf("where: %s", sel.Where.String())
	}
	if sel.Having.String() != "(count(*) > 2)" {
		t.Fatalf("having: %s", sel.Having.String())
	}
	// The generic form keeps each $n, of its argument's type.
	generic, err := ParseGeneric(src, args)
	if err != nil {
		t.Fatal(err)
	}
	where := generic.(*Select).Where.(*BinaryExpr).R.(*Param)
	if where.Index != 2 || where.Type != types.TypeString || Format(generic) != Format(mustParse(t, src)) {
		t.Fatalf("generic: %#v in %s", where, Format(generic))
	}
}

func TestParseArgsSubqueryAndJoin(t *testing.T) {
	bound, err := ParseArgs(`SELECT * FROM (SELECT a FROM t WHERE a > $1) s JOIN u ON s.a = u.a AND u.b = $2`,
		[]types.Datum{types.NewInt(1), types.NewInt(2)})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(boundString(bound), "$") {
		t.Fatalf("unbound params remain: %s", boundString(bound))
	}
}

func boundString(stmt Statement) string {
	sel := stmt.(*Select)
	var parts []string
	for _, item := range sel.Items {
		if item.Expr != nil {
			parts = append(parts, item.Expr.String())
		}
	}
	var collect func(TableRef)
	collect = func(r TableRef) {
		switch n := r.(type) {
		case *Subquery:
			if n.Query.Where != nil {
				parts = append(parts, n.Query.Where.String())
			}
		case *Join:
			collect(n.Left)
			collect(n.Right)
			if n.On != nil {
				parts = append(parts, n.On.String())
			}
		}
	}
	for _, r := range sel.From {
		collect(r)
	}
	return strings.Join(parts, " ")
}

func TestParseArgsDML(t *testing.T) {
	two := []types.Datum{types.NewInt(1), types.NewInt(2)}
	bound, err := ParseArgs(`INSERT INTO t VALUES ($1, $2)`, two)
	if err != nil {
		t.Fatal(err)
	}
	ins := bound.(*Insert)
	if ins.Rows[0][0].String() != "1" || ins.Rows[0][1].String() != "2" {
		t.Fatalf("%v", ins.Rows)
	}

	bound, err = ParseArgs(`UPDATE t SET a = $1 WHERE b = $2`, two)
	if err != nil {
		t.Fatal(err)
	}
	up := bound.(*Update)
	if up.Set[0].Value.String() != "1" || up.Where.String() != "(b = 2)" {
		t.Fatalf("%+v", up)
	}

	if _, err := ParseArgs(`DELETE FROM t WHERE a IN ($1, $2)`, two); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseArgs(`INSERT INTO t SELECT a FROM u WHERE a = $1`, two[:1]); err != nil {
		t.Fatal(err)
	}
}

func TestParseArgsErrors(t *testing.T) {
	one := []types.Datum{types.NewInt(1)}
	for _, parse := range []func(string, []types.Datum) (Statement, error){ParseArgs, ParseGeneric} {
		if _, err := parse(`SELECT $2 FROM t`, one); err == nil || err.Error() != "sql: parameter $2 out of range (1 arguments)" {
			t.Fatalf("out of range: %v", err)
		}
		if _, err := parse(`SELECT $1 FROM t`, append(one, one...)); err == nil || err.Error() != "sql: 2 arguments supplied but only $1 used" {
			t.Fatalf("unused trailing arg: %v", err)
		}
		if _, err := parse(`CREATE TABLE t (a bigint)`, one); err == nil {
			t.Fatal("DDL with args")
		}
		// DDL with zero args parses as it does without.
		if _, err := parse(`CREATE TABLE t (a bigint)`, nil); err != nil {
			t.Fatal("DDL without args should parse")
		}
		// An EXPLAINed statement's $n stay parameters, and it takes no arguments.
		if ex, err := parse(`EXPLAIN SELECT a FROM t WHERE a = $1`, nil); err != nil || ex.(*Explain).Params != 1 {
			t.Fatalf("EXPLAIN: %v %v", ex, err)
		}
		if _, err := parse(`EXPLAIN SELECT a FROM t WHERE a = $1`, one); err == nil {
			t.Fatal("EXPLAIN with args")
		}
	}
}

func TestParseArgsInCaseAndSetOps(t *testing.T) {
	bound, err := ParseArgs(`SELECT CASE WHEN a > $1 THEN $2 ELSE $3 END FROM t
		UNION SELECT b FROM u WHERE b < $4`, []types.Datum{
		types.NewInt(1), types.NewString("hi"), types.NewString("lo"), types.NewInt(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	sel := bound.(*Select)
	if strings.Contains(sel.Items[0].Expr.String(), "$") {
		t.Fatal("case params unbound")
	}
	if strings.Contains(sel.SetOp.Right.Where.String(), "$") {
		t.Fatal("set-op params unbound")
	}
}

func TestParseScriptTextSpans(t *testing.T) {
	parsed, err := ParseScript(`
		CREATE TABLE a (x bigint);  -- comment
		INSERT INTO a VALUES (1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 2 {
		t.Fatalf("%d statements", len(parsed))
	}
	if parsed[0].Text != "CREATE TABLE a (x bigint)" {
		t.Fatalf("text 0: %q", parsed[0].Text)
	}
	if parsed[1].Text != "INSERT INTO a VALUES (1)" {
		t.Fatalf("text 1: %q", parsed[1].Text)
	}
}
