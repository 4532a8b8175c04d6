package sql

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"streamrel/internal/types"
)

var racing bool // race_test.go

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func mustParseSelect(t *testing.T, src string) *Select {
	t.Helper()
	s, ok := mustParse(t, src).(*Select)
	if !ok {
		t.Fatalf("Parse(%q): not a SELECT", src)
	}
	return s
}

// ParseAll parses a semicolon-separated script.
func ParseAll(src string) ([]Statement, error) {
	parsed, err := ParseScript(src)
	if err != nil {
		return nil, err
	}
	out := make([]Statement, len(parsed))
	for i, p := range parsed {
		out[i] = p.Stmt
	}
	return out, nil
}

// ParseExpr parses a standalone scalar expression.
func ParseExpr(src string) (Expr, error) {
	p := &Parser{lex: Lexer{src: src}}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind != TokEOF {
		return nil, p.errf("unexpected input after expression")
	}
	return e, nil
}

// Tokenize lexes the whole input.
func Tokenize(src string) ([]Token, error) {
	l := Lexer{src: src}
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return out, nil
		}
		out = append(out, t)
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize(`SELECT url, count(*) FROM s <VISIBLE '5 minutes'> -- comment
		WHERE x >= 1.5 /* block */ AND y <> 'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Text)
	}
	joined := strings.Join(kinds, " ")
	want := `select url , count ( * ) from s < visible 5 minutes > where x >= 1.5 and y <> it's`
	if joined != want {
		t.Fatalf("tokens = %q\nwant %q", joined, want)
	}
}

func TestLexerQuotedIdent(t *testing.T) {
	toks, err := Tokenize(`"Mixed Case" "with""quote"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "Mixed Case" || toks[1].Text != `with"quote` {
		t.Fatalf("got %v", toks)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, bad := range []string{"'unterminated", `"unterminated`, "a @ b"} {
		if _, err := Tokenize(bad); err == nil {
			t.Errorf("Tokenize(%q) should fail", bad)
		}
	}
}

// TestPaperExample1 parses the paper's Example 1 DDL verbatim.
func TestPaperExample1(t *testing.T) {
	s := mustParse(t, `CREATE STREAM url_stream (
		url varchar(1024),
		atime timestamp CQTIME USER,
		client_ip varchar(50)
	)`).(*CreateStream)
	if s.Name != "url_stream" || len(s.Columns) != 3 {
		t.Fatalf("got %+v", s)
	}
	if !s.Columns[1].CQTime || s.Columns[1].Type != types.TypeTimestamp {
		t.Fatalf("atime should be the CQTIME column: %+v", s.Columns[1])
	}
	if s.Columns[0].Type != types.TypeString {
		t.Fatal("url should be VARCHAR")
	}
}

// TestPartitionBy parses the sharded-stream DDL variant.
func TestPartitionBy(t *testing.T) {
	s := mustParse(t, `CREATE STREAM url_stream (
		url varchar(1024),
		atime timestamp CQTIME USER,
		client_ip varchar(50)
	) PARTITION BY client_ip`).(*CreateStream)
	if s.PartitionBy != "client_ip" {
		t.Fatalf("PartitionBy = %q, want client_ip", s.PartitionBy)
	}
	plain := mustParse(t, `CREATE STREAM s (v int, at timestamp CQTIME USER)`).(*CreateStream)
	if plain.PartitionBy != "" {
		t.Fatalf("PartitionBy = %q, want empty", plain.PartitionBy)
	}
	for _, bad := range []string{
		`CREATE STREAM s (v int, at timestamp CQTIME USER) PARTITION BY missing`,
		`CREATE STREAM s (v int, at timestamp CQTIME USER) PARTITION BY at`,
		`CREATE STREAM s (v int, at timestamp CQTIME USER) PARTITION`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestPaperExample2 parses the paper's Example 2 continuous query verbatim.
func TestPaperExample2(t *testing.T) {
	q := mustParseSelect(t, `SELECT url, count(*) url_count
		FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>
		GROUP by url
		ORDER by url_count desc
		LIMIT 10`)
	if len(q.Items) != 2 || q.Items[1].Alias != "url_count" {
		t.Fatalf("projection: %+v", q.Items)
	}
	bt := q.From[0].(*BaseTable)
	if bt.Name != "url_stream" || bt.Window == nil {
		t.Fatal("missing window")
	}
	if bt.Window.Kind != WindowTime || bt.Window.Visible != 5*60_000_000 || bt.Window.Advance != 60_000_000 {
		t.Fatalf("window: %+v", bt.Window)
	}
	if len(q.GroupBy) != 1 || len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Fatal("group/order")
	}
	if lim, ok := q.Limit.(*Literal); !ok || lim.Val.Int() != 10 {
		t.Fatal("limit")
	}
}

// TestPaperExample3 parses the derived-stream DDL.
func TestPaperExample3(t *testing.T) {
	s := mustParse(t, `CREATE STREAM urls_now as
		SELECT url, count(*) as scnt, cq_close(*)
		FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>
		GROUP by url`).(*CreateDerivedStream)
	if s.Name != "urls_now" {
		t.Fatal("name")
	}
	fc := s.Query.Items[2].Expr.(*FuncCall)
	if fc.Name != "cq_close" || !fc.Star {
		t.Fatalf("cq_close(*): %+v", fc)
	}
}

// TestPaperExample4 parses the channel DDL.
func TestPaperExample4(t *testing.T) {
	c := mustParse(t, `CREATE CHANNEL urls_channel FROM urls_now INTO urls_archive APPEND`).(*CreateChannel)
	if c.Name != "urls_channel" || c.From != "urls_now" || c.Into != "urls_archive" || c.Mode != ChannelAppend {
		t.Fatalf("%+v", c)
	}
	c2 := mustParse(t, `CREATE CHANNEL ch FROM s INTO t REPLACE`).(*CreateChannel)
	if c2.Mode != ChannelReplace {
		t.Fatal("replace mode")
	}
}

// TestPaperExample5 parses the historical-comparison stream-table join
// (with the interval expression spelled unambiguously).
func TestPaperExample5(t *testing.T) {
	q := mustParseSelect(t, `select c.scnt, h.scnt, c.stime
		from (select sum(scnt) as scnt, cq_close(*) as stime
		      from urls_now <slices 1 windows>) c,
		     urls_archive h
		where c.stime - '1 week'::interval = h.stime`)
	if len(q.From) != 2 {
		t.Fatalf("from: %d items", len(q.From))
	}
	sub := q.From[0].(*Subquery)
	if sub.Alias != "c" {
		t.Fatal("subquery alias")
	}
	w := sub.Query.From[0].(*BaseTable).Window
	if w.Kind != WindowSlices || w.Visible != 1 {
		t.Fatalf("slices window: %+v", w)
	}
	if q.From[1].(*BaseTable).Alias != "h" {
		t.Fatal("table alias")
	}
	// where: ((c.stime - cast('1 week' as interval)) = h.stime)
	be := q.Where.(*BinaryExpr)
	if be.Op != OpEq {
		t.Fatal("where op")
	}
	if _, ok := be.L.(*BinaryExpr).R.(*CastExpr); !ok {
		t.Fatal("interval cast")
	}
}

func TestRowWindow(t *testing.T) {
	q := mustParseSelect(t, `SELECT count(*) FROM s <VISIBLE 100 ROWS ADVANCE 10 ROWS>`)
	w := q.From[0].(*BaseTable).Window
	if w.Kind != WindowRows || w.Visible != 100 || w.Advance != 10 {
		t.Fatalf("%+v", w)
	}
}

func TestTumblingDefaults(t *testing.T) {
	q := mustParseSelect(t, `SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	w := q.From[0].(*BaseTable).Window
	if w.Visible != w.Advance || w.Visible != 60_000_000 {
		t.Fatalf("tumbling default: %+v", w)
	}
	q = mustParseSelect(t, `SELECT count(*) FROM s <VISIBLE '2 minutes'>`)
	w = q.From[0].(*BaseTable).Window
	if w.Visible != w.Advance || w.Visible != 120_000_000 {
		t.Fatalf("tumbling default: %+v", w)
	}
}

func TestWindowErrors(t *testing.T) {
	bad := []string{
		`SELECT 1 FROM s <VISIBLE '5 minutes' ADVANCE 10 ROWS>`, // mixed
		`SELECT 1 FROM s <>`,
		`SELECT 1 FROM s <VISIBLE '0 seconds'>`,
		`SELECT 1 FROM s <SLICES 0 WINDOWS>`,
		`SELECT 1 FROM s <VISIBLE 'nonsense'>`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestJoins(t *testing.T) {
	q := mustParseSelect(t, `SELECT * FROM a JOIN b ON a.x = b.x LEFT JOIN c ON b.y = c.y`)
	j := q.From[0].(*Join)
	if j.Type != JoinLeft {
		t.Fatal("outer join should be top")
	}
	inner := j.Left.(*Join)
	if inner.Type != JoinInner {
		t.Fatal("inner join nested")
	}
	q = mustParseSelect(t, `SELECT * FROM a CROSS JOIN b`)
	if q.From[0].(*Join).Type != JoinCross {
		t.Fatal("cross join")
	}
	if q.From[0].(*Join).On != nil {
		t.Fatal("cross join has no ON")
	}
}

func TestExpressionPrecedence(t *testing.T) {
	e, err := ParseExpr(`a + b * c - d`)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.String(); got != "((a + (b * c)) - d)" {
		t.Fatalf("got %s", got)
	}
	e, _ = ParseExpr(`a or b and not c = d`)
	if got := e.String(); got != "(a OR (b AND (NOT (c = d))))" {
		t.Fatalf("got %s", got)
	}
	e, _ = ParseExpr(`-a % 3`)
	if got := e.String(); got != "((-a) % 3)" {
		t.Fatalf("got %s", got)
	}
	e, _ = ParseExpr(`a || b || c`)
	if got := e.String(); got != "((a || b) || c)" {
		t.Fatalf("got %s", got)
	}
}

func TestExpressionForms(t *testing.T) {
	cases := []struct{ src, want string }{
		{`x is null`, "(x IS NULL)"},
		{`x is not null`, "(x IS NOT NULL)"},
		{`x between 1 and 10`, "(x BETWEEN 1 AND 10)"},
		{`x not between 1 and 10`, "(x NOT BETWEEN 1 AND 10)"},
		{`x in (1, 2, 3)`, "(x IN (1, 2, 3))"},
		{`x not in ('a')`, "(x NOT IN ('a'))"},
		{`x like 'a%'`, "(x LIKE 'a%')"},
		{`x not like 'a%'`, "(x NOT LIKE 'a%')"},
		{`cast(x as bigint)`, "CAST(x AS BIGINT)"},
		{`x::varchar`, "CAST(x AS VARCHAR)"},
		{`case when a then 1 else 2 end`, "CASE WHEN a THEN 1 ELSE 2 END"},
		{`case x when 1 then 'a' when 2 then 'b' end`, "CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END"},
		{`count(distinct x)`, "count(DISTINCT x)"},
		{`interval '2 hours'`, "INTERVAL '2 hours'"},
		{`timestamp '2020-01-01'`, "TIMESTAMP '2020-01-01 00:00:00.000000'"},
		{`"MixedCase" + "select" + "my col"`, `(("MixedCase" + "select") + "my col")`},
		{`-9223372036854775808`, "(-9223372036854775808)"},
		{`a - -1.5`, "(a - (-1.5))"},
		{`-x::bigint`, "(-CAST(x AS BIGINT))"},
		{`-1::bigint`, "(-CAST(1 AS BIGINT))"},
		{`f(a, b)`, "f(a, b)"},
		{`t.col`, "t.col"},
		{`it''s`, "its"}, // double-quote escape handled by lexer… see below
	}
	for _, c := range cases[:len(cases)-1] {
		e, err := ParseExpr(c.src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", c.src, err)
			continue
		}
		if got := e.String(); got != c.want {
			t.Errorf("ParseExpr(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestInsertForms(t *testing.T) {
	ins := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`).(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("%+v", ins)
	}
	ins = mustParse(t, `INSERT INTO t SELECT * FROM u`).(*Insert)
	if ins.Query == nil {
		t.Fatal("insert-select")
	}
}

func TestUpdateDelete(t *testing.T) {
	up := mustParse(t, `UPDATE t SET a = a + 1, b = 'x' WHERE id = 3`).(*Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Fatalf("%+v", up)
	}
	del := mustParse(t, `DELETE FROM t WHERE a < 5`).(*Delete)
	if del.Table != "t" || del.Where == nil {
		t.Fatalf("%+v", del)
	}
	del = mustParse(t, `DELETE FROM t`).(*Delete)
	if del.Where != nil {
		t.Fatal("no where")
	}
}

func TestDropForms(t *testing.T) {
	d := mustParse(t, `DROP TABLE IF EXISTS t`).(*Drop)
	if d.Kind != ObjTable || !d.IfExists {
		t.Fatalf("%+v", d)
	}
	for src, kind := range map[string]ObjectKind{
		`DROP STREAM s`:  ObjStream,
		`DROP VIEW v`:    ObjView,
		`DROP CHANNEL c`: ObjChannel,
		`DROP INDEX i`:   ObjIndex,
	} {
		if got := mustParse(t, src).(*Drop).Kind; got != kind {
			t.Errorf("%s: kind %v", src, got)
		}
	}
}

func TestSetOperations(t *testing.T) {
	q := mustParseSelect(t, `SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1`)
	if q.SetOp == nil || q.SetOp.Kind != SetUnion || !q.SetOp.All {
		t.Fatalf("%+v", q.SetOp)
	}
	if len(q.OrderBy) != 1 {
		t.Fatal("order by belongs to the chain")
	}
	q = mustParseSelect(t, `SELECT a FROM t EXCEPT SELECT a FROM u`)
	if q.SetOp.Kind != SetExcept || q.SetOp.All {
		t.Fatal("except")
	}
	q = mustParseSelect(t, `SELECT a FROM t INTERSECT SELECT a FROM u`)
	if q.SetOp.Kind != SetIntersect {
		t.Fatal("intersect")
	}
}

func TestMiscStatements(t *testing.T) {
	if s := mustParse(t, `SHOW TABLES`).(*Show); s.What != "tables" {
		t.Fatal("show")
	}
	if _, ok := mustParse(t, `EXPLAIN SELECT 1`).(*Explain); !ok {
		t.Fatal("explain")
	}
	if tr := mustParse(t, `TRUNCATE TABLE t`).(*Truncate); tr.Table != "t" {
		t.Fatal("truncate")
	}
	ci := mustParse(t, `CREATE INDEX i ON t (a, b)`).(*CreateIndex)
	if ci.Table != "t" || len(ci.Columns) != 2 {
		t.Fatal("create index")
	}
	v := mustParse(t, `CREATE VIEW v AS SELECT a FROM t`).(*CreateView)
	if v.Name != "v" {
		t.Fatal("create view")
	}
}

func TestParseAllScript(t *testing.T) {
	stmts, err := ParseAll(`
		CREATE TABLE t (a bigint);
		INSERT INTO t VALUES (1);
		SELECT * FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT FROM t`,
		`CREATE TABLE t (a cqtime_not_a_type)`,
		`CREATE TABLE t (a bigint cqtime user)`, // cqtime only on streams
		`INSERT INTO t`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM (SELECT 1`,
		`DROP t`,
		`SELECT 1 2`,
		`UPDATE t SET`,
		`CASE WHEN END`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSelectItemForms(t *testing.T) {
	q := mustParseSelect(t, `SELECT *, t.*, a AS x, b y FROM t`)
	if !q.Items[0].Star {
		t.Fatal("star")
	}
	if q.Items[1].TableStar != "t" {
		t.Fatal("table star")
	}
	if q.Items[2].Alias != "x" || q.Items[3].Alias != "y" {
		t.Fatal("aliases")
	}
}

func TestWalkExprs(t *testing.T) {
	e, err := ParseExpr(`case when a + 1 > 2 then f(b) else c in (1, d) end`)
	if err != nil {
		t.Fatal(err)
	}
	var cols []string
	WalkExprs(e, func(x Expr) bool {
		if c, ok := x.(*ColumnRef); ok {
			cols = append(cols, c.Name)
		}
		return true
	})
	if strings.Join(cols, ",") != "a,b,c,d" {
		t.Fatalf("cols = %v", cols)
	}
}

func TestWindowSpecString(t *testing.T) {
	cases := []struct {
		w    WindowSpec
		want string
	}{
		{WindowSpec{Kind: WindowTime, Visible: 300_000_000, Advance: 60_000_000},
			"<VISIBLE '5 minutes' ADVANCE '1 minute'>"},
		{WindowSpec{Kind: WindowRows, Visible: 100, Advance: 10},
			"<VISIBLE 100 ROWS ADVANCE 10 ROWS>"},
		{WindowSpec{Kind: WindowSlices, Visible: 3, Advance: 1},
			"<SLICES 3 WINDOWS>"},
	}
	for _, c := range cases {
		if got := c.w.String(); got != c.want {
			t.Errorf("got %s, want %s", got, c.want)
		}
	}
}

// TestNestingBudget: a level is counted while it is open and given back when
// it closes — maxNesting bounds how deep a statement goes, not how long it is.
func TestNestingBudget(t *testing.T) {
	parens := func(n int) string { return strings.Repeat("(", n) + "1" + strings.Repeat(")", n) }
	// ParseExpr itself opens one level; each parenthesis one more.
	if _, err := ParseExpr(parens(maxNesting - 1)); err != nil {
		t.Fatalf("%d parentheses: %v", maxNesting-1, err)
	}
	if _, err := ParseExpr(parens(maxNesting)); err == nil || !strings.Contains(err.Error(), "nests deeper than") {
		t.Fatalf("%d parentheses: %v", maxNesting, err)
	}
	// Three times the budget in siblings, a third of it in depth.
	wide := parens(maxNesting/3) + strings.Repeat(" AND f("+parens(maxNesting/3)+") = 1", 9)
	if _, err := ParseExpr(wide); err != nil {
		t.Fatalf("sibling subtrees: %v", err)
	}
	// A chain's levels last as long as the chain: the next statement starts over.
	chain := "SELECT 1" + strings.Repeat("+1", maxNesting-3)
	if _, err := ParseAll(chain + ";" + chain); err != nil {
		t.Fatalf("two chains in one script: %v", err)
	}
	if _, err := Parse(chain + "+1+1+1"); err == nil {
		t.Fatal("a chain longer than the budget parsed")
	}
}

// TestMostNegativeInteger: the sign on a number is part of the literal, so
// math.MinInt64 — which ParseArgs can always put in a tree, and which
// printed as text that did not parse — has a spelling, in both directions.
func TestMostNegativeInteger(t *testing.T) {
	const src = `SELECT -9223372036854775808, a - -9223372036854775808, $1`
	sel := mustParseSelect(t, src)
	lit, ok := sel.Items[0].Expr.(*Literal)
	if !ok || lit.Val.Type() != types.TypeInt || lit.Val.Int() != math.MinInt64 {
		t.Fatalf("parsed %#v", sel.Items[0].Expr)
	}
	bound, err := ParseArgs(src, []types.Datum{types.NewInt(math.MinInt64)})
	if err != nil {
		t.Fatal(err)
	}
	text := Format(bound)
	if want := `SELECT (-9223372036854775808), (a - (-9223372036854775808)), (-9223372036854775808)`; text != want {
		t.Fatalf("printed %s", text)
	}
	if again := mustParseSelect(t, text); Format(again) != text {
		t.Fatalf("%s parses and prints as %s", text, Format(again))
	}
	if _, err := Parse(`SELECT -9223372036854775809`); err == nil {
		t.Fatal("an integer below the most negative parsed")
	}
}

// TestParserPullsTokens: the parser lexes as far as it has got and two tokens
// more, so a frame that is wrong at its third token costs the same whatever
// follows — the parent lexed all of it, 32 bytes a token, before looking —
// and errors come in text order: the syntax error here, not the character
// no token starts with further on.
func TestParserPullsTokens(t *testing.T) {
	src := "SELECT a ) " + strings.Repeat("x ", 4<<20) + "@"
	var err error
	if allocs := testing.AllocsPerRun(5, func() { _, err = Parse(src) }); allocs > 20 {
		t.Errorf("%.0f allocations for an %d-byte frame wrong at its third token", allocs, len(src))
	}
	// One delta also counts what the runtime allocates meanwhile (it read
	// 5 760 B once): take the least of three, with the collector off.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Parse(src)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 && !racing {
		t.Errorf("%d bytes allocated", least)
	}
	if err == nil || !strings.Contains(err.Error(), `near ")" (offset 9)`) {
		t.Fatalf("error %v", err)
	}
	if _, err := Parse("SELECT a @ b )"); err == nil || !strings.Contains(err.Error(), "unexpected character '@' at offset 9") {
		t.Fatalf("a lexical error the parser reaches: %v", err)
	}
}
