package sql_test

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"streamrel/internal/sql"
	"streamrel/internal/sql/sqlgen"
)

// statement writes a statement of the grammar in parser.go's header around
// sqlgen's expressions, most often a SELECT.
func statement(g *sqlgen.Gen) string {
	switch g.Pick(8) {
	case 5:
		return "CREATE STREAM " + g.Name() + " AS " + query(g, 2)
	case 6:
		return "CREATE CHANNEL IF NOT EXISTS " + g.Name() + " FROM " + g.Name() + " INTO " + g.Name() + g.One("", " APPEND", " REPLACE")
	case 7:
		return "EXPLAIN " + g.One("", "ANALYZE ") + query(g, 2)
	}
	return query(g, 3)
}

// query is blocks, set operations, ORDER BY, LIMIT, OFFSET.
func query(g *sqlgen.Gen, depth int) string {
	s := block(g, depth)
	for n := g.Pick(3); n > 0 && depth > 0; n-- {
		s += g.One(" UNION ", " UNION ALL ", " EXCEPT ", " INTERSECT ")
		if g.Pick(3) == 1 {
			s += "(" + query(g, depth-1) + ")"
		} else {
			s += block(g, depth-1)
		}
	}
	if g.Pick(2) == 1 {
		s += " ORDER BY " + g.List(3, func() string {
			return g.Expr(sql.PrecOr, depth) + g.One("", " ASC", " DESC") + g.One("", " NULLS FIRST", " NULLS LAST")
		})
	}
	return s + g.One("", " LIMIT 5", " LIMIT $1 OFFSET 2", " OFFSET 1")
}

func block(g *sqlgen.Gen, depth int) string {
	s := "SELECT " + g.One("", "", "DISTINCT ", "ALL ") + g.List(3, func() string {
		if e := g.One("", "", "", "*", g.Name()+".*"); e != "" {
			return e
		}
		return g.Expr(sql.PrecOr, depth) + g.One("", "", " AS "+g.Name(), " x")
	})
	if g.Pick(4) > 0 {
		s += " FROM " + g.List(2, func() string {
			ref := source(g, depth)
			for n := g.Pick(3); n > 0; n-- {
				if g.Pick(4) == 1 {
					ref += " CROSS JOIN " + source(g, depth)
				} else {
					ref += g.One(" JOIN ", " INNER JOIN ", " LEFT JOIN ", " RIGHT OUTER JOIN ", " FULL JOIN ") +
						source(g, depth) + " ON " + g.Expr(sql.PrecOr, depth)
				}
			}
			return ref
		})
	}
	for _, clause := range []string{" WHERE ", " GROUP BY ", " HAVING "} {
		if g.Pick(3) == 1 {
			s += clause + g.Expr(sql.PrecOr, depth)
		}
	}
	return s
}

func source(g *sqlgen.Gen, depth int) string {
	if depth > 0 && g.Pick(5) == 4 {
		return "(" + query(g, depth-1) + ")" + g.One(" q", " AS "+g.Name())
	}
	window := g.One("", "", " <VISIBLE '5 minutes' ADVANCE '1 minute'>", " <ADVANCE '90 seconds'>", " <VISIBLE '1.5 hours'>",
		" <VISIBLE 100 ROWS ADVANCE 10 ROWS>", " <SLICES 2 WINDOWS>")
	alias := g.One("", " t", " AS "+g.Name())
	if g.Pick(2) == 1 {
		window, alias = alias, window
	}
	return g.One("", "sys.") + g.Name() + window + alias
}

// depth is how many nodes deep a tree goes.
func depth(node any) int {
	deepest := 0
	under := func(children ...any) {
		for _, c := range children {
			deepest = max(deepest, depth(c))
		}
	}
	switch n := node.(type) {
	case nil:
		return 0
	case *sql.Explain:
		under(n.Stmt)
	case *sql.CreateDerivedStream:
		under(n.Query)
	case *sql.CreateView:
		under(n.Query)
	case *sql.Insert:
		if n.Query != nil {
			under(n.Query)
		}
	case *sql.Select:
		for _, it := range n.Items {
			under(it.Expr)
		}
		for _, ref := range n.From {
			under(ref)
		}
		for _, g := range n.GroupBy {
			under(g)
		}
		for _, o := range n.OrderBy {
			under(o.Expr)
		}
		under(n.Where, n.Having, n.Limit, n.Offset)
		if n.SetOp != nil {
			under(n.SetOp.Right)
		}
	case *sql.Subquery:
		under(n.Query)
	case *sql.Join:
		under(n.Left, n.Right, n.On)
	case sql.Expr:
		sql.WalkExprs(n, func(x sql.Expr) bool {
			if x != n {
				under(x)
			}
			return x == n // its children only: depth walks theirs
		})
	}
	return deepest + 1
}

// selectOf is the SELECT a statement is or holds.
func selectOf(stmt sql.Statement) *sql.Select {
	switch s := stmt.(type) {
	case *sql.Select:
		return s
	case *sql.CreateDerivedStream:
		return s.Query
	case *sql.CreateView:
		return s.Query
	case *sql.Insert:
		return s.Query
	case *sql.Explain:
		return selectOf(s.Stmt)
	}
	return nil
}

var errOffset = regexp.MustCompile(`offset (\d+)`)

// checkText holds one input to the parser's contract: no panic; an error
// points inside the input; a tree no deeper than maxNesting; and a SELECT
// prints as text that parses to a SELECT that prints the same.
func checkText(t *testing.T, src string, mustParse bool) {
	t.Helper()
	stmts, err := sql.ParseAll(src)
	if err != nil {
		if mustParse {
			t.Fatalf("%s\ndid not parse: %v", src, err)
		}
		for _, m := range errOffset.FindAllStringSubmatch(err.Error(), -1) {
			if off, _ := strconv.Atoi(m[1]); off > len(src) {
				t.Fatalf("%q: error offset outside the input: %v", src, err)
			}
		}
		return
	}
	for _, stmt := range stmts {
		if d := depth(stmt); d > sql.MaxNesting {
			t.Fatalf("a tree %d deep parsed (%d bytes of input)", d, len(src))
		}
		sel := selectOf(stmt)
		if sel == nil {
			continue
		}
		text := sql.Format(sel)
		again, err := sql.Parse(text)
		if err != nil {
			t.Fatalf("%s\nprints as\n%s\nwhich does not parse: %v", src, text, err)
		}
		if back, ok := again.(*sql.Select); !ok || sql.Format(back) != text {
			t.Fatalf("%s\nprints as\n%s\nwhich parses and prints as\n%s", src, text, sql.Format(again))
		}
	}
}

// corpus is every string constant in the Go files matching the patterns —
// the statements the suites and the experiments run are among them, and
// anything else is as good a fuzzing seed as any — every string of the JSON
// lists among them, and every statement of the plan-key golden file, which
// holds each CQ they plan in full.
func corpus(t testing.TB, patterns ...string) (out []string) {
	for _, pattern := range patterns {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v, %d files", pattern, err, len(files))
		}
		for _, file := range files {
			if filepath.Ext(file) == ".json" {
				raw, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				var strs []string
				if err := json.Unmarshal(raw, &strs); err != nil {
					t.Fatalf("%s: %v", file, err)
				}
				out = append(out, strs...)
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if s, err := strconv.Unquote(lit.Value); err == nil {
						out = append(out, s)
					}
				}
				return true
			})
		}
	}
	raw, err := os.ReadFile("../../testdata/plankeys.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		DDL []string
		CQs []struct{ SQL string }
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, ctx := range golden {
		out = append(out, ctx.DDL...)
		for _, cq := range ctx.CQs {
			out = append(out, cq.SQL)
		}
	}
	return out
}

// TestFormatFixpoint: parse → print → parse is a fixpoint for every SELECT
// in the root suites (fuzzStoreQueries among them), this package's tests and
// the experiments.
func TestFormatFixpoint(t *testing.T) {
	selects := 0
	for _, src := range corpus(t, "../../*_test.go", "*_test.go", "../experiments/*.go") {
		if stmts, err := sql.ParseAll(src); err == nil && len(stmts) > 0 && selectOf(stmts[0]) != nil {
			selects++
			checkText(t, src, true)
		}
	}
	if selects < 400 {
		t.Fatalf("only %d SELECTs found", selects)
	}
}

// TestNestingIsOfTheTree: maxNesting counts the levels of the tree, not of
// its spelling. A statement within a few levels of it, whichever production
// nests, prints (a parenthesis per operator more than it came with) as text
// that still parses; and a chain's levels come on top of those of its first
// operand, which the parent gave back when the operand ended — ten thousand
// of the last shape below made a tree a million deep.
func TestNestingIsOfTheTree(t *testing.T) {
	n := sql.MaxNesting - 10
	for name, src := range map[string]string{
		"parentheses": "SELECT " + strings.Repeat("(", n) + "a" + strings.Repeat(")", n) + strings.Repeat(" + 1", n),
		"NOT":         "SELECT " + strings.Repeat("NOT ", n) + "a",
		"signs":       "SELECT " + strings.Repeat("- ", n) + "a",
		"AND":         "SELECT a" + strings.Repeat(" AND a", n),
		"comparisons": "SELECT a" + strings.Repeat(" = a IS NULL", n/2),
		"casts":       "SELECT a" + strings.Repeat("::int", n),
		"unions":      "SELECT a" + strings.Repeat(" UNION SELECT a", n),
		"joins":       "SELECT a FROM t" + strings.Repeat(" JOIN t ON a", n),
		"IN lists":    "SELECT " + strings.Repeat("a IN (", n/2) + "a" + strings.Repeat(")", n/2),
		"arguments":   "SELECT " + strings.Repeat("f(", n) + "a" + strings.Repeat(")", n),
	} {
		t.Run(name, func(t *testing.T) { checkText(t, src, true) })
	}
	half := strings.Repeat(" + 1", sql.MaxNesting/2+5)
	for name, src := range map[string]string{
		"a chain over a chain":   "SELECT (a" + half + ")" + half,
		"a chain over a sign":    "SELECT " + strings.Repeat("- ", sql.MaxNesting/2) + "a" + half,
		"joins over a subquery":  "SELECT a FROM (SELECT a" + half + ") q" + strings.Repeat(" CROSS JOIN t", sql.MaxNesting/2),
		"chains a hundred apart": "SELECT " + strings.Repeat("(", 200) + "a" + strings.Repeat(strings.Repeat(" + 1", 100)+")", 200),
	} {
		if _, err := sql.Parse(src); err == nil || !strings.Contains(err.Error(), "nests deeper than") {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// FuzzParse feeds the parser arbitrary bytes, and the statement the same
// bytes choose from the grammar, which must parse. The strings of the retired
// experiments E10, E13, E15 and E16 stay seeds from testdata, ahead of the
// others as their files once sorted.
func FuzzParse(f *testing.F) {
	for _, src := range corpus(f, "../../sql_suite_test.go", "parser_test.go", "testdata/retired_experiments.json", "../experiments/e[1-8]*.go") {
		f.Add([]byte(src))
	}
	f.Add([]byte("SELECT -9223372036854775808, a - -1, - - 2, -3::int, INTERVAL '-9223372036854775808 us'"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkText(t, string(data), false)
		checkText(t, statement(&sqlgen.Gen{Data: data}), true)
	})
}
