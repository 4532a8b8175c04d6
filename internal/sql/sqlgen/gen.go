// Package sqlgen writes TruSQL expressions from a string of bytes, for the
// fuzzers: every choice the expression grammar in internal/sql/parser.go
// offers is one byte of the input, and the binary operators come from
// sql.BinaryOps, the table the parser reads, so what is added there is
// generated here. Each fuzzer builds its statements around them: FuzzParse
// any statement of the grammar — whatever it writes must parse, and print to
// a fixpoint —, FuzzIVMEquivalence, with Gen.Ints set, the continuous
// queries a window-state store can hold, and FuzzDeclaredTypes, with Num,
// expressions whose arms mix BIGINT, DOUBLE and NULL.
package sqlgen

import (
	"slices"
	"strings"

	"streamrel/internal/sql"
)

// Gen draws its choices from Data; when the bytes run out every choice is
// the first, which is always a leaf, so generation ends.
type Gen struct {
	Data []byte
	// Ints, when set, restricts expressions to a typed subset that plans
	// against any stream with those bigint columns and the varchar columns
	// Keys, and that no row makes fail: booleans are comparisons and what
	// AND, OR and NOT make of them; arithmetic is over the columns and small
	// literals, and divides by nothing but a literal.
	Keys, Ints []string
	// Doubles are the DOUBLE columns Num reads beside Ints.
	Doubles []string
}

func (g *Gen) typed() bool { return g.Ints != nil }

// Pick is the next choice among n.
func (g *Gen) Pick(n int) int {
	if len(g.Data) == 0 {
		return 0
	}
	b := g.Data[0]
	g.Data = g.Data[1:]
	return int(b) % n
}

// One is one of its arguments.
func (g *Gen) One(of ...string) string { return of[g.Pick(len(of))] }

// List is between 1 and max items, comma-separated.
func (g *Gen) List(max int, item func() string) string {
	items := []string{item()}
	for n := g.Pick(max); n > 0; n-- {
		items = append(items, item())
	}
	return strings.Join(items, ", ")
}

// ops are the spellings of one level's operators in sql.BinaryOps.
func (g *Gen) ops(prec int) (out []string) {
	for _, b := range sql.BinaryOps {
		if b.Prec == prec && !(g.typed() && b.Op == sql.OpConcat) {
			out = append(out, b.Text)
		}
	}
	return out
}

// Name is an identifier: bare, quoted, an unreserved keyword, not ASCII.
func (g *Gen) Name() string {
	return g.One("a", "b", "url", "s", `"MixedCase"`, `"my col"`, `"select"`, `"a""b"`, "key", "first", "visible", "T", "ünï")
}

// Expr is an expression whose loosest operator binds at prec or tighter,
// nested depth levels at most.
func (g *Gen) Expr(prec, depth int) string {
	switch choice := g.Pick(4); {
	case prec > sql.PrecMul:
		return g.unary(depth)
	case prec == sql.PrecCmp && (choice == 2 || g.typed()): // typed, a boolean is a comparison however shallow
		return g.comparison(depth)
	case depth <= 0 && !g.typed():
		return g.leaf()
	case choice == 1 && depth > 0:
		l, op, r := g.Expr(prec, depth-1), g.One(g.ops(prec)...), g.Expr(prec+1, depth-1)
		if g.typed() && (op == "/" || op == "%") {
			r = g.One("2", "3", "5")
		}
		return l + " " + op + " " + r
	}
	return g.Expr(prec+1, depth)
}

// comparison is one of the forms of the comparison level.
func (g *Gen) comparison(depth int) string {
	operand := func() string { return g.Expr(sql.PrecAdd, depth-1) }
	item, l, not, form := operand, operand(), g.One("", "NOT "), g.Pick(8)
	if !g.typed() {
		l = g.Expr(sql.PrecCmp, depth-1)
		item = func() string { return g.Expr(sql.PrecOr, depth-1) }
	} else if form > 4 { // a string column, against what a string compares with
		l = g.One(g.Keys...)
		return g.One(l+" "+g.One(g.ops(sql.PrecCmp)...)+" "+g.One("'/u0'", "'/u1'", "'/u3'"), l+" "+not+"LIKE '/u%'", l+" IS "+not+"NULL")
	}
	switch form {
	case 1:
		return l + " IS " + not + "NULL"
	case 2:
		return l + " " + not + "BETWEEN " + operand() + " AND " + operand()
	case 3:
		return l + " " + not + "IN (" + g.List(3, item) + ")"
	case 4:
		if depth > 0 {
			return "NOT " + g.Expr(sql.PrecCmp, depth-1)
		}
	case 5:
		return l + " " + not + "LIKE " + operand()
	}
	return l + " " + g.One(g.ops(sql.PrecCmp)...) + " " + operand()
}

func (g *Gen) unary(depth int) string {
	arg := func() string { return g.Expr(sql.PrecOr, depth-1) }
	typ := g.One("int", "bigint", "double precision", "varchar(10)", "numeric(10, 2)", "timestamp", "interval", "boolean")
	switch choice := g.Pick(10); {
	case depth <= 0:
	case g.typed():
		if choice == 4 {
			return "(" + g.Expr(sql.PrecAdd, depth-1) + ")"
		}
	case choice == 1:
		return "- " + g.unary(depth-1)
	case choice == 2:
		return "-9223372036854775808"
	case choice == 3:
		return g.leaf() + "::" + typ + g.One("", "::bigint")
	case choice == 4:
		return "(" + arg() + ")"
	case choice == 5:
		return "CAST(" + arg() + " AS " + typ + ")"
	case choice == 6:
		return "CASE " + g.One("", g.leaf()+" ") + "WHEN " + arg() + " THEN " + arg() + g.One("", " ELSE "+g.leaf()) + " END"
	case choice == 7:
		return g.One("count", "sum", "f", `"F"`, "last", "cq_close") + "(" + g.One("*", "", "DISTINCT "+arg(), g.List(3, arg)) + ")"
	}
	return g.leaf()
}

func (g *Gen) leaf() string {
	if g.typed() {
		if g.Pick(2) == 0 {
			return g.One(g.Ints...)
		}
		return g.One("1", "2", "3", "7")
	}
	return g.One(g.Name(), g.Name()+"."+g.Name(), "0", "42", "9223372036854775807", "1.5", ".5", "5.", "1e3", "2E-3",
		"'a'", "'it''s'", "''", "NULL", "TRUE", "false", "$1", "$2", "INTERVAL '5 minutes'", "interval '-1 hour 30 min'",
		"TIMESTAMP '2020-01-01 00:00:00'", "timestamp '2020-02-29T12:00:00.5Z'", "+ 7")
}

// Num is a numeric expression over the columns Ints and Doubles, NULL and
// literals of both types, nested depth levels at most: arithmetic, coalesce,
// greatest, least and CASE, whose arms may be of either type. It divides by
// nothing but a literal, so no row makes it fail.
func (g *Gen) Num(depth int) string {
	arg := func() string { return g.Num(depth - 1) }
	switch choice := g.Pick(6); {
	case depth <= 0:
	case choice == 1:
		return "(" + arg() + g.One(" + ", " - ", " * ") + arg() + ")"
	case choice == 2:
		return "(- " + arg() + " / " + g.One("2", "2.5") + ")"
	case choice == 3:
		return g.One("coalesce", "greatest", "least") + "(" + g.List(3, arg) + ")"
	case choice == 4:
		return "CASE WHEN " + arg() + g.One(" IS NULL", " > 1") + " THEN " + arg() + g.One("", " ELSE "+arg()) + " END"
	case choice == 5:
		return "CASE " + arg() + " WHEN " + arg() + " THEN " + arg() + " ELSE " + arg() + " END"
	}
	return g.One(slices.Concat(g.Ints, g.Doubles, []string{"NULL", "2", "1.5"})...)
}
