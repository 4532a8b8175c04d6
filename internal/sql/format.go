package sql

import (
	"fmt"
	"math"
	"strings"
	"time"

	"streamrel/internal/types"
)

// Format prints an Expr, a *Select, a TableRef, a *WindowSpec or an
// OrderItem as TruSQL text (nothing for nil). It is the one place a tree
// becomes text — plan keys, the SQL a shard router scatters, EXPLAIN and
// error messages all call it — and parsing what it prints gives a tree it
// prints the same way: Format(Parse(Format(s))) == Format(s). Every operator
// node is parenthesized, so no precedence is left to the reader; an
// identifier is quoted exactly when it would not lex back to itself (upper
// case, a reserved word, any other byte); a negative number is parenthesized
// ("a - (-1)", never the comment "a --1"); INTERVAL and TIMESTAMP literals
// carry their keyword.
func Format(node any) string {
	s, _ := FormatArgs(node)
	return s
}

// FormatArgs is Format, and how many arguments the text takes: its highest
// $n (0: none).
func FormatArgs(node any) (string, int) {
	var p printer
	p.w(node)
	return p.String(), p.top
}

type printer struct {
	strings.Builder
	top int // the highest $n printed
}

// ident is a name to print quoted if it must be.
type ident string

// w prints its arguments in order: strings as they are, nodes as SQL.
func (p *printer) w(parts ...any) {
	for _, part := range parts {
		switch n := part.(type) {
		case nil:
		case string:
			p.WriteString(n)
		case ident:
			p.ident(string(n))
		case Expr:
			p.expr(n)
		case *Select:
			p.query(n)
		case TableRef:
			p.tableRef(n)
		case *WindowSpec:
			p.window(n)
		case OrderItem:
			p.w(n.Expr, when(n.Desc, " DESC"), []string{"", " NULLS FIRST", " NULLS LAST"}[n.Nulls])
		default:
			panic(fmt.Sprintf("sql: Format(%T)", part))
		}
	}
}

// list prints n items separated by ", ".
func (p *printer) list(n int, item func(i int)) {
	for i := 0; i < n; i++ {
		if i > 0 {
			p.WriteString(", ")
		}
		item(i)
	}
}

func (p *printer) exprs(es []Expr) { p.list(len(es), func(i int) { p.expr(es[i]) }) }

func (p *printer) ident(s string) {
	l := Lexer{src: s}
	if t, err := l.Next(); err == nil && l.pos == len(s) && t.Text == s && t.isIdent() {
		p.WriteString(s)
		return
	}
	p.w(`"`, strings.ReplaceAll(s, `"`, `""`), `"`)
}

// relName prints a relation name; a qualified one (sys.metrics) is a single
// name holding the dot.
func (p *printer) relName(name string) {
	if q, rest, ok := strings.Cut(name, "."); ok {
		p.w(ident(q), ".", ident(rest))
		return
	}
	p.ident(name)
}

func when(cond bool, s string) string {
	if cond {
		return s
	}
	return ""
}

func not(neg bool) string { return when(neg, "NOT ") }

func (p *printer) expr(e Expr) {
	switch e := e.(type) {
	case *Literal:
		p.literal(e.Val)
	case *Param:
		p.top = max(p.top, e.Index)
		fmt.Fprintf(p, "$%d", e.Index)
	case *ColumnRef:
		if e.Table != "" {
			p.w(ident(e.Table), ".")
		}
		p.ident(e.Name)
	case *BinaryExpr:
		p.w("(", e.L, " ", e.Op.String(), " ", e.R, ")")
	case *UnaryExpr:
		if _, lit := e.E.(*Literal); lit && e.Op == OpNeg {
			p.w("(-(", e.E, "))") // "-5" would be one literal to the parser
			return
		}
		p.w("(", when(e.Op == OpNot, "NOT "), when(e.Op == OpNeg, "-"), e.E, ")")
	case *FuncCall:
		p.w(ident(e.Name), "(")
		switch {
		case e.Star:
			p.WriteString("*")
		case e.Distinct:
			p.WriteString("DISTINCT ")
		}
		p.exprs(e.Args)
		p.WriteString(")")
	case *CastExpr:
		p.w("CAST(", e.E, " AS ", e.To.String(), ")")
	case *IsNullExpr:
		p.w("(", e.E, " IS ", not(e.Neg), "NULL)")
	case *BetweenExpr:
		p.w("(", e.E, " ", not(e.Neg), "BETWEEN ", e.Lo, " AND ", e.Hi, ")")
	case *InExpr:
		p.w("(", e.E, " ", not(e.Neg), "IN (")
		p.exprs(e.List)
		p.WriteString("))")
	case *LikeExpr:
		p.w("(", e.E, " ", not(e.Neg), "LIKE ", e.Pattern, ")")
	case *CaseExpr:
		p.WriteString("CASE")
		if e.Operand != nil {
			p.w(" ", e.Operand)
		}
		for _, w := range e.Whens {
			p.w(" WHEN ", w.Cond, " THEN ", w.Result)
		}
		if e.Else != nil {
			p.w(" ELSE ", e.Else)
		}
		p.WriteString(" END")
	default:
		panic(fmt.Sprintf("sql: Format(%T)", e))
	}
}

// literal prints a constant so that it parses back to the same value; what
// has no literal spelling (a non-finite float, a year past four digits: both
// reach a tree only as bound parameters) prints as the cast that makes it.
func (p *printer) literal(d types.Datum) {
	s := d.String()
	switch d.Type() {
	case types.TypeString:
		p.w("'", strings.ReplaceAll(s, "'", "''"), "'")
	case types.TypeInterval:
		p.w("INTERVAL '", s, "'")
	case types.TypeTimestamp:
		if y := time.UnixMicro(d.TimestampMicros()).UTC().Year(); y < 0 || y > 9999 {
			p.w("CAST(", &Literal{Val: types.NewInt(d.TimestampMicros())}, " AS TIMESTAMP)")
			return
		}
		p.w("TIMESTAMP '", s, "'")
	case types.TypeFloat:
		if f := d.Float(); math.IsInf(f, 0) || math.IsNaN(f) {
			p.w("CAST('", s, "' AS DOUBLE)")
			return
		}
		fallthrough
	default:
		if s[0] == '-' {
			s = "(" + s + ")"
		}
		p.WriteString(s)
	}
}

// query prints a select block and its chain of set operations. A right-hand
// block with an ORDER BY, LIMIT or OFFSET of its own is the one that needs
// its parentheses.
func (p *printer) query(s *Select) {
	p.block(s)
	for op := s.SetOp; op != nil; op = op.Right.SetOp {
		p.w(" ", []string{"UNION", "EXCEPT", "INTERSECT"}[op.Kind], when(op.All, " ALL"), " ")
		if r := op.Right; len(r.OrderBy) > 0 || r.Limit != nil || r.Offset != nil {
			p.WriteString("(")
			p.block(r)
			p.tail(r)
			p.WriteString(")")
		} else {
			p.block(r)
		}
	}
	p.tail(s)
}

// block prints SELECT … [FROM …] [WHERE …] [GROUP BY …] [HAVING …].
func (p *printer) block(s *Select) {
	p.WriteString("SELECT ")
	if s.Distinct {
		p.WriteString("DISTINCT ")
	}
	p.list(len(s.Items), func(i int) {
		switch it := s.Items[i]; {
		case it.Star:
			p.WriteString("*")
		case it.TableStar != "":
			p.w(ident(it.TableStar), ".*")
		default:
			p.expr(it.Expr)
			p.alias(it.Alias)
		}
	})
	if len(s.From) > 0 {
		p.WriteString(" FROM ")
		p.list(len(s.From), func(i int) { p.tableRef(s.From[i]) })
	}
	if s.Where != nil {
		p.w(" WHERE ", s.Where)
	}
	if len(s.GroupBy) > 0 {
		p.WriteString(" GROUP BY ")
		p.exprs(s.GroupBy)
	}
	if s.Having != nil {
		p.w(" HAVING ", s.Having)
	}
}

// tail prints [ORDER BY …] [LIMIT …] [OFFSET …].
func (p *printer) tail(s *Select) {
	if len(s.OrderBy) > 0 {
		p.WriteString(" ORDER BY ")
		p.list(len(s.OrderBy), func(i int) { p.w(s.OrderBy[i]) })
	}
	if s.Limit != nil {
		p.w(" LIMIT ", s.Limit)
	}
	if s.Offset != nil {
		p.w(" OFFSET ", s.Offset)
	}
}

func (p *printer) alias(a string) {
	if a != "" {
		p.w(" AS ", ident(a))
	}
}

func (p *printer) tableRef(ref TableRef) {
	switch r := ref.(type) {
	case *BaseTable:
		p.relName(r.Name)
		if r.Window != nil {
			p.w(" ", r.Window)
		}
		p.alias(r.Alias)
	case *Subquery:
		p.w("(", r.Query, ")")
		p.alias(r.Alias)
	case *Join:
		p.w(r.Left, " ", r.Type.String(), " JOIN ", r.Right)
		if r.On != nil {
			p.w(" ON ", r.On)
		}
	}
}

func (p *printer) window(w *WindowSpec) {
	switch w.Kind {
	case WindowTime:
		fmt.Fprintf(p, "<VISIBLE '%s' ADVANCE '%s'>", types.FormatInterval(w.Visible), types.FormatInterval(w.Advance))
	case WindowRows:
		fmt.Fprintf(p, "<VISIBLE %d ROWS ADVANCE %d ROWS>", w.Visible, w.Advance)
	case WindowSlices:
		fmt.Fprintf(p, "<SLICES %d WINDOWS>", w.Visible)
	}
}
