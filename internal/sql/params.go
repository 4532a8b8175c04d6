package sql

import (
	"fmt"

	"streamrel/internal/types"
)

// Param is a positional query parameter ($1, $2, …). Parameters are bound
// to literal values with BindParams before planning.
type Param struct{ Index int }

func (*Param) exprNode() {}

// String renders the placeholder.
func (p *Param) String() string { return Format(p) }

// BindParams returns a copy of the statement with every $n placeholder
// replaced by the corresponding value from args (1-based). It errors on
// out-of-range placeholders and on unused trailing arguments.
func BindParams(stmt Statement, args []types.Datum) (Statement, error) {
	maxSeen := 0
	var err error // the first placeholder out of range
	bind := func(e Expr) Expr {
		return Rewrite(e, func(x Expr) (Expr, bool) {
			p, ok := x.(*Param)
			switch {
			case !ok:
				return x, false
			case p.Index >= 1 && p.Index <= len(args):
				maxSeen = max(maxSeen, p.Index)
				return &Literal{Val: args[p.Index-1]}, true
			case err == nil:
				err = fmt.Errorf("sql: parameter $%d out of range (%d arguments)", p.Index, len(args))
			}
			return p, true
		})
	}

	var out Statement
	switch s := stmt.(type) {
	case *Select:
		out = bindSelect(s, bind)
	case *Insert:
		ins := *s
		if s.Query != nil {
			ins.Query = bindSelect(s.Query, bind)
		} else {
			ins.Rows = make([][]Expr, len(s.Rows))
			for i, row := range s.Rows {
				ins.Rows[i] = bindList(row, bind)
			}
		}
		out = &ins
	case *Update:
		up := *s
		up.Set = make([]Assignment, len(s.Set))
		for i, a := range s.Set {
			up.Set[i] = Assignment{Column: a.Column, Value: bind(a.Value)}
		}
		up.Where = bind(s.Where)
		out = &up
	case *Delete:
		del := *s
		del.Where = bind(s.Where)
		out = &del
	default:
		if len(args) > 0 {
			return nil, fmt.Errorf("sql: this statement kind does not take parameters")
		}
		return stmt, nil
	}
	if err != nil {
		return nil, err
	}
	if maxSeen < len(args) {
		return nil, fmt.Errorf("sql: %d arguments supplied but only $%d used", len(args), maxSeen)
	}
	return out, nil
}

func bindList(es []Expr, bind func(Expr) Expr) []Expr {
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = bind(e)
	}
	return out
}

// bindSelect rewrites parameters throughout a select block (recursively
// through FROM and set operations).
func bindSelect(s *Select, bind func(Expr) Expr) *Select {
	out := *s
	out.Items = make([]SelectItem, len(s.Items))
	for i, item := range s.Items {
		out.Items[i] = item
		out.Items[i].Expr = bind(item.Expr)
	}
	out.From = make([]TableRef, len(s.From))
	for i, ref := range s.From {
		out.From[i] = bindTableRef(ref, bind)
	}
	out.Where = bind(s.Where)
	out.GroupBy = bindList(s.GroupBy, bind)
	out.Having = bind(s.Having)
	out.OrderBy = make([]OrderItem, len(s.OrderBy))
	for i, o := range s.OrderBy {
		out.OrderBy[i] = o
		out.OrderBy[i].Expr = bind(o.Expr)
	}
	out.Limit = bind(s.Limit)
	out.Offset = bind(s.Offset)
	if s.SetOp != nil {
		out.SetOp = &SetOp{Kind: s.SetOp.Kind, All: s.SetOp.All, Right: bindSelect(s.SetOp.Right, bind)}
	}
	return &out
}

func bindTableRef(ref TableRef, bind func(Expr) Expr) TableRef {
	switch r := ref.(type) {
	case *Subquery:
		return &Subquery{Query: bindSelect(r.Query, bind), Alias: r.Alias}
	case *Join:
		return &Join{Type: r.Type, Left: bindTableRef(r.Left, bind), Right: bindTableRef(r.Right, bind), On: bind(r.On)}
	}
	return ref
}
