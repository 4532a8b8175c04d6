// Package expr compiles SQL expressions into evaluable closures and
// implements the aggregate accumulators. Accumulators are *mergeable*
// (partial states combine associatively), which is what makes the paper's
// shared, slice-based window aggregation possible (refs [4], [12]):
// per-slice partials are computed once and merged per window close.
package expr

import (
	"errors"
	"fmt"
	"time"

	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// Ctx carries per-row and per-window evaluation state.
type Ctx struct {
	// Row is the current input row.
	Row types.Row
	// WindowClose is the timestamp of the closing window boundary; it is
	// what cq_close(*) returns (paper Example 3). Null outside CQs.
	WindowClose types.Datum
	// Now returns the current time for now(); nil means wall clock.
	Now func() time.Time
	// Args are the execution's arguments: what $n reads is Args[n-1].
	Args []types.Datum
}

// ErrUnbound is what evaluating a parameter without its argument fails
// with: at run time, or while planning, which reads a LIMIT and a
// select-list position.
var ErrUnbound = errors.New("unbound parameter")

// Scalar is a compiled scalar expression.
type Scalar struct {
	Eval func(ctx *Ctx) (types.Datum, error)
	// Type is a promise: every value Eval returns is NULL or of Type. Compile
	// keeps it by giving an expression whose arms differ their common type and
	// casting the arm that differs, and refuses arms that have none. It is
	// TypeUnknown, and promises nothing, only where an input's type is not
	// known and no value is read: a $n parsed without its argument, which
	// fails when it is read, and a shard merge's partial column before Bind,
	// whose plan is checked, not run. A sum's lane rests on it (DESIGN §11
	// "Allocation").
	Type types.Type
}

// Binder resolves column references to positions in the input row during
// compilation. It is implemented by the planner's scopes.
type Binder interface {
	ResolveColumn(table, name string) (ColumnBinding, error)
}

// ColumnBinding is the result of resolving a column reference.
type ColumnBinding struct {
	Index int
	Type  types.Type
}

// Compile turns an AST expression into a Scalar. Aggregate function calls
// are rejected here; the planner extracts them first and rewrites their
// occurrences into column references over aggregate output.
func Compile(e sql.Expr, b Binder) (*Scalar, error) {
	switch n := e.(type) {
	case *sql.Literal:
		v := n.Val
		return &Scalar{
			Eval: func(*Ctx) (types.Datum, error) { return v, nil },
			Type: v.Type(),
		}, nil

	case *sql.ColumnRef:
		cb, err := b.ResolveColumn(n.Table, n.Name)
		if err != nil {
			return nil, err
		}
		idx := cb.Index
		return &Scalar{
			Eval: func(ctx *Ctx) (types.Datum, error) {
				if idx >= len(ctx.Row) {
					return types.Null, fmt.Errorf("expr: column index %d out of range", idx)
				}
				return ctx.Row[idx], nil
			},
			Type: cb.Type,
		}, nil

	case *sql.BinaryExpr:
		return compileBinary(n, b)

	case *sql.UnaryExpr:
		inner, err := Compile(n.E, b)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case sql.OpNeg:
			return &Scalar{
				Eval: func(ctx *Ctx) (types.Datum, error) {
					v, err := inner.Eval(ctx)
					if err != nil {
						return types.Null, err
					}
					return types.Neg(v)
				},
				Type: inner.Type,
			}, nil
		case sql.OpNot:
			return &Scalar{
				Eval: func(ctx *Ctx) (types.Datum, error) {
					v, err := inner.Eval(ctx)
					if err != nil {
						return types.Null, err
					}
					if v.IsNull() {
						return types.Null, nil
					}
					return types.NewBool(!v.Bool()), nil
				},
				Type: types.TypeBool,
			}, nil
		}
		return nil, fmt.Errorf("expr: unknown unary operator")

	case *sql.CastExpr:
		inner, err := Compile(n.E, b)
		if err != nil {
			return nil, err
		}
		return Cast(inner, n.To), nil

	case *sql.IsNullExpr:
		inner, err := Compile(n.E, b)
		if err != nil {
			return nil, err
		}
		neg := n.Neg
		return &Scalar{
			Eval: func(ctx *Ctx) (types.Datum, error) {
				v, err := inner.Eval(ctx)
				if err != nil {
					return types.Null, err
				}
				return types.NewBool(v.IsNull() != neg), nil
			},
			Type: types.TypeBool,
		}, nil

	case *sql.BetweenExpr:
		// e BETWEEN lo AND hi  ≡  e >= lo AND e <= hi, with 3VL.
		rewritten := &sql.BinaryExpr{
			Op: sql.OpAnd,
			L:  &sql.BinaryExpr{Op: sql.OpGe, L: n.E, R: n.Lo},
			R:  &sql.BinaryExpr{Op: sql.OpLe, L: n.E, R: n.Hi},
		}
		s, err := Compile(rewritten, b)
		if err != nil {
			return nil, err
		}
		if !n.Neg {
			return s, nil
		}
		return Compile(&sql.UnaryExpr{Op: sql.OpNot, E: rewritten}, b)

	case *sql.InExpr:
		return compileIn(n, b)

	case *sql.LikeExpr:
		return compileLike(n, b)

	case *sql.CaseExpr:
		return compileCase(n, b)

	case *sql.FuncCall:
		if IsAggregate(n.Name) {
			return nil, fmt.Errorf("expr: aggregate %s not allowed here", n.Name)
		}
		return compileFunc(n, b)

	case *sql.Param:
		i := n.Index - 1
		return &Scalar{Type: n.Type, Eval: func(ctx *Ctx) (types.Datum, error) {
			if i >= len(ctx.Args) {
				return types.Null, fmt.Errorf("expr: %w $%d (pass arguments via QueryArgs/ExecArgs/SubscribeArgs)", ErrUnbound, i+1)
			}
			return ctx.Args[i], nil
		}}, nil
	}
	return nil, fmt.Errorf("expr: unsupported expression %T", e)
}

func compileBinary(n *sql.BinaryExpr, b Binder) (*Scalar, error) {
	l, err := Compile(n.L, b)
	if err != nil {
		return nil, err
	}
	r, err := Compile(n.R, b)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case sql.OpAnd, sql.OpOr:
		isOr := n.Op == sql.OpOr
		return &Scalar{Type: types.TypeBool, Eval: func(ctx *Ctx) (types.Datum, error) {
			lv, err := l.Eval(ctx)
			if err != nil {
				return types.Null, err
			}
			// Short-circuit: for OR, true wins; for AND, false wins.
			if !lv.IsNull() && lv.Bool() == isOr {
				return types.NewBool(isOr), nil
			}
			rv, err := r.Eval(ctx)
			if err != nil {
				return types.Null, err
			}
			if !rv.IsNull() && rv.Bool() == isOr {
				return types.NewBool(isOr), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			return types.NewBool(!isOr), nil
		}}, nil

	case sql.OpEq, sql.OpNe, sql.OpLt, sql.OpLe, sql.OpGt, sql.OpGe:
		op := n.Op
		if !types.Comparable(l.Type, r.Type) && l.Type != types.TypeUnknown && r.Type != types.TypeUnknown {
			return nil, fmt.Errorf("expr: cannot compare %s with %s", l.Type, r.Type)
		}
		return &Scalar{Type: types.TypeBool, Eval: func(ctx *Ctx) (types.Datum, error) {
			lv, err := l.Eval(ctx)
			if err != nil {
				return types.Null, err
			}
			rv, err := r.Eval(ctx)
			if err != nil {
				return types.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return types.Null, nil
			}
			if !types.Comparable(lv.Type(), rv.Type()) {
				return types.Null, fmt.Errorf("expr: cannot compare %s with %s", lv.Type(), rv.Type())
			}
			c := types.Compare(lv, rv)
			var out bool
			switch op {
			case sql.OpEq:
				out = c == 0
			case sql.OpNe:
				out = c != 0
			case sql.OpLt:
				out = c < 0
			case sql.OpLe:
				out = c <= 0
			case sql.OpGt:
				out = c > 0
			case sql.OpGe:
				out = c >= 0
			}
			return types.NewBool(out), nil
		}}, nil

	case sql.OpAdd, sql.OpSub, sql.OpMul, sql.OpDiv, sql.OpMod, sql.OpConcat:
		op := arith[n.Op]
		typ, err := arithType(op, l.Type, r.Type)
		if err != nil {
			return nil, err
		}
		return &Scalar{Type: typ, Eval: func(ctx *Ctx) (types.Datum, error) {
			lv, err := l.Eval(ctx)
			if err != nil {
				return types.Null, err
			}
			rv, err := r.Eval(ctx)
			if err != nil {
				return types.Null, err
			}
			return op(lv, rv)
		}}, nil
	}
	return nil, fmt.Errorf("expr: unsupported binary operator %v", n.Op)
}

// arith is each arithmetic operator's evaluation.
var arith = map[sql.BinOp]func(l, r types.Datum) (types.Datum, error){
	sql.OpAdd: types.Add, sql.OpSub: types.Sub, sql.OpMul: types.Mul, sql.OpDiv: types.Div, sql.OpMod: types.Mod,
	sql.OpConcat: func(l, r types.Datum) (types.Datum, error) {
		if l.IsNull() || r.IsNull() {
			return types.Null, nil
		}
		ls, err := types.Cast(l, types.TypeString)
		if err != nil {
			return types.Null, err
		}
		rs, err := types.Cast(r, types.TypeString)
		if err != nil {
			return types.Null, err
		}
		return types.NewString(ls.Str() + rs.Str()), nil
	},
}

// arithType is the type op gives operands of types l and r: the type of what
// it makes of a value of each, so it agrees with types.Add and the others by
// construction, and their error where they have none. A NULL operand makes
// NULL.
func arithType(op func(l, r types.Datum) (types.Datum, error), l, r types.Type) (types.Type, error) {
	switch {
	case l == types.TypeUnknown || r == types.TypeUnknown:
		return types.TypeUnknown, nil
	case l == types.TypeNull || r == types.TypeNull:
		return types.TypeNull, nil
	}
	v, err := op(sample[l], sample[r])
	return v.Type(), err
}

// sample is a value of each type, for arithType: no divisor of it is zero.
var sample = [...]types.Datum{
	types.TypeBool: types.True, types.TypeInt: types.NewInt(1), types.TypeFloat: types.NewFloat(1),
	types.TypeString: types.NewString("1"), types.TypeTimestamp: types.NewTimestampMicros(1),
	types.TypeInterval: types.NewIntervalMicros(1),
}

// CommonType is the type values of types a and b both fit: their own when
// they agree, DOUBLE for BIGINT and DOUBLE, and the other's for NULL or for an
// unknown type (a $n planned without its argument, whose value is cast when
// it is read). Any other pair has none, an error naming both.
func CommonType(a, b types.Type) (types.Type, error) {
	switch {
	case a == b || b == types.TypeNull || b == types.TypeUnknown && a != types.TypeNull:
		return a, nil
	case a == types.TypeNull || a == types.TypeUnknown:
		return b, nil
	case a.Numeric() && b.Numeric():
		return types.TypeFloat, nil
	}
	return 0, fmt.Errorf("no common type for %s and %s", a, b)
}

// unify gives arms their common type, casting each that differs in place; what
// names them in an error.
func unify(what string, arms []*Scalar) (types.Type, error) {
	typ := types.TypeNull
	for _, a := range arms {
		var err error
		if typ, err = CommonType(typ, a.Type); err != nil {
			return 0, fmt.Errorf("expr: %s: %w", what, err)
		}
	}
	for i, a := range arms {
		if a.Type != types.TypeNull && typ != types.TypeUnknown {
			arms[i] = Cast(a, typ)
		}
	}
	return typ, nil
}

// Cast is s with its values cast to type to; s itself when that is its type.
func Cast(s *Scalar, to types.Type) *Scalar {
	if s.Type == to {
		return s
	}
	return &Scalar{Type: to, Eval: func(ctx *Ctx) (types.Datum, error) {
		v, err := s.Eval(ctx)
		if err != nil {
			return types.Null, err
		}
		return types.Cast(v, to)
	}}
}

func compileIn(n *sql.InExpr, b Binder) (*Scalar, error) {
	e, err := Compile(n.E, b)
	if err != nil {
		return nil, err
	}
	list := make([]*Scalar, len(n.List))
	for i, le := range n.List {
		if list[i], err = Compile(le, b); err != nil {
			return nil, err
		}
	}
	neg := n.Neg
	return &Scalar{Type: types.TypeBool, Eval: func(ctx *Ctx) (types.Datum, error) {
		v, err := e.Eval(ctx)
		if err != nil {
			return types.Null, err
		}
		if v.IsNull() {
			return types.Null, nil
		}
		sawNull := false
		for _, item := range list {
			iv, err := item.Eval(ctx)
			if err != nil {
				return types.Null, err
			}
			if iv.IsNull() {
				sawNull = true
				continue
			}
			if types.Comparable(v.Type(), iv.Type()) && types.Compare(v, iv) == 0 {
				return types.NewBool(!neg), nil
			}
		}
		if sawNull {
			return types.Null, nil
		}
		return types.NewBool(neg), nil
	}}, nil
}

func compileLike(n *sql.LikeExpr, b Binder) (*Scalar, error) {
	e, err := Compile(n.E, b)
	if err != nil {
		return nil, err
	}
	p, err := Compile(n.Pattern, b)
	if err != nil {
		return nil, err
	}
	neg := n.Neg
	return &Scalar{Type: types.TypeBool, Eval: func(ctx *Ctx) (types.Datum, error) {
		ev, err := e.Eval(ctx)
		if err != nil {
			return types.Null, err
		}
		pv, err := p.Eval(ctx)
		if err != nil {
			return types.Null, err
		}
		if ev.IsNull() || pv.IsNull() {
			return types.Null, nil
		}
		if ev.Type() != types.TypeString || pv.Type() != types.TypeString {
			return types.Null, fmt.Errorf("expr: LIKE requires strings")
		}
		return types.NewBool(MatchLike(ev.Str(), pv.Str()) != neg), nil
	}}, nil
}

// MatchLike implements SQL LIKE: '%' matches any run, '_' matches one
// character (byte-oriented, adequate for ASCII workloads).
func MatchLike(s, pattern string) bool {
	// Iterative two-pointer algorithm with backtracking on the last '%'.
	si, pi := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star, starSi = pi, si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func compileCase(n *sql.CaseExpr, b Binder) (*Scalar, error) {
	var operand *Scalar
	var err error
	if n.Operand != nil {
		if operand, err = Compile(n.Operand, b); err != nil {
			return nil, err
		}
	}
	conds := make([]*Scalar, len(n.Whens))
	results := make([]*Scalar, len(n.Whens), len(n.Whens)+1)
	for i, w := range n.Whens {
		if conds[i], err = Compile(w.Cond, b); err != nil {
			return nil, err
		}
		if results[i], err = Compile(w.Result, b); err != nil {
			return nil, err
		}
	}
	if n.Else != nil {
		elseS, err := Compile(n.Else, b)
		if err != nil {
			return nil, err
		}
		results = append(results, elseS)
	}
	typ, err := unify("CASE", results)
	if err != nil {
		return nil, err
	}
	return &Scalar{Type: typ, Eval: func(ctx *Ctx) (opv types.Datum, err error) {
		if operand != nil {
			if opv, err = operand.Eval(ctx); err != nil {
				return types.Null, err
			}
		}
		for i, cond := range conds {
			cv, err := cond.Eval(ctx)
			if err != nil {
				return types.Null, err
			}
			matched := false
			if operand != nil {
				matched = !opv.IsNull() && !cv.IsNull() &&
					types.Comparable(opv.Type(), cv.Type()) && types.Compare(opv, cv) == 0
			} else {
				matched = !cv.IsNull() && cv.Bool()
			}
			if matched {
				return results[i].Eval(ctx)
			}
		}
		if len(results) > len(conds) {
			return results[len(conds)].Eval(ctx)
		}
		return types.Null, nil
	}}, nil
}

// ConstBinder rejects all column references; it compiles constant
// expressions (e.g. literal rows in INSERT … VALUES).
type ConstBinder struct{}

// ResolveColumn always fails.
func (ConstBinder) ResolveColumn(table, name string) (ColumnBinding, error) {
	return ColumnBinding{}, fmt.Errorf("expr: column %s not allowed in this context", &sql.ColumnRef{Table: table, Name: name})
}
