package plan

import (
	"fmt"
	"slices"
	"strings"

	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// buildSelect plans one SELECT block (with any chained set operations).
// top marks the outermost block, which owns ORDER BY/LIMIT and, over a
// store, the post stage.
func (b *builder) buildSelect(sel *sql.Select, top bool) (*node, error) {
	n, err := b.buildSelectCore(sel)
	if err != nil {
		return nil, err
	}

	// Chained set operations.
	for setOp := sel.SetOp; setOp != nil; setOp = setOp.Right.SetOp {
		// The right side alone — its SetOp is the rest of this chain — with
		// the ORDER BY/LIMIT/OFFSET it has when it came in parentheses.
		block := *setOp.Right
		block.SetOp = nil
		right, err := b.buildSelect(&block, false)
		if err != nil {
			return nil, err
		}
		if len(right.schema) != len(n.schema) {
			return nil, fmt.Errorf("plan: set operation inputs have %d and %d columns",
				len(n.schema), len(right.schema))
		}
		// Each column is of its inputs' common type; an input whose column
		// differs is cast to it.
		schema := slices.Clone(n.schema)
		for i := range schema {
			if schema[i].Type, err = expr.CommonType(schema[i].Type, right.schema[i].Type); err != nil {
				return nil, fmt.Errorf("plan: set operation column %d: %w", i+1, err)
			}
		}
		var kind exec.SetOpKind
		switch setOp.Kind {
		case sql.SetUnion:
			kind = exec.SetUnion
		case sql.SetExcept:
			kind = exec.SetExcept
		case sql.SetIntersect:
			kind = exec.SetIntersect
		}
		lb, rb := castTo(n, schema), castTo(right, schema)
		all := setOp.All
		n = &node{
			schema:   schema,
			closeCol: -1,
			build: func(in *Input) exec.Operator {
				return &exec.SetOp{Kind: kind, All: all, Left: lb(in), Right: rb(in)}
			},
		}
	}

	// ORDER BY / LIMIT / OFFSET belong to the whole chain.
	limit, offset := int64(-1), int64(0)
	if sel.Limit != nil {
		if limit, err = evalConstInt(sel.Limit, "LIMIT"); err != nil {
			return nil, err
		}
	}
	if sel.Offset != nil {
		if offset, err = evalConstInt(sel.Offset, "OFFSET"); err != nil {
			return nil, err
		}
	}
	if len(sel.OrderBy) > 0 {
		bound := 0 // the rows the Limit reads: all the Sort needs to keep
		if limit > 0 && offset+limit > 0 {
			bound = int(offset + limit)
		}
		if n, err = b.applyOrderBy(n, sel, bound); err != nil {
			return nil, err
		}
	}
	if sel.Limit != nil || sel.Offset != nil {
		inner := n.build
		n = &node{
			schema:    n.schema,
			streamAgg: n.streamAgg,
			closeCol:  n.closeCol,
			build: func(in *Input) exec.Operator {
				return &exec.Limit{Child: inner(in), Count: limit, Offset: offset}
			},
		}
	}

	// A store-backed CQ's post stage is this block's own tree over the
	// store's rows, and none when that tree is the bare window leaf.
	if a := n.streamAgg; a != nil && top {
		for i, o := range sel.OrderBy {
			if i == 0 {
				a.PostKey += "|O:"
			}
			a.PostKey += sql.Format(o) + ";"
		}
		if sel.Limit != nil || sel.Offset != nil {
			a.PostKey += fmt.Sprintf("|L:%d,%d", limit, offset)
		}
		a.PostBuild = overStore(n.build)
		if _, bare := a.PostBuild(&Input{}).(*exec.Relation); bare {
			a.PostBuild = nil
		}
	}
	return n, nil
}

// castTo is n's build with its rows cast to schema's types, column by column.
func castTo(n *node, schema types.Schema) func(in *Input) exec.Operator {
	build, exprs, cast := n.build, make([]*expr.Scalar, len(schema)), false
	for i, c := range n.schema {
		exprs[i] = columnScalar(i, c.Type)
		if to := schema[i].Type; c.Type != to && c.Type != types.TypeNull && to != types.TypeUnknown {
			exprs[i], cast = expr.Cast(exprs[i], to), true
		}
	}
	if !cast {
		return build
	}
	return func(in *Input) exec.Operator { return &exec.Project{Child: build(in), Exprs: exprs} }
}

// buildSelectCore plans items/from/where/group/having of one block.
func (b *builder) buildSelectCore(sel *sql.Select) (*node, error) {
	hadStream := b.stream != nil
	reads := b.reads

	rel, postConds, err := b.buildFrom(sel.From, sel.Where)
	if err != nil {
		return nil, err
	}
	if len(postConds) > 0 {
		if rel, err = b.pushFilter(rel, postConds); err != nil {
			return nil, err
		}
	}

	// Shared-aggregation candidacy: a single windowed stream as the only
	// FROM item, with the whole WHERE applicable at the leaf.
	streamOnlyFrom := !hadStream && b.stream != nil &&
		len(sel.From) == 1 && rel.isStreamShape()

	if !IsAggregate(sel) {
		return b.buildProjection(sel, rel)
	}
	return b.buildAggregate(sel, rel, streamOnlyFrom, b.reads == reads)
}

// IsAggregate reports whether the block groups or aggregates.
func IsAggregate(sel *sql.Select) bool {
	for _, item := range sel.Items {
		if item.Expr != nil && containsAggregate(item.Expr) {
			return true
		}
	}
	return len(sel.GroupBy) > 0 || sel.Having != nil
}

// isStreamShape reports whether the relation is the stream leaf, possibly
// wrapped in filters (pushFilter preserves isStream).
func (r *relNode) isStreamShape() bool { return r.isStream }

// buildProjection plans the non-aggregate projection (+DISTINCT).
func (b *builder) buildProjection(sel *sql.Select, rel *relNode) (*node, error) {
	exprs, schema, closeCol, err := b.compileItems(sel.Items, rel.scope)
	if err != nil {
		return nil, err
	}
	inner := rel.build
	n := &node{
		schema:   schema,
		closeCol: closeCol,
		build: func(in *Input) exec.Operator {
			return &exec.Project{Child: inner(in), Exprs: exprs}
		},
	}
	if sel.Distinct {
		pb := n.build
		n.build = func(in *Input) exec.Operator { return &exec.Distinct{Child: pb(in)} }
	}
	// Stash the pre-projection scope for ORDER BY hidden columns.
	n.preScope = rel.scope
	n.preBuild = rel.build
	n.projExprs = exprs
	n.distinct = sel.Distinct
	return n, nil
}

// compileItems compiles the projection list, expanding stars.
func (b *builder) compileItems(items []sql.SelectItem, sc *scope) ([]*expr.Scalar, types.Schema, int, error) {
	var exprs []*expr.Scalar
	var schema types.Schema
	closeCol := -1
	for _, item := range items {
		switch {
		case item.Star:
			for i, c := range sc.cols {
				exprs = append(exprs, columnScalar(i, c.typ))
				schema = append(schema, types.Column{Name: c.name, Type: c.typ})
			}
		case item.TableStar != "":
			found := false
			for i, c := range sc.cols {
				if c.qual == item.TableStar {
					exprs = append(exprs, columnScalar(i, c.typ))
					schema = append(schema, types.Column{Name: c.name, Type: c.typ})
					found = true
				}
			}
			if !found {
				return nil, nil, -1, fmt.Errorf("plan: relation %q not found for %s.*", item.TableStar, item.TableStar)
			}
		default:
			s, err := expr.Compile(item.Expr, sc)
			if err != nil {
				return nil, nil, -1, err
			}
			if isCQClose(item.Expr) && closeCol == -1 {
				closeCol = len(exprs)
			}
			if calls([]sql.Expr{item.Expr}, execState...) { // an aggregate over this block reads it
				b.reads++
			}
			schema = append(schema, types.Column{Name: OutName(item, len(exprs)), Type: s.Type})
			exprs = append(exprs, s)
		}
	}
	return exprs, schema, closeCol, nil
}

func isCQClose(e sql.Expr) bool {
	fc, ok := e.(*sql.FuncCall)
	return ok && strings.ToLower(fc.Name) == "cq_close"
}

// applyOrderBy sorts the output, keeping only the first bound rows when
// bound > 0. Keys resolve (in priority order) as: output position (ORDER BY
// 1), output column name/alias, or an arbitrary expression over the
// pre-projection scope (added as hidden sort columns).
func (b *builder) applyOrderBy(n *node, sel *sql.Select, bound int) (*node, error) {
	outScope := scopeFrom("", n.schema)
	var keys []exec.SortKey
	var hidden []*expr.Scalar

	for _, item := range sel.OrderBy {
		nf := item.Nulls == sql.NullsFirst
		nl := item.Nulls == sql.NullsLast
		// ORDER BY <position>: a $n there would be read while planning.
		if p, ok := item.Expr.(*sql.Param); ok {
			return nil, fmt.Errorf("plan: ORDER BY %s: %w", p, expr.ErrUnbound)
		}
		if lit, ok := item.Expr.(*sql.Literal); ok && lit.Val.Type() == types.TypeInt {
			pos := int(lit.Val.Int())
			if pos < 1 || pos > len(n.schema) {
				return nil, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
			}
			keys = append(keys, exec.SortKey{Col: pos - 1, Desc: item.Desc, NullsFirst: nf, NullsLast: nl})
			continue
		}
		// Output column name or alias.
		if cr, ok := item.Expr.(*sql.ColumnRef); ok && cr.Table == "" {
			if cb, err := outScope.ResolveColumn("", cr.Name); err == nil {
				keys = append(keys, exec.SortKey{Col: cb.Index, Desc: item.Desc, NullsFirst: nf, NullsLast: nl})
				continue
			}
		}
		// Arbitrary expression over the pre-projection scope.
		if n.preScope == nil {
			return nil, fmt.Errorf("plan: ORDER BY expression %q must reference output columns here", item.Expr.String())
		}
		if n.distinct {
			return nil, fmt.Errorf("plan: ORDER BY expressions must appear in the select list with DISTINCT")
		}
		oe := item.Expr
		if n.preRewrite != nil {
			var err error
			if oe, err = n.preRewrite(oe); err != nil {
				return nil, err
			}
		}
		s, err := expr.Compile(oe, n.preScope)
		if err != nil {
			return nil, err
		}
		// Hidden column at position len(schema)+len(hidden).
		pos := len(n.schema) + len(hidden)
		hidden = append(hidden, s)
		keys = append(keys, exec.SortKey{Col: pos, Desc: item.Desc, NullsFirst: nf, NullsLast: nl})
	}

	schema := n.schema
	width := len(schema)
	var build func(in *Input) exec.Operator
	if len(hidden) == 0 {
		inner := n.build
		build = func(in *Input) exec.Operator {
			return &exec.Sort{Child: inner(in), Keys: keys, Limit: bound}
		}
	} else {
		if n.preBuild == nil {
			return nil, fmt.Errorf("plan: ORDER BY expression not supported for this query shape")
		}
		// Re-project with hidden columns, sort, then strip them.
		all := append(append([]*expr.Scalar{}, n.projExprs...), hidden...)
		pre := n.preBuild
		strip := make([]*expr.Scalar, width)
		for i := range strip {
			strip[i] = columnScalar(i, schema[i].Type)
		}
		build = func(in *Input) exec.Operator {
			proj := &exec.Project{Child: pre(in), Exprs: all}
			sorted := &exec.Sort{Child: proj, Keys: keys, Limit: bound}
			return &exec.Project{Child: sorted, Exprs: strip}
		}
	}

	return &node{schema: schema, streamAgg: n.streamAgg, closeCol: n.closeCol, build: build}, nil
}
