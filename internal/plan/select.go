package plan

import (
	"fmt"
	"strings"

	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// buildSelect plans one SELECT block (with any chained set operations).
// top marks the outermost block, which owns ORDER BY/LIMIT.
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
		var kind exec.SetOpKind
		switch setOp.Kind {
		case sql.SetUnion:
			kind = exec.SetUnion
		case sql.SetExcept:
			kind = exec.SetExcept
		case sql.SetIntersect:
			kind = exec.SetIntersect
		}
		lb, rb := n.build, right.build
		all := setOp.All
		n = &node{
			schema:   n.schema,
			closeCol: -1,
			build: func(in *Input) exec.Operator {
				return &exec.SetOp{Kind: kind, All: all, Left: lb(in), Right: rb(in)}
			},
		}
	}

	// ORDER BY / LIMIT / OFFSET belong to the whole chain.
	if len(sel.OrderBy) > 0 {
		if n, err = b.applyOrderBy(n, sel); err != nil {
			return nil, err
		}
	}
	if sel.Limit != nil || sel.Offset != nil {
		limit := int64(-1)
		offset := int64(0)
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
		inner := n.build
		n = &node{
			schema:    n.schema,
			streamAgg: n.streamAgg,
			closeCol:  n.closeCol,
			build: func(in *Input) exec.Operator {
				return &exec.Limit{Child: inner(in), Count: limit, Offset: offset}
			},
		}
		if n.streamAgg != nil {
			below := *n.streamAgg
			n.streamAgg.PostBuild = func(in *Input) exec.Operator {
				return &exec.Limit{Child: below.post(in), Count: limit, Offset: offset}
			}
			n.streamAgg.PostKey += fmt.Sprintf("|L:%d,%d", limit, offset)
		}
	}
	return n, nil
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

	if !isAggregate(sel) {
		return b.buildProjection(sel, rel)
	}
	return b.buildAggregate(sel, rel, streamOnlyFrom, b.reads == reads)
}

// isAggregate reports whether the block groups or aggregates.
func isAggregate(sel *sql.Select) bool {
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
			schema = append(schema, types.Column{Name: outName(item, len(exprs)), Type: s.Type})
			exprs = append(exprs, s)
		}
	}
	return exprs, schema, closeCol, nil
}

func isCQClose(e sql.Expr) bool {
	fc, ok := e.(*sql.FuncCall)
	return ok && strings.ToLower(fc.Name) == "cq_close"
}

// applyOrderBy sorts the output. Keys resolve (in priority order) as:
// output position (ORDER BY 1), output column name/alias, or an arbitrary
// expression over the pre-projection scope (added as hidden sort columns).
func (b *builder) applyOrderBy(n *node, sel *sql.Select) (*node, error) {
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
			keys = append(keys, exec.SortKey{Expr: columnScalar(pos-1, n.schema[pos-1].Type), Desc: item.Desc, NullsFirst: nf, NullsLast: nl})
			continue
		}
		// Output column name or alias.
		if cr, ok := item.Expr.(*sql.ColumnRef); ok && cr.Table == "" {
			if cb, err := outScope.ResolveColumn("", cr.Name); err == nil {
				keys = append(keys, exec.SortKey{Expr: columnScalar(cb.Index, cb.Type), Desc: item.Desc, NullsFirst: nf, NullsLast: nl})
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
		keys = append(keys, exec.SortKey{Expr: columnScalar(pos, s.Type), Desc: item.Desc, NullsFirst: nf, NullsLast: nl})
	}

	schema := n.schema
	width := len(schema)
	var build func(in *Input) exec.Operator
	if len(hidden) == 0 {
		inner := n.build
		build = func(in *Input) exec.Operator {
			return &exec.Sort{Child: inner(in), Keys: keys}
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
			sorted := &exec.Sort{Child: proj, Keys: keys}
			return &exec.Project{Child: sorted, Exprs: strip}
		}
	}

	out := &node{
		schema:    schema,
		streamAgg: n.streamAgg,
		closeCol:  n.closeCol,
		build:     build,
	}
	if n.streamAgg != nil && n.aggPostScope != nil && len(hidden) == 0 {
		// Mirror the sort into the shared-aggregation fast path.
		below := n.streamAgg
		var ob strings.Builder
		ob.WriteString("|O:")
		for _, item := range sel.OrderBy {
			ob.WriteString(sql.Format(item) + ";")
		}
		out.streamAgg = &StreamAgg{
			Pred:        n.streamAgg.Pred,
			GroupBy:     n.streamAgg.GroupBy,
			Aggs:        n.streamAgg.Aggs,
			Fingerprint: n.streamAgg.Fingerprint,
			PostKey:     n.streamAgg.PostKey + ob.String(),
			PostBuild: func(in *Input) exec.Operator {
				return &exec.Sort{Child: below.post(in), Keys: keys}
			},
		}
	} else if n.streamAgg != nil {
		// Hidden-column sorts are not mirrored; drop the fast path.
		out.streamAgg = nil
	}
	return out, nil
}
