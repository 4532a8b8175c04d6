package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// aggColPrefix qualifies the synthetic scope holding aggregation output.
const aggQual = "#agg"

// buildAggregate plans GROUP BY / aggregate queries. The aggregation
// output row layout is [group keys…, aggregate results…]; every post-
// aggregation expression (projection, HAVING, ORDER BY) is rewritten to
// reference that layout. pure says nothing planned below it reads an
// execution's own state (builder.reads).
func (b *builder) buildAggregate(sel *sql.Select, rel *relNode, streamOnly, pure bool) (*node, error) {
	inScope := rel.scope

	groupExprs, err := resolveGroupBy(sel, inScope)
	if err != nil {
		return nil, err
	}
	for _, item := range sel.Items {
		if item.Star || item.TableStar != "" {
			return nil, fmt.Errorf("plan: * is not allowed with GROUP BY or aggregates")
		}
	}
	aggCalls := aggCallsOf(sel)

	// Compile group keys and aggregate arguments over the input scope.
	compiledGroups := make([]*expr.Scalar, len(groupExprs))
	for i, g := range groupExprs {
		s, err := expr.Compile(g, inScope)
		if err != nil {
			return nil, err
		}
		compiledGroups[i] = s
	}
	aggSpecs := make([]expr.AggSpec, len(aggCalls))
	below := append([]sql.Expr{sel.Where}, groupExprs...) // what a slice or a maintained aggregate evaluates
	for i, fc := range aggCalls {
		below = append(below, fc.Args...)
		spec := expr.AggSpec{Name: strings.ToLower(fc.Name), Star: fc.Star, Distinct: fc.Distinct}
		if !fc.Star {
			if len(fc.Args) != 1 {
				return nil, fmt.Errorf("plan: %s takes exactly one argument", fc.Name)
			}
			if containsAggregate(fc.Args[0]) {
				return nil, fmt.Errorf("plan: aggregate calls cannot be nested")
			}
			arg, err := expr.Compile(fc.Args[0], inScope)
			if err != nil {
				return nil, err
			}
			spec.Arg = arg
		}
		aggSpecs[i] = spec
	}

	// The post-aggregation scope: group keys then aggregate results,
	// addressed via the synthetic #agg qualifier.
	postCols := make([]scopeCol, 0, len(groupExprs)+len(aggSpecs))
	for i, g := range groupExprs {
		name := fmt.Sprintf("#g%d", i)
		if cr, ok := g.(*sql.ColumnRef); ok {
			name = cr.Name
		}
		postCols = append(postCols, scopeCol{qual: aggQual, name: name, typ: compiledGroups[i].Type})
	}
	for i, spec := range aggSpecs {
		postCols = append(postCols, scopeCol{qual: aggQual, name: fmt.Sprintf("#a%d", i), typ: spec.ResultType()})
	}
	postScope := &scope{cols: postCols}

	// rewrite maps post-aggregation AST onto the agg output layout.
	rewrite := func(e sql.Expr) (sql.Expr, error) {
		var rewriteErr error
		out := sql.Rewrite(e, func(x sql.Expr) (sql.Expr, bool) {
			// Aggregate call → its output column.
			if fc, ok := x.(*sql.FuncCall); ok && expr.IsAggregate(fc.Name) {
				for i, call := range aggCalls {
					if call.String() == fc.String() {
						return &sql.ColumnRef{Table: aggQual, Name: fmt.Sprintf("#a%d", i)}, true
					}
				}
				rewriteErr = fmt.Errorf("plan: unexpected aggregate %s", fc)
				return x, true
			}
			// Whole group expression → its key column.
			for i, g := range groupExprs {
				if sameExpr(x, g, inScope) {
					if cr, ok := g.(*sql.ColumnRef); ok {
						return &sql.ColumnRef{Table: aggQual, Name: cr.Name}, true
					}
					return &sql.ColumnRef{Table: aggQual, Name: fmt.Sprintf("#g%d", i)}, true
				}
			}
			return x, false
		})
		return out, rewriteErr
	}

	compilePost := func(e sql.Expr) (*expr.Scalar, error) {
		r, err := rewrite(e)
		if err != nil {
			return nil, err
		}
		s, err := expr.Compile(r, postScope)
		if err != nil {
			// The usual cause: a column not wrapped in an aggregate and not
			// in GROUP BY.
			return nil, fmt.Errorf("plan: %q must appear in the GROUP BY clause or be used in an aggregate function", e.String())
		}
		return s, nil
	}

	// postColumn reports whether e, above the aggregation, is nothing but
	// output column i.
	postColumn := func(e sql.Expr, i int) bool {
		r, err := rewrite(e)
		cr, ok := r.(*sql.ColumnRef)
		if err != nil || !ok {
			return false
		}
		b, err := postScope.ResolveColumn(cr.Table, cr.Name)
		return err == nil && b.Index == i
	}

	// HAVING.
	var having *expr.Scalar
	if sel.Having != nil {
		var err error
		if having, err = compilePost(sel.Having); err != nil {
			return nil, err
		}
	}

	// Projection over the agg output. It is the identity when the select
	// list is exactly that layout — group key 0…g−1, then aggregate 0…a−1,
	// as every plain dashboard's is.
	var projExprs []*expr.Scalar
	var schema types.Schema
	closeCol := -1
	identity := !sel.Distinct && len(sel.Items) == len(postCols)
	for i, item := range sel.Items {
		s, err := compilePost(item.Expr)
		if err != nil {
			return nil, err
		}
		identity = identity && postColumn(item.Expr, i)
		if isCQClose(item.Expr) && closeCol == -1 {
			closeCol = len(projExprs)
		}
		schema = append(schema, types.Column{Name: outName(item, len(projExprs)), Type: s.Type})
		projExprs = append(projExprs, s)
	}

	inner := rel.build
	sortedOutput := len(sel.OrderBy) == 0 // deterministic output when unsorted
	buildAbove := func(op exec.Operator, project bool) exec.Operator {
		if having != nil {
			op = &exec.Filter{Child: op, Pred: having}
		}
		if project {
			op = &exec.Project{Child: op, Exprs: projExprs}
		}
		if sel.Distinct {
			op = &exec.Distinct{Child: op}
		}
		return op
	}
	pure = pure && !calls(below, execState...)
	agg := func(in *Input) exec.Operator {
		return &exec.HashAgg{Child: inner(in), GroupBy: compiledGroups, Aggs: aggSpecs, SortedOutput: sortedOutput, Maintain: pure}
	}
	n := &node{
		schema:   schema,
		closeCol: closeCol,
		build:    func(in *Input) exec.Operator { return buildAbove(agg(in), true) },
		preScope: postScope,
		// Hidden ORDER BY columns are projected over this; with DISTINCT
		// they are refused (applyOrderBy), so it is never built then.
		preBuild:   func(in *Input) exec.Operator { return buildAbove(agg(in), false) },
		projExprs:  projExprs,
		distinct:   sel.Distinct,
		preRewrite: rewrite,
	}

	// Shared-aggregation fast path (paper refs [4],[12]): aggregation
	// directly over the windowed stream. The runtime computes per-slice
	// partials once per (stream, fingerprint) and merges at window close;
	// PostBuild runs everything above the aggregation. A store's rows are
	// immutable and already in the aggregation's layout, so an identity
	// projection is not built over them (it would copy every group at every
	// close), and with nothing else above either there is no post stage.
	//
	// Subsumption widening: WHERE conjuncts expressible over the
	// post-aggregation scope — they reference only GROUP BY expressions,
	// so they are constant within a group — are hoisted out of the slice
	// computation (and its fingerprint) into the post stage. A group
	// whose key fails such a predicate would contribute no output either
	// way, so filtering the merged group rows is equivalent to filtering
	// the input rows; this lets `WHERE url='/a' … GROUP BY url` share
	// slice state with the unfiltered `… GROUP BY url`. The full plan
	// (Build) keeps the WHERE pre-agg.
	//
	// Slices are folded as rows arrive, so nothing they evaluate may
	// depend on when the window closes: cq_close(*) is unknown until then,
	// and now() must be read at the fire, as re-execution reads it, not
	// per arriving row.
	sliceShape := streamOnly && b.stream != nil
	readsNow := sliceShape && calls(below, "now")
	b.readsNow = b.readsNow || readsNow
	if sliceShape && !readsNow && !calls(below, "cq_close") {
		var baseConjs, residConjs []sql.Expr
		var residual []*expr.Scalar
		for _, c := range splitConjuncts(sel.Where) {
			// Scalar aggregates (no GROUP BY) never hoist: they emit a
			// default row over an empty window, and a pre-agg filter that
			// empties the window must NOT suppress that row the way a
			// post-agg filter would.
			if len(groupExprs) > 0 && !containsAggregate(c) {
				if r, rerr := rewrite(c); rerr == nil {
					if s, cerr := expr.Compile(r, postScope); cerr == nil {
						residConjs = append(residConjs, c)
						residual = append(residual, s)
						continue
					}
				}
			}
			baseConjs = append(baseConjs, c)
		}
		baseWhere := andAll(baseConjs)
		fp := fingerprint(b.stream.Name, baseWhere, groupExprs, aggCalls)
		var pred *expr.Scalar
		if baseWhere != nil {
			var err error
			if pred, err = expr.Compile(baseWhere, inScope); err != nil {
				return nil, err
			}
		}
		n.streamAgg = &StreamAgg{
			Pred:        pred,
			GroupBy:     compiledGroups,
			Aggs:        aggSpecs,
			Fingerprint: fp,
			PostKey:     postKeyString(residConjs, sel),
		}
		if !identity || having != nil || len(residual) > 0 {
			n.streamAgg.PostBuild = func(in *Input) exec.Operator {
				op := in.window()
				for _, rs := range residual {
					op = &exec.Filter{Child: op, Pred: rs}
				}
				return buildAbove(op, !identity)
			}
		}
		n.aggPostScope = postScope
	}
	return n, nil
}

// resolveGroupBy returns the GROUP BY list as expressions over the input:
// positions and aliases refer to the select list; anything else is an
// expression over the input.
func resolveGroupBy(sel *sql.Select, inScope *scope) ([]sql.Expr, error) {
	groupExprs := make([]sql.Expr, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		groupExprs[i] = g
		if p, ok := g.(*sql.Param); ok { // a position, read while planning
			return nil, fmt.Errorf("plan: GROUP BY %s: %w", p, expr.ErrUnbound)
		}
		if lit, ok := g.(*sql.Literal); ok && lit.Val.Type() == types.TypeInt {
			pos := int(lit.Val.Int())
			if pos < 1 || pos > len(sel.Items) || sel.Items[pos-1].Expr == nil {
				return nil, fmt.Errorf("plan: GROUP BY position %d out of range", pos)
			}
			groupExprs[i] = sel.Items[pos-1].Expr
			continue
		}
		if cr, ok := g.(*sql.ColumnRef); ok && cr.Table == "" {
			if _, err := inScope.ResolveColumn("", cr.Name); err != nil {
				// Not an input column: try select-list aliases.
				for _, item := range sel.Items {
					if item.Alias == cr.Name && item.Expr != nil {
						groupExprs[i] = item.Expr
						break
					}
				}
			}
		}
		if containsAggregate(groupExprs[i]) {
			return nil, fmt.Errorf("plan: aggregate functions are not allowed in GROUP BY")
		}
	}
	return groupExprs, nil
}

// aggCallsOf collects the distinct aggregate calls appearing anywhere
// post-GROUP: select list, HAVING, ORDER BY.
func aggCallsOf(sel *sql.Select) []*sql.FuncCall {
	var aggCalls []*sql.FuncCall
	seen := map[string]bool{}
	collect := func(e sql.Expr) {
		sql.WalkExprs(e, func(x sql.Expr) bool {
			if fc, ok := x.(*sql.FuncCall); ok && expr.IsAggregate(fc.Name) {
				if !seen[fc.String()] {
					seen[fc.String()] = true
					aggCalls = append(aggCalls, fc)
				}
				return false
			}
			return true
		})
	}
	for _, item := range sel.Items {
		collect(item.Expr)
	}
	collect(sel.Having)
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}
	return aggCalls
}

// postKeyString canonically identifies a plan's post-aggregation stage:
// hoisted residual conjuncts (sorted — conjunction commutes), HAVING,
// projection expressions (aliases excluded: they name, not compute) and
// DISTINCT. ORDER BY and LIMIT are appended by the callers that plan
// them. Two CQs with equal fingerprints and equal post keys are
// identical after canonicalization and can share one post execution.
func postKeyString(resid []sql.Expr, sel *sql.Select) string {
	rs := make([]string, len(resid))
	for i, c := range resid {
		rs[i] = sql.Format(c) + ";"
	}
	sort.Strings(rs)
	var b strings.Builder
	b.WriteString("R:" + strings.Join(rs, "") + "|H:" + sql.Format(sel.Having) + "|S:")
	for _, item := range sel.Items {
		b.WriteString(sql.Format(item.Expr) + ";")
	}
	if sel.Distinct {
		b.WriteString("|D")
	}
	return b.String()
}

// sameExpr reports structural equality of two expressions, resolving
// column references through the scope so "u.url" and "url" match when they
// bind to the same column.
func sameExpr(a, c sql.Expr, sc *scope) bool {
	ca, okA := a.(*sql.ColumnRef)
	cb, okB := c.(*sql.ColumnRef)
	if okA && okB {
		ba, errA := sc.ResolveColumn(ca.Table, ca.Name)
		bb, errB := sc.ResolveColumn(cb.Table, cb.Name)
		if errA == nil && errB == nil {
			return ba.Index == bb.Index
		}
	}
	return a.String() == c.String()
}

// fingerprint canonically identifies a shareable slice computation. where
// is the base (non-hoisted) part of the WHERE clause. Every column below
// the aggregate is the stream's, so references print unqualified: `h.url`
// under an alias and plain `url` key the same store.
func fingerprint(stream string, where sql.Expr, groups []sql.Expr, aggs []*sql.FuncCall) string {
	var b strings.Builder
	b.WriteString(stream + "|W:" + unqualified(where) + "|G:")
	for _, g := range groups {
		b.WriteString(unqualified(g) + ";")
	}
	b.WriteString("|A:")
	for _, a := range aggs {
		b.WriteString(unqualified(a) + ";")
	}
	return b.String()
}

// unqualified prints e (nothing for nil) with the qualifier dropped from
// every column reference.
func unqualified(e sql.Expr) string {
	return sql.Format(sql.Rewrite(e, func(x sql.Expr) (sql.Expr, bool) {
		if cr, ok := x.(*sql.ColumnRef); ok && cr.Table != "" {
			return &sql.ColumnRef{Name: cr.Name}, true
		}
		return x, false
	}))
}

// execState is what only an execution knows: a $n, now() and cq_close(*).
var execState = []string{"$", "now", "cq_close"}

// calls reports whether any of es calls one of the named functions (lower
// case) or, with "$" among them, reads a $n.
func calls(es []sql.Expr, names ...string) bool {
	found := false
	for _, e := range es {
		sql.WalkExprs(e, func(x sql.Expr) bool {
			switch x := x.(type) {
			case *sql.FuncCall:
				found = found || slices.Contains(names, strings.ToLower(x.Name))
			case *sql.Param:
				found = found || slices.Contains(names, "$")
			}
			return !found
		})
	}
	return found
}
