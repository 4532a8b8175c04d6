package plan

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"streamrel/internal/catalog"
	"streamrel/internal/sql"
)

// enrich plans the enrichment shape — one windowed stream inner-joined to
// base tables under a GROUP BY, the paper's Example 5 — as eager
// aggregation: the stream is aggregated below the join, by the join key, in
// an ordinary window-state store, and each close joins O(groups) partial
// rows to the tables instead of O(window rows) stream rows.
//
//	SELECT T…, agg(S…) FROM stream s, tables t WHERE Ps AND Pt AND ks = kt GROUP BY Gs, Gt
//
// becomes the slice spec
//
//	#pre = SELECT ks, Gs, agg(S…) FROM stream s WHERE Ps GROUP BY ks, Gs
//
// and the post stage
//
//	SELECT T…, agg'(#pre.agg) FROM #pre, tables t WHERE #pre.ks = kt AND Pt GROUP BY #pre.Gs, Gt
//
// with agg' each aggregate's final form (Split). It is exact because every
// stream row of one #pre group has the same ks and Gs and therefore joins
// the same table rows and lands in the same final groups: a table row
// matching m stream rows of the group contributes their aggregate once,
// which is what summing m joined rows contributes, and a key matching
// several table rows (N:M) repeats the partial once per match exactly as it
// repeated each stream row. Both
// blocks are planned by the ordinary planner — the first yields the
// StreamAgg (filter hoisting and canonical fingerprint included, so it
// shares a store with any plain dashboard of the same shape), the second
// runs under the snapshot of the close like every post stage, which is the
// snapshot re-execution joins under: window consistency is unchanged.
//
// whyNot names the rule an enrichment-like query failed; it is empty, with
// a nil result, for a query that is not a join aggregate at all.
func (p *Planner) enrich(sel *sql.Select, stream *StreamInfo) (agg *StreamAgg, whyNot string) {
	if sel.SetOp != nil || !IsAggregate(sel) {
		return nil, ""
	}
	fl := flatFrom{all: &scope{}}
	for _, ref := range sel.From {
		if why := fl.add(p.Cat, ref); why != "" {
			return nil, why
		}
	}
	if fl.stream == nil || len(fl.tables) == 0 {
		return nil, ""
	}
	if len(sel.GroupBy) == 0 {
		return nil, "scalar aggregate over a join: an empty window still emits a row"
	}
	streamScope := scopeFrom(tableAlias(fl.stream), stream.Schema)
	fl.nStream = len(streamScope.cols)
	fl.all = concatScopes(streamScope, fl.all)

	// The slice spec: stream-only conjuncts, and the stream side of every
	// key and group expression as the pre-aggregation's GROUP BY.
	sp := &Split{args: streamScope}
	var streamConds, postConds []sql.Expr
	for _, c := range append(splitConjuncts(sel.Where), fl.on...) {
		switch s, t := fl.sides(c); {
		case s && !t:
			streamConds = append(streamConds, c)
		case !s:
			postConds = append(postConds, c)
		default:
			// A key: one side stream-only, the other free of the stream.
			var l, r sql.Expr
			if be, ok := c.(*sql.BinaryExpr); ok && be.Op == sql.OpEq {
				l, r = be.L, be.R
				if s, _ := fl.sides(l); !s {
					l, r = r, l
				}
			}
			ls, lt := fl.sides(l)
			if rs, _ := fl.sides(r); !ls || lt || rs {
				return nil, fmt.Sprintf("conjunct %s mixes stream and table columns and is not an equality key", c)
			}
			postConds = append(postConds, &sql.BinaryExpr{Op: sql.OpEq, L: sp.Key(l), R: r})
		}
	}
	if len(sp.keys.items) == 0 {
		return nil, "no equality key between the stream and a table"
	}

	groupExprs, err := resolveGroupBy(sel, fl.all)
	if err != nil {
		return nil, err.Error()
	}
	for _, g := range groupExprs {
		if s, t := fl.sides(g); s && t {
			return nil, fmt.Sprintf("GROUP BY %s mixes stream and table columns", g)
		} else if s {
			sp.Key(g)
		}
	}
	for _, fc := range aggCallsOf(sel) {
		for _, arg := range fc.Args {
			if _, t := fl.sides(arg); t {
				return nil, fmt.Sprintf("aggregate %s reads a table column", fc)
			}
		}
	}
	if why := sp.Aggregates(sel, "the join"); why != "" {
		return nil, why
	}
	pre := &sql.Select{From: []sql.TableRef{fl.stream}, Where: andAll(streamConds), GroupBy: sp.Keys(), Items: sp.Items()}

	pb := &builder{cat: p.Cat}
	pn, err := pb.buildSelect(pre, true)
	switch {
	case err != nil:
		return nil, err.Error()
	case pb.readsNow:
		return nil, "reads now()"
	case pn.streamAgg == nil:
		return nil, "cq_close(*) below the aggregate"
	}

	// The post block: the original block over #pre in the stream's place,
	// stream-side expressions lifted to #pre's columns.
	streamSide := func(x sql.Expr) bool { s, t := fl.sides(x); return s && !t }
	post := sp.Final(sel, groupExprs, streamSide)
	post.Where = andAll(postConds)
	names := make([]string, len(fl.tables))
	for i, t := range fl.tables {
		post.From = append(post.From, t)
		names[i] = t.Name
	}
	for _, o := range sel.OrderBy {
		// An output name or position sorts by that output column, as in
		// applyOrderBy, even where a stream column has the same name.
		if cr, ok := o.Expr.(*sql.ColumnRef); !ok || cr.Table != "" || !slices.ContainsFunc(post.Items, func(it sql.SelectItem) bool { return it.Alias == cr.Name }) {
			o.Expr = sp.Lift(o.Expr, streamSide)
		}
		post.OrderBy = append(post.OrderBy, o)
	}
	// #pre is the pre block's own build over the store's rows. It selects
	// its group keys, then its aggregates, each once, so that build is at
	// most the hoisted filters: the post block reads the store's rows (a
	// join probes its left input a row at a time, and a Project in between
	// would carve a block per group).
	preAgg := pn.streamAgg
	qb := &builder{cat: p.Cat, pre: &relNode{scope: scopeFrom(PreName, pn.schema), build: pn.build}}
	qn, err := qb.buildSelect(post, true)
	if err != nil {
		return nil, "post stage: " + err.Error()
	}
	preAggNote := fmt.Sprintf("pre-aggregated by (%s) below join %s", strings.Join(sp.keys.texts, ", "), strings.Join(names, ", "))
	if len(qb.kept) > 0 {
		preAggNote += fmt.Sprintf(" (build side of %s kept between closes)", strings.Join(qb.kept, ", "))
	}
	return &StreamAgg{
		Pred:        preAgg.Pred,
		GroupBy:     preAgg.GroupBy,
		Aggs:        preAgg.Aggs,
		Fingerprint: preAgg.Fingerprint,
		PostKey:     preAgg.PostKey + "|E:" + selectKey(post),
		PostBuild:   overStore(qn.build),
		PreAgg:      preAggNote,
	}, ""
}

// flatFrom is a FROM clause flattened through its inner joins: the one
// windowed stream, the base tables, and the ON conjuncts, which under an
// inner join mean what they mean in WHERE.
type flatFrom struct {
	stream  *sql.BaseTable
	tables  []*sql.BaseTable
	on      []sql.Expr
	all     *scope // the stream's nStream columns, then every table's
	nStream int
}

// add flattens one FROM item, returning the rule it breaks if any.
func (f *flatFrom) add(cat *catalog.Catalog, ref sql.TableRef) (whyNot string) {
	switch r := ref.(type) {
	case *sql.Join:
		if r.Type != sql.JoinInner && r.Type != sql.JoinCross {
			return fmt.Sprintf("%s JOIN: only inner joins aggregate below the join", r.Type)
		}
		f.on = append(f.on, splitConjuncts(r.On)...)
		if why := f.add(cat, r.Left); why != "" {
			return why
		}
		return f.add(cat, r.Right)
	case *sql.BaseTable:
		if r.Window != nil {
			f.stream = r // the plan built, so this is its one stream leaf
			return ""
		}
		tab, ok := cat.Table(r.Name)
		if !ok {
			return fmt.Sprintf("joins %s, which is not a base table", r.Name)
		}
		f.tables = append(f.tables, r)
		f.all = concatScopes(f.all, scopeFrom(tableAlias(r), tab.Schema))
		return ""
	}
	return "subquery in FROM"
}

func tableAlias(r *sql.BaseTable) string {
	if r.Alias != "" {
		return r.Alias
	}
	return r.Name
}

// sides reports which inputs e's column references bind to. A reference
// that does not resolve (an ORDER BY output alias) binds to neither.
func (f *flatFrom) sides(e sql.Expr) (stream, table bool) {
	for _, ref := range columnRefs(e) {
		b, err := f.all.ResolveColumn(ref.Table, ref.Name)
		switch {
		case err != nil:
		case b.Index < f.nStream:
			stream = true
		default:
			table = true
		}
	}
	return stream, table
}

// selectKey canonically renders an enrichment post block for PostKey:
// everything that distinguishes two post stages over the same store, which
// is the block as the printer prints it, less what names without computing
// (aliases) or orders without meaning (WHERE conjuncts, sorted).
func selectKey(sel *sql.Select) string {
	key := *sel
	key.Items = make([]sql.SelectItem, len(sel.Items))
	for i, item := range sel.Items {
		key.Items[i].Expr = item.Expr
	}
	conjs := splitConjuncts(sel.Where)
	sort.Slice(conjs, func(i, j int) bool { return sql.Format(conjs[i]) < sql.Format(conjs[j]) })
	key.Where = andAll(conjs)
	return sql.Format(&key)
}
