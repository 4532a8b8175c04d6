package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"streamrel/internal/expr"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// MergeKind selects how per-shard result sets combine into one.
type MergeKind int

// Merge kinds.
const (
	// MergeConcat interleaves per-shard rows into one canonically ordered
	// result — correct whenever each output row is computed from rows of a
	// single shard (plain projections, and GROUP BY on the partition key).
	MergeConcat MergeKind = iota
	// MergeAggregate re-combines per-shard partial aggregates by group
	// key: COUNT and SUM add, MIN and MAX compare.
	MergeAggregate
)

// ColMerge is the per-output-column combine rule of a MergeAggregate plan.
type ColMerge int

// Column combine rules.
const (
	// ColKey columns identify the group (GROUP BY exprs and cq_close(*));
	// equal across shards within one group.
	ColKey ColMerge = iota
	// ColCount adds integer partial counts.
	ColCount
	// ColSum adds partial sums, skipping NULLs (SQL sum of nothing).
	ColSum
	// ColMin keeps the smaller non-NULL partial.
	ColMin
	// ColMax keeps the larger non-NULL partial.
	ColMax
)

// MergePlan is the compiled merge step for one scatter-gathered query.
type MergePlan struct {
	Kind MergeKind
	// Cols has one combine rule per scatter column (MergeAggregate only).
	// With no AVG rewrite the scatter columns are the output columns.
	Cols []ColMerge
	// Out maps each client-visible output column onto the merged scatter
	// columns; nil when the scatter projection IS the output projection.
	// AVG makes them differ: avg(x) scatters as sum(x), count(x) and is
	// recombined here after the global merge.
	Out []OutCol
	// ScatterSQL is the rewritten query text the router must send to the
	// shards instead of the client's SQL; "" when no rewrite happened.
	ScatterSQL string
}

// OutCol is one client-visible output column of a rewritten scatter plan.
type OutCol struct {
	// Src is the scatter column to emit (the SUM part for an AVG pair).
	Src int
	// Count is the scatter column holding the AVG pair's COUNT, or -1 to
	// pass Src through unchanged. When set, the output value is
	// sum/count as DOUBLE, NULL when the global count is zero.
	Count int
	// Name is the client-visible column name for a synthesized column
	// (the query alias, or the engine's default "avg").
	Name string
}

// PlanMerge compiles the merge step for a query that will be scattered
// over shards partitioned on column partCol ("" when unknown). It
// rejects queries whose global result cannot be reassembled from
// per-shard results — the routing invariants documented in DESIGN.md §10.
func PlanMerge(sel *sql.Select, partCol string) (*MergePlan, error) {
	if sel.SetOp != nil {
		return nil, fmt.Errorf("shard: UNION/EXCEPT/INTERSECT cannot be scatter-gathered")
	}
	if sel.Distinct {
		return nil, fmt.Errorf("shard: SELECT DISTINCT cannot be scatter-gathered")
	}
	if sel.Limit != nil || sel.Offset != nil {
		return nil, fmt.Errorf("shard: LIMIT/OFFSET cannot be scatter-gathered (no global order across shards)")
	}
	if sel.OrderBy != nil {
		return nil, fmt.Errorf("shard: ORDER BY cannot be scatter-gathered; results arrive in canonical row order")
	}

	hasAgg := false
	for _, it := range sel.Items {
		if it.Star || it.TableStar != "" {
			continue
		}
		sql.WalkExprs(it.Expr, func(e sql.Expr) bool {
			if fc, ok := e.(*sql.FuncCall); ok && expr.IsAggregate(fc.Name) {
				hasAgg = true
			}
			return true
		})
	}
	if !hasAgg {
		// Pure row-wise query: every output row is computed on the shard
		// that holds its input row; interleave.
		return &MergePlan{Kind: MergeConcat}, nil
	}

	// GROUP BY on the partition key confines each group to one shard, so
	// any aggregate (including AVG) concatenates.
	if partCol != "" && groupsByColumn(sel.GroupBy, partCol) {
		return &MergePlan{Kind: MergeConcat}, nil
	}
	if sel.Having != nil {
		return nil, fmt.Errorf("shard: HAVING cannot be scatter-gathered (filters partial aggregates); GROUP BY the partition key or filter client-side")
	}

	keys := make(map[string]bool, len(sel.GroupBy))
	for _, g := range sel.GroupBy {
		keys[g.String()] = true
	}
	plan := &MergePlan{Kind: MergeAggregate, Cols: make([]ColMerge, 0, len(sel.Items))}
	scatter := *sel // the query the shards run: sel with each avg split in two
	scatter.Items = nil
	for _, it := range sel.Items {
		if it.Star || it.TableStar != "" {
			return nil, fmt.Errorf("shard: * projection cannot be combined with aggregates across shards")
		}
		// avg(x) is not itself combinable — the average of per-shard
		// averages is wrong — but its SUM+COUNT decomposition is: scatter
		// sum(x), count(x) instead and recombine sum/count after the
		// global merge.
		if fc, ok := it.Expr.(*sql.FuncCall); ok && strings.EqualFold(fc.Name, "avg") && !fc.Distinct && len(fc.Args) == 1 {
			scatter.Items = append(scatter.Items,
				sql.SelectItem{Expr: &sql.FuncCall{Name: "sum", Args: fc.Args}},
				sql.SelectItem{Expr: &sql.FuncCall{Name: "count", Args: fc.Args}})
			name := it.Alias
			if name == "" {
				name = "avg"
			}
			plan.Out = append(plan.Out, OutCol{Src: len(plan.Cols), Count: len(plan.Cols) + 1, Name: name})
			plan.Cols = append(plan.Cols, ColSum, ColCount)
			continue
		}
		scatter.Items = append(scatter.Items, it)
		plan.Out = append(plan.Out, OutCol{Src: len(plan.Cols), Count: -1})
		if cm, ok := aggColMerge(it.Expr); ok {
			var err error
			if cm, err = checkAgg(it.Expr.(*sql.FuncCall), cm); err != nil {
				return nil, err
			}
			plan.Cols = append(plan.Cols, cm)
			continue
		}
		if isCQClose(it.Expr) || keys[it.Expr.String()] {
			plan.Cols = append(plan.Cols, ColKey)
			continue
		}
		return nil, fmt.Errorf("shard: output column %s is neither a combinable aggregate (count/sum/avg/min/max) nor a GROUP BY key", it.Expr.String())
	}
	if len(scatter.Items) == len(sel.Items) {
		plan.Out = nil
		return plan, nil
	}
	plan.ScatterSQL = sql.Format(&scatter)
	return plan, nil
}

// groupsByColumn reports whether any GROUP BY expression is a bare
// reference to column name.
func groupsByColumn(groupBy []sql.Expr, name string) bool {
	for _, g := range groupBy {
		if cr, ok := g.(*sql.ColumnRef); ok && strings.EqualFold(cr.Name, name) {
			return true
		}
	}
	return false
}

func isCQClose(e sql.Expr) bool {
	fc, ok := e.(*sql.FuncCall)
	return ok && strings.EqualFold(fc.Name, "cq_close")
}

// aggColMerge classifies a direct aggregate call; (0,false) when e is not
// an aggregate call at all.
func aggColMerge(e sql.Expr) (ColMerge, bool) {
	fc, ok := e.(*sql.FuncCall)
	if !ok || !expr.IsAggregate(fc.Name) {
		return 0, false
	}
	switch strings.ToLower(fc.Name) {
	case "count":
		return ColCount, true
	case "sum":
		return ColSum, true
	case "min":
		return ColMin, true
	case "max":
		return ColMax, true
	}
	return ColKey, true // flagged; rejected by checkAgg
}

func checkAgg(fc *sql.FuncCall, cm ColMerge) (ColMerge, error) {
	if fc.Distinct {
		return 0, fmt.Errorf("shard: %s(DISTINCT …) cannot be re-combined across shards", fc.Name)
	}
	switch strings.ToLower(fc.Name) {
	case "count", "sum", "min", "max":
		return cm, nil
	}
	return 0, fmt.Errorf("shard: %s cannot be re-combined across shards; GROUP BY the partition key to compute it per shard", fc.Name)
}

// Merge combines per-shard result sets according to the plan. Output
// rows are in canonical row order (types.CompareRows) so results are
// deterministic regardless of shard arrival order. An AVG whose merged sum
// is not numeric comes out NULL; scatter answers it with merge's error.
func (p *MergePlan) Merge(parts [][]types.Row) []types.Row {
	out, _ := p.merge(parts)
	return out
}

// merge folds each group's partials with the aggregates' own accumulators —
// COUNT and SUM partials add as sum does, MIN and MAX compare — so a merged
// column is typed as one node types it.
func (p *MergePlan) merge(parts [][]types.Row) ([]types.Row, error) {
	if p.Kind == MergeConcat {
		var out []types.Row
		for _, rows := range parts {
			out = append(out, rows...)
		}
		sortRows(out)
		return out, nil
	}
	type group struct {
		row  types.Row
		accs []expr.Acc
	}
	groups := make(map[string]*group)
	var order []*group
	var firstErr error
	for _, rows := range parts {
		for _, r := range rows {
			if len(r) != len(p.Cols) {
				continue // shard disagreement; drop rather than corrupt
			}
			k := p.groupKey(r)
			g, ok := groups[k]
			if !ok {
				g = &group{row: append(types.Row(nil), r...), accs: make([]expr.Acc, len(p.Cols))}
				for i, cm := range p.Cols {
					if cm != ColKey { // NewAcc fails only on a name colAgg does not hold
						g.accs[i], _ = expr.NewAcc(expr.AggSpec{Name: colAgg[cm]})
					}
				}
				groups[k] = g
				order = append(order, g)
			}
			for i, acc := range g.accs {
				if acc == nil {
					continue
				}
				if err := acc.Add(r[i]); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	out := make([]types.Row, len(order))
	for i, g := range order {
		for j, acc := range g.accs {
			if acc != nil {
				g.row[j] = acc.Result()
			}
		}
		out[i] = g.row
		if p.Out != nil {
			var err error
			if out[i], err = p.project(g.row); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	sortRows(out)
	return out, firstErr
}

// colAgg names the accumulator that folds a column's per-shard partials.
var colAgg = [...]string{ColCount: "sum", ColSum: "sum", ColMin: "min", ColMax: "max"}

// project maps one merged scatter row to the client-visible projection,
// recombining AVG's sum/count pairs: sum/count as DOUBLE, NULL when no
// non-NULL input survived anywhere (SQL avg of nothing). A sum that is not
// numeric is the error one node gives for avg over its type.
func (p *MergePlan) project(r types.Row) (types.Row, error) {
	out := make(types.Row, len(p.Out))
	var err error
	for i, oc := range p.Out {
		if oc.Count < 0 {
			out[i] = r[oc.Src]
			continue
		}
		n, sum := r[oc.Count].Int(), r[oc.Src]
		switch {
		case n == 0 || sum.IsNull():
			out[i] = types.Null
		case !sum.Type().Numeric():
			out[i], err = types.Null, fmt.Errorf("expr: avg over %s", sum.Type())
		default:
			out[i] = types.NewFloat(sum.Float() / float64(n))
		}
	}
	return out, err
}

// groupKey encodes the ColKey columns unambiguously (type tag +
// length-prefixed canonical text).
func (p *MergePlan) groupKey(r types.Row) string {
	var b strings.Builder
	for i, cm := range p.Cols {
		if cm != ColKey {
			continue
		}
		d := r[i]
		b.WriteByte(byte(d.Type()))
		s := d.String()
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	return b.String()
}

func sortRows(rows []types.Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		return types.CompareRows(rows[i], rows[j]) < 0
	})
}
