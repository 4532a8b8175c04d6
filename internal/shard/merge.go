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
// deterministic regardless of shard arrival order.
func (p *MergePlan) Merge(parts [][]types.Row) []types.Row {
	if p.Kind == MergeConcat {
		var out []types.Row
		for _, rows := range parts {
			out = append(out, rows...)
		}
		sortRows(out)
		return out
	}
	groups := make(map[string]types.Row)
	var order []string
	for _, rows := range parts {
		for _, r := range rows {
			if len(r) != len(p.Cols) {
				continue // shard disagreement; drop rather than corrupt
			}
			k := p.groupKey(r)
			acc, ok := groups[k]
			if !ok {
				groups[k] = append(types.Row(nil), r...)
				order = append(order, k)
				continue
			}
			for i, cm := range p.Cols {
				acc[i] = combine(cm, acc[i], r[i])
			}
		}
	}
	out := make([]types.Row, 0, len(order))
	for _, k := range order {
		out = append(out, groups[k])
	}
	if p.Out != nil {
		for i, r := range out {
			out[i] = p.project(r)
		}
	}
	sortRows(out)
	return out
}

// project maps one merged scatter row to the client-visible projection,
// recombining AVG's sum/count pairs: sum/count as DOUBLE, NULL when no
// non-NULL input survived anywhere (SQL avg of nothing).
func (p *MergePlan) project(r types.Row) types.Row {
	out := make(types.Row, len(p.Out))
	for i, oc := range p.Out {
		if oc.Count < 0 {
			out[i] = r[oc.Src]
			continue
		}
		n := r[oc.Count].Int()
		if n == 0 || r[oc.Src].IsNull() {
			out[i] = types.Null
			continue
		}
		out[i] = types.NewFloat(numeric(r[oc.Src]) / float64(n))
	}
	return out
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

// combine folds one shard's column value into the accumulator.
func combine(cm ColMerge, acc, v types.Datum) types.Datum {
	switch cm {
	case ColKey:
		return acc
	case ColCount:
		return types.NewInt(acc.Int() + v.Int())
	case ColSum:
		switch {
		case v.IsNull():
			return acc
		case acc.IsNull():
			return v
		case acc.Type() == types.TypeInt && v.Type() == types.TypeInt:
			return types.NewInt(acc.Int() + v.Int())
		default:
			return types.NewFloat(numeric(acc) + numeric(v))
		}
	case ColMin, ColMax:
		if v.IsNull() {
			return acc
		}
		if acc.IsNull() {
			return v
		}
		c := types.Compare(acc, v)
		if (cm == ColMin && c <= 0) || (cm == ColMax && c >= 0) {
			return acc
		}
		return v
	}
	return acc
}

func numeric(d types.Datum) float64 {
	if d.Type() == types.TypeInt {
		return float64(d.Int())
	}
	return d.Float()
}

func sortRows(rows []types.Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		return types.CompareRows(rows[i], rows[j]) < 0
	})
}
