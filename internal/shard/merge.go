package shard

import (
	"fmt"
	"slices"
	"strings"

	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/plan"
	"streamrel/internal/server"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// MergePlan is the compiled merge step for one scatter-gathered query. It
// merges for one caller at a time: its tree is reopened by every Merge.
type MergePlan struct {
	// ScatterSQL is the rewritten query text the router must send to the
	// shards instead of the client's SQL; "" when no rewrite happened.
	ScatterSQL string

	// final finishes the shards' partial rows: the client's block over
	// plan.PreName, whose column #ci is the scatter query's column i. It is
	// nil when each output row comes from one shard and the rows concatenate.
	final *sql.Select
	width int       // the scatter query's columns
	avgs  []avgItem // the final items that divide an avg's sum by its count
	in    plan.Input
	tree  exec.Operator // final, planned by Bind
}

// avgItem is a final item that finishes avg(x), scattered as sum(x) in
// column sum and count(x) in the next.
type avgItem struct{ item, sum int }

// PlanMerge compiles the merge step for a query that will be scattered
// over shards partitioned on column partCol ("" when unknown). It
// rejects queries whose global result cannot be reassembled from
// per-shard results — the routing invariants documented in DESIGN.md §10.
//
// An aggregate over groups that span shards becomes two blocks, as enrich
// splits one below a join: the shards run the client's query with each
// avg(x) as sum(x), count(x), and the final block folds their partial rows
// by its keys — count and sum as sum, min and max as themselves, avg as
// float(sum(sum)) / sum(count).
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
	// With no aggregate and no GROUP BY each output row is computed on the
	// shard holding its input row; GROUP BY on the partition key confines
	// each group to one shard, so any aggregate (avg included) concatenates.
	if !hasAgg && len(sel.GroupBy) == 0 || partCol != "" && groupsByColumn(sel.GroupBy, partCol) {
		return &MergePlan{}, nil
	}
	if sel.Having != nil {
		return nil, fmt.Errorf("shard: HAVING cannot be scatter-gathered (filters partial aggregates); GROUP BY the partition key or filter client-side")
	}

	keys := make(map[string]bool, len(sel.GroupBy))
	for _, g := range sel.GroupBy {
		keys[g.String()] = true
	}
	selected := make(map[string]bool, len(sel.GroupBy)) // the keys the final block groups by
	p := &MergePlan{final: &sql.Select{From: []sql.TableRef{&sql.BaseTable{Name: plan.PreName}}}}
	scatter := *sel // the query the shards run: sel with each avg split in two
	scatter.Items = nil
	for i, it := range sel.Items {
		if it.Star || it.TableStar != "" {
			return nil, fmt.Errorf("shard: * projection cannot be combined with aggregates across shards")
		}
		item := sql.SelectItem{Alias: plan.OutName(it, i)}
		n := len(scatter.Items)
		c := partialCol(n)
		fc, call := it.Expr.(*sql.FuncCall)
		switch {
		case call && strings.EqualFold(fc.Name, "avg") && !fc.Distinct && len(fc.Args) == 1:
			// avg(x) is not itself combinable — the average of per-shard
			// averages is wrong — but its sum and count are.
			scatter.Items = append(scatter.Items,
				sql.SelectItem{Expr: &sql.FuncCall{Name: "sum", Args: fc.Args}},
				sql.SelectItem{Expr: &sql.FuncCall{Name: "count", Args: fc.Args}})
			p.avgs = append(p.avgs, avgItem{item: len(p.final.Items), sum: n})
			item.Expr = &sql.BinaryExpr{Op: sql.OpDiv,
				L: &sql.CastExpr{E: fold("sum", c), To: types.TypeFloat},
				R: fold("sum", partialCol(n+1))}
		case call && expr.IsAggregate(fc.Name):
			name := strings.ToLower(fc.Name)
			if fc.Distinct {
				return nil, fmt.Errorf("shard: %s(DISTINCT …) cannot be re-combined across shards", fc.Name)
			}
			switch name {
			case "count":
				name = "sum"
			case "sum", "min", "max":
			default:
				return nil, fmt.Errorf("shard: %s cannot be re-combined across shards; GROUP BY the partition key to compute it per shard", fc.Name)
			}
			scatter.Items = append(scatter.Items, it)
			item.Expr = fold(name, c)
		case isCQClose(it.Expr) || keys[it.Expr.String()]:
			scatter.Items = append(scatter.Items, it)
			item.Expr = c
			p.final.GroupBy = append(p.final.GroupBy, c)
			selected[it.Expr.String()] = true
		default:
			return nil, fmt.Errorf("shard: output column %s is neither a combinable aggregate (count/sum/avg/min/max) nor a GROUP BY key", it.Expr.String())
		}
		p.final.Items = append(p.final.Items, item)
	}
	// A key the client does not select still splits the groups: the shards
	// send it as a column of its own, which the final block groups by and
	// leaves out.
	for _, g := range sel.GroupBy {
		if !selected[g.String()] {
			selected[g.String()] = true
			p.final.GroupBy = append(p.final.GroupBy, partialCol(len(scatter.Items)))
			scatter.Items = append(scatter.Items, sql.SelectItem{Expr: g})
		}
	}
	p.width = len(scatter.Items)
	if p.width != len(sel.Items) {
		p.ScatterSQL = sql.Format(&scatter)
	}
	return p, nil
}

// partialCol names scatter column i in the final block.
func partialCol(i int) sql.Expr { return &sql.ColumnRef{Name: fmt.Sprintf("#c%d", i)} }

func fold(agg string, c sql.Expr) sql.Expr { return &sql.FuncCall{Name: agg, Args: []sql.Expr{c}} }

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

// Bind plans the final block over the partial query's columns, as the first
// shard answered them, and returns the columns the client sees: the final
// block's, or the shards' own when their rows concatenate.
func (p *MergePlan) Bind(cols []server.WireColumn) ([]server.WireColumn, error) {
	if p.final == nil {
		return cols, nil
	}
	if len(cols) != p.width {
		return nil, fmt.Errorf("shard: the shards answered %d columns, the merge expects %d", len(cols), p.width)
	}
	schema := make(types.Schema, len(cols))
	for i, c := range cols {
		schema[i] = types.Column{Name: fmt.Sprintf("#c%d", i), Type: typeNamed(c.Type)}
	}
	final := *p.final
	final.Items = slices.Clone(final.Items)
	for _, a := range p.avgs {
		if schema[a.sum].Type == types.TypeInterval {
			// One node's avg refuses an interval, and so does avg over the
			// shards' sums of it; over no value both are NULL.
			final.Items[a.item].Expr = fold("avg", partialCol(a.sum))
		}
	}
	pl, err := plan.BuildOver(&final, schema)
	if err != nil {
		return nil, err
	}
	p.tree = pl.Build(&p.in)
	return server.EncodeSchema(pl.Columns), nil
}

// typeNamed is the type a wire column names (types.Type.String), or
// TypeUnknown.
func typeNamed(name string) types.Type {
	for t := types.TypeNull; t <= types.TypeInterval; t++ {
		if t.String() == name {
			return t
		}
	}
	return types.TypeUnknown
}

// Merge combines the shards' results — parts[i] is shard i's, nil for a
// shard that sent none — in canonical row order (types.CompareRows), so
// the result does not depend on the order shards answer in. Partial rows run
// through the final block, which groups them as one node groups
// (types.Datum.AppendKey) with the aggregates' own accumulators; a plan
// Bind never saw is bound to untyped columns, its values carrying their
// types. No partial row gives no row.
func (p *MergePlan) Merge(parts [][]types.Row) ([]types.Row, error) {
	var rows []types.Row
	for i, part := range parts {
		for _, r := range part {
			if p.final != nil && len(r) != p.width {
				return nil, fmt.Errorf("shard: shard %d sent a row of %d columns, the merge expects %d", i, len(r), p.width)
			}
		}
		rows = append(rows, part...)
	}
	if p.final != nil && len(rows) > 0 {
		if p.tree == nil {
			if _, err := p.Bind(make([]server.WireColumn, p.width)); err != nil {
				return nil, err
			}
		}
		p.in.WindowRows = rows
		var err error
		rows, err = exec.Drain(&exec.Ctx{}, p.tree, 0)
		p.in.WindowRows = nil
		if err != nil {
			return nil, err
		}
	}
	sortRows(rows)
	return rows, nil
}

func sortRows(rows []types.Row) { slices.SortStableFunc(rows, types.CompareRows) }
