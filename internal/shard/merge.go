package shard

import (
	"fmt"
	"slices"
	"strings"

	"streamrel/internal/exec"
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
	params     int // the highest $n in ScatterSQL
	// Args bind the final block's $n: the arguments the client sent with
	// the query, which the shards get too.
	Args []types.Datum

	// split is the query's two-level form: the shards run its partial block
	// and the final block folds their rows. It is nil when each output row
	// comes from one shard and the rows concatenate.
	split *plan.Split
	sel   *sql.Select // the client's query
	cols  []string    // the partial block's column names
	in    plan.Input
	tree  exec.Operator // the final block, planned by Bind, or by a Merge Bind never saw
}

// PlanMerge compiles the merge step for a query that will be scattered
// over shards partitioned on column partCol ("" when unknown). It
// rejects queries whose global result cannot be reassembled from
// per-shard results — the routing invariants documented in DESIGN.md §10.
//
// An aggregate over groups that span shards is split in two levels by
// plan.Split, as enrich splits one below a join: the shards run the partial
// block, and the final block is the client's over their rows, SELECT
// lift(items) FROM #pre GROUP BY lift(keys) HAVING lift(having).
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
	// With no aggregate each output row is computed on the shard holding its
	// input row; GROUP BY on the partition key confines each group to one
	// shard, so any aggregate (avg and HAVING included) concatenates.
	if !plan.IsAggregate(sel) || partCol != "" && groupsByColumn(sel.GroupBy, partCol) {
		return &MergePlan{}, nil
	}
	if err := plan.CheckGroupBy(sel); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	p := &MergePlan{split: new(plan.Split), sel: sel}
	if why := p.split.Aggregates(sel, "the merge"); why != "" {
		return nil, fmt.Errorf("shard: %s, so it cannot be re-combined across shards; GROUP BY the partition key to compute it per shard", why)
	}
	for _, g := range sel.GroupBy {
		p.split.Key(g)
	}
	for _, it := range sel.Items {
		// cq_close(*) is one value a window: a key the shards select and do
		// not group by.
		if fc, ok := it.Expr.(*sql.FuncCall); ok && strings.EqualFold(fc.Name, "cq_close") {
			p.split.Key(fc)
		}
	}
	scatter := *sel
	scatter.Items, scatter.Having = nil, nil
	for _, it := range p.split.Items() {
		scatter.Items = append(scatter.Items, sql.SelectItem{Expr: it.Expr})
		p.cols = append(p.cols, it.Alias)
	}
	if text, params := sql.FormatArgs(&scatter); text != sql.Format(sel) {
		p.ScatterSQL, p.params = text, params
	}
	// Planned here over columns of unknown type, a select list the final block
	// cannot compute is refused before the shards run anything; the tree that
	// merges is Bind's, or Merge's.
	if _, err := p.Bind(make([]server.WireColumn, len(p.cols))); err != nil {
		return nil, fmt.Errorf("shard: the merge cannot finish the shards' partial rows: %w", err)
	}
	p.tree = nil
	return p, nil
}

// shardQuery is the query text the shards run for the client's, and its
// arguments: the partial block takes Args up to its own highest $n (HAVING's
// may be beyond it).
func (p *MergePlan) shardQuery(sqlText string) (string, []types.Datum) {
	if p.ScatterSQL == "" {
		return sqlText, p.Args
	}
	return p.ScatterSQL, p.Args[:min(p.params, len(p.Args))]
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

// Bind plans the final block over the partial query's columns, as the first
// shard answered them, and returns the columns the client sees: the final
// block's, or the shards' own when their rows concatenate.
func (p *MergePlan) Bind(cols []server.WireColumn) ([]server.WireColumn, error) {
	if p.split == nil {
		return cols, nil
	}
	if len(cols) != len(p.cols) {
		return nil, fmt.Errorf("shard: the shards answered %d columns, the merge expects %d", len(cols), len(p.cols))
	}
	schema := make(types.Schema, len(cols))
	for i, c := range cols {
		schema[i] = types.Column{Name: p.cols[i], Type: typeNamed(c.Type)}
	}
	pl, err := plan.BuildOver(p.split.Over(schema).Final(p.sel, nil, nil), schema)
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
// (types.Datum.AppendKey) with the aggregates' own accumulators, typed as Bind
// typed their columns: a value of another type is an error. A plan Bind never
// saw is bound at its first Merge to the types the rows hold, each column's
// its first non-NULL value's. No partial row gives no row.
func (p *MergePlan) Merge(parts [][]types.Row) ([]types.Row, error) {
	var rows []types.Row
	for i, part := range parts {
		for _, r := range part {
			if p.split != nil && len(r) != len(p.cols) {
				return nil, fmt.Errorf("shard: shard %d sent a row of %d columns, the merge expects %d", i, len(r), len(p.cols))
			}
		}
		rows = append(rows, part...)
	}
	if p.split != nil && len(rows) > 0 {
		if p.tree == nil {
			cols := make(types.Schema, len(p.cols))
			for i := range cols {
				cols[i].Type = types.TypeNull
				for j := 0; j < len(rows) && cols[i].Type == types.TypeNull; j++ {
					cols[i].Type = rows[j][i].Type()
				}
			}
			if _, err := p.Bind(server.EncodeSchema(cols)); err != nil {
				return nil, err
			}
		}
		p.in.WindowRows = rows
		var err error
		rows, err = exec.Drain(&exec.Ctx{Args: p.Args}, p.tree, 0)
		p.in.WindowRows = nil
		if err != nil {
			return nil, err
		}
	}
	sortRows(rows)
	return rows, nil
}

func sortRows(rows []types.Row) { slices.SortStableFunc(rows, types.CompareRows) }
