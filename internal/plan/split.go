package plan

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"streamrel/internal/expr"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// PreName is the FROM name and qualifier of partial rows a final block
// reads: the pre-aggregated stream in an enrichment post block (enrich), the
// shards' partial rows in a router's merge (BuildOver). '#' keeps it out of
// the reach of parsed SQL.
const PreName = "#pre"

// BuildOver plans sel, whose FROM is PreName, over rows with the given
// columns; a tree built over an Input reads its WindowRows as those rows. It
// is the final block of a two-level aggregate whose partials were computed
// elsewhere — a router's shards — planned as enrich plans its post block.
func BuildOver(sel *sql.Select, cols types.Schema) (*Plan, error) {
	b := &builder{pre: &relNode{scope: scopeFrom(PreName, cols), build: (*Input).window}}
	n, err := b.buildSelect(sel, true)
	if err != nil {
		return nil, err
	}
	return &Plan{Columns: n.schema, CloseCol: n.closeCol, Build: n.build}, nil
}

// Split is the two-level form of one aggregate block, each aggregate a
// monoid homomorphism (Fegaras): a partial block groups by its keys and
// computes partials, and a final block over its rows (PreName) folds one
// group's — count and sum by sum, min and max by themselves, avg as the sum
// of its sums ÷ the sum of its counts. Enrichment computes the partials
// below a join (enrich), the shard router on its shards (internal/shard).
// The zero Split does not know its arguments' types.
type Split struct {
	keys, aggs columns                   // the partial block's columns, #k<i> and #a<i>
	final      map[string]sql.Expr       // an aggregate call → its final form
	untyped    map[string]*sql.ColumnRef // an avg of unknown argument type → its sum
	// args is the one relation the partial block reads: it types aggregate
	// arguments, and an expression is one column by its unqualified text;
	// nil: unknown, and a.u and b.u of a self-join are two columns.
	args *scope
}

// columns is one kind of partial column, each expression once by its text.
type columns struct {
	items []sql.SelectItem
	texts []string
}

// text is e's identity among the partial columns.
func (s *Split) text(e sql.Expr) string {
	if s.args != nil {
		return unqualified(e)
	}
	return sql.Format(e)
}

// add is e's column, appended as prefix<i> if it is new.
func (s *Split) add(c *columns, prefix string, e sql.Expr) *sql.ColumnRef {
	t := s.text(e)
	i := slices.Index(c.texts, t)
	if i < 0 {
		i = len(c.items)
		c.items = append(c.items, sql.SelectItem{Expr: e, Alias: fmt.Sprintf("%s%d", prefix, i)})
		c.texts = append(c.texts, t)
	}
	return &sql.ColumnRef{Table: PreName, Name: c.items[i].Alias}
}

func fold(agg string, e sql.Expr) *sql.FuncCall { return &sql.FuncCall{Name: agg, Args: []sql.Expr{e}} }

// Key registers e as a key of the partial block and returns its column.
func (s *Split) Key(e sql.Expr) sql.Expr { return s.add(&s.keys, "#k", e) }

// Keys is the partial block's key expressions.
func (s *Split) Keys() []sql.Expr {
	keys := make([]sql.Expr, len(s.keys.items))
	for i, k := range s.keys.items {
		keys[i] = k.Expr
	}
	return keys
}

// Items is the partial block's select list: its keys, then its partials.
func (s *Split) Items() []sql.SelectItem { return append(slices.Clip(s.keys.items), s.aggs.items...) }

// Aggregates splits each aggregate call of sel (aggCallsOf: HAVING's too)
// into partials and a final form, or names the first it cannot split; below
// names what the partials run below.
func (s *Split) Aggregates(sel *sql.Select, below string) (whyNot string) {
	if s.final == nil {
		s.final, s.untyped = map[string]sql.Expr{}, map[string]*sql.ColumnRef{}
	}
	for _, fc := range aggCallsOf(sel) {
		name := strings.ToLower(fc.Name)
		if !fc.Star && len(fc.Args) != 1 {
			return fmt.Sprintf("%s takes exactly one argument", fc.Name)
		}
		call := &sql.FuncCall{Name: name, Star: fc.Star, Args: fc.Args}
		switch {
		case fc.Distinct:
			return fmt.Sprintf("%s(DISTINCT …) cannot be aggregated below %s", name, below)
		case name == "count" || name == "sum":
			s.final[fc.String()] = fold("sum", s.add(&s.aggs, "#a", call))
		case name == "min" || name == "max":
			s.final[fc.String()] = fold(name, s.add(&s.aggs, "#a", call))
		case name == "avg" && !fc.Star:
			// avg keeps a float sum and a count, and so do its partials: of the
			// argument cast if its type is known, and only if numeric (a cast
			// would accept strings avg refuses); else the cast is above (Over).
			arg := fc.Args[0]
			if s.args != nil {
				if sc, err := expr.Compile(arg, s.args); err != nil || !sc.Type.Numeric() {
					return fmt.Sprintf("%s is not over a numeric column", fc)
				}
				arg = &sql.CastExpr{E: arg, To: types.TypeFloat}
			}
			sum := s.add(&s.aggs, "#a", fold("sum", arg))
			var l sql.Expr = fold("sum", sum)
			if s.args == nil {
				l, s.untyped[fc.String()] = &sql.CastExpr{E: l, To: types.TypeFloat}, sum
			}
			s.final[fc.String()] = &sql.BinaryExpr{Op: sql.OpDiv, L: l, R: fold("sum", s.add(&s.aggs, "#a", fold("count", fc.Args[0])))}
		default:
			return fmt.Sprintf("aggregate %s has no two-level form", name)
		}
	}
	return ""
}

// Lift rewrites e to read the partial columns above the split: each
// aggregate call to its final form, each key for which below holds (nil:
// every key) to its column.
func (s *Split) Lift(e sql.Expr, below func(sql.Expr) bool) sql.Expr {
	return sql.Rewrite(e, func(x sql.Expr) (sql.Expr, bool) {
		if fc, ok := x.(*sql.FuncCall); ok && expr.IsAggregate(fc.Name) {
			return s.final[fc.String()], true
		}
		if below == nil || below(x) {
			if i := slices.Index(s.keys.texts, s.text(x)); i >= 0 {
				return &sql.ColumnRef{Table: PreName, Name: s.keys.items[i].Alias}, true
			}
		}
		return x, false
	})
}

// Final is sel's block above the split, over PreName: its select list, named
// as sel names it, GROUP BY groups (nil: the split's keys) and HAVING, each
// lifted. The caller adds whatever else the block reads.
func (s *Split) Final(sel *sql.Select, groups []sql.Expr, below func(sql.Expr) bool) *sql.Select {
	final := &sql.Select{Distinct: sel.Distinct, Having: s.Lift(sel.Having, below), Limit: sel.Limit, Offset: sel.Offset,
		From: []sql.TableRef{&sql.BaseTable{Name: PreName, Alias: PreName}}}
	for i, item := range sel.Items {
		item.Expr, item.Alias = s.Lift(item.Expr, below), OutName(item, i)
		final.Items = append(final.Items, item) // a * stays one, for the planner to refuse
	}
	if groups == nil {
		groups = s.Keys()
	}
	for _, g := range groups {
		final.GroupBy = append(final.GroupBy, s.Lift(g, below))
	}
	return final
}

// Over is s over partial columns of the given types (Items, by alias): avg
// over INTERVAL sums is avg over them, which fails as one node's avg over an
// interval does (NULL over none, as one node's).
func (s *Split) Over(cols types.Schema) *Split {
	t := *s
	t.final = maps.Clone(s.final)
	for call, sum := range s.untyped {
		if i := slices.IndexFunc(cols, func(c types.Column) bool { return c.Name == sum.Name }); cols[i].Type == types.TypeInterval {
			t.final[call] = fold("avg", sum)
		}
	}
	return &t
}
