// Package plan turns parsed SELECT statements into executable operator
// trees. One planner serves both worlds: a snapshot query plans to a tree
// rooted in table scans; a continuous query plans to the *same* tree shape
// with a window-fed relation as the stream leaf (paper §2.3/§4 — CQ plans
// reuse the standard relational operators).
//
// The planner also detects the shared-aggregation shape (a plain aggregate
// over a single windowed stream, or over that stream inner-joined to base
// tables — see enrich) and exposes its pieces so the stream runtime can
// evaluate per-slice partial aggregates shared across continuous queries
// (paper refs [4], [12]).
package plan

import (
	"fmt"
	"strings"

	"streamrel/internal/catalog"
	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// Input carries per-execution inputs into a built plan: the rows of the
// current window for the plan's stream leaf (nil for snapshot queries),
// which a tree built over it reads at every Open.
type Input struct {
	WindowRows []types.Row
	leaves     []*exec.Relation // the window leaves built over it
}

// window returns a window leaf over in's rows, recorded for RowsTransient.
func (in *Input) window() exec.Operator {
	r := &exec.Relation{Rows: &in.WindowRows}
	in.leaves = append(in.leaves, r)
	return r
}

// RowsTransient reports whether the tree built over in reads its window rows
// during an execution only: the consumer of every window leaf declared so
// (exec.Relation.Transient). A consumer declares at its Open, so this is
// false until the tree's first execution.
func (in *Input) RowsTransient() bool {
	ok := len(in.leaves) > 0
	for _, r := range in.leaves {
		ok = ok && r.Transient()
	}
	return ok
}

// StreamInfo describes the (single) windowed stream a continuous query
// reads.
type StreamInfo struct {
	Name      string // base or derived stream name
	Schema    types.Schema
	CQTimeCol int // index of the CQTIME column; -1 for derived streams without one
	Window    sql.WindowSpec
}

// StreamAgg exposes the pieces of a sliceable aggregation plan: aggregate
// (with optional filter) directly over the stream leaf. The window-state
// store (internal/ivm) computes per-slice partials with Pred/GroupBy/Aggs
// and combines them per window; the stream runtime feeds each window's
// groups through PostBuild for HAVING, projection, ORDER BY and LIMIT.
type StreamAgg struct {
	Pred    *expr.Scalar // nil if no WHERE
	GroupBy []*expr.Scalar
	Aggs    []expr.AggSpec
	// PostBuild assembles the operators that run over the aggregated rows
	// (group keys ++ agg results), which arrive in group-key order as the
	// Input's WindowRows. It is
	// nil when there is no post stage — the select list is exactly that
	// layout and nothing filters, sorts or limits it — and the store's rows
	// are the result as they are (DESIGN §11: which post stages copy).
	PostBuild func(in *Input) exec.Operator
	// Fingerprint identifies the sliceable computation: two CQs with equal
	// fingerprints over the same stream can share slice partials. WHERE
	// conjuncts hoisted into the post stage (see PostKey) are excluded, so
	// subsumed plans — same grouping, per-subscriber residual filter —
	// fingerprint identically and share state.
	Fingerprint string
	// PostKey canonically identifies the post-aggregation stage (hoisted
	// residual WHERE conjuncts, HAVING, projection, DISTINCT, ORDER BY,
	// LIMIT). CQs attached to one view of a store run one post stage per
	// distinct PostKey. For the enrichment shape it also names the joined
	// tables, the join and table-only conjuncts and the final GROUP BY.
	PostKey string
	// PreAgg is empty for an aggregate directly over the stream; for the
	// enrichment shape (see enrich) it is EXPLAIN's note of what the store
	// aggregates by, below which join, and which build sides the post stage
	// keeps between closes.
	PreAgg string
}

// post is PostBuild for the planner's own wrapping of it in a sort or a
// limit: with no post stage, those run over the rows themselves.
func (a *StreamAgg) post(in *Input) exec.Operator {
	if a.PostBuild == nil {
		return in.window()
	}
	return a.PostBuild(in)
}

// Plan is a compiled query.
type Plan struct {
	// Columns names and types the output.
	Columns types.Schema
	// Stream is non-nil for continuous queries.
	Stream *StreamInfo
	// StreamAgg is non-nil when the plan has the sliceable aggregate shape.
	StreamAgg *StreamAgg
	// ReadsNow is set when the plan has that shape but its filter, group
	// keys or aggregate arguments call now(); StreamAgg is then nil, so the
	// clock is read once per fire by re-execution instead of per arriving
	// row by a store.
	ReadsNow bool
	// WhyNoStore names the rule a stream-table join aggregate failed to be
	// planned over a store (see enrich); empty when StreamAgg is set or the
	// plan is no such join.
	WhyNoStore string
	// CloseCol is the output column produced by cq_close(*), or -1; it is
	// how recovery locates the archived window timestamp (paper §4).
	CloseCol int
	// Build assembles the operator tree over in: a snapshot query opens it
	// once, a re-executing continuous query at every close (exec.Operator).
	Build func(in *Input) exec.Operator
}

// Planner compiles statements against a catalog.
type Planner struct {
	Cat *catalog.Catalog
}

// BuildSelect compiles a SELECT (snapshot or continuous).
func (p *Planner) BuildSelect(sel *sql.Select) (*Plan, error) {
	b := &builder{cat: p.Cat}
	n, err := b.buildSelect(sel, true)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Columns:   n.schema,
		Stream:    b.stream,
		StreamAgg: n.streamAgg,
		ReadsNow:  b.readsNow,
		CloseCol:  n.closeCol,
		Build:     n.build,
	}
	if plan.Stream != nil && plan.StreamAgg == nil && !plan.ReadsNow {
		plan.StreamAgg, plan.WhyNoStore = p.enrich(sel, plan.Stream)
	}
	return plan, nil
}

// builder holds per-query planning state.
type builder struct {
	cat    *catalog.Catalog
	stream *StreamInfo
	// readsNow: see Plan.ReadsNow.
	readsNow bool
	// viewDepth guards against recursive view definitions.
	viewDepth int
	// pre, when set, is what FROM #pre plans to: the pre-aggregated stream
	// of an enrichment post block (see enrich); kept names the tables whose
	// build sides that block keeps between closes (see combine).
	pre   *relNode
	kept  []string
	reads int // expressions planned that read execState: an aggregate over none is maintained
}

// node is a planned (sub)tree.
type node struct {
	schema    types.Schema
	build     func(in *Input) exec.Operator
	streamAgg *StreamAgg
	// closeCol is the output column carrying cq_close(*), or -1.
	closeCol int

	// State for ORDER BY planning above this node: the scope expressions
	// may be compiled against (input scope, or post-aggregation scope), a
	// rewrite applied before compiling (aggregate rewriting), and the
	// pieces needed to add hidden sort columns.
	preScope     *scope
	preBuild     func(in *Input) exec.Operator
	preRewrite   func(sql.Expr) (sql.Expr, error)
	projExprs    []*expr.Scalar
	distinct     bool
	aggPostScope *scope
}

// ------------------------------------------------------------- scopes

// scopeCol is one resolvable column: qualifier (alias), name, type and
// position in the concatenated input row.
type scopeCol struct {
	qual string
	name string
	typ  types.Type
}

// scope resolves column references against an ordered column list.
type scope struct {
	cols []scopeCol
}

// ResolveColumn implements expr.Binder.
func (s *scope) ResolveColumn(table, name string) (expr.ColumnBinding, error) {
	found := -1
	for i, c := range s.cols {
		if c.name != name {
			continue
		}
		if table != "" && c.qual != table {
			continue
		}
		if found >= 0 {
			return expr.ColumnBinding{}, fmt.Errorf("plan: column reference %s is ambiguous", &sql.ColumnRef{Table: table, Name: name})
		}
		found = i
	}
	if found < 0 {
		return expr.ColumnBinding{}, fmt.Errorf("plan: column %s does not exist", &sql.ColumnRef{Table: table, Name: name})
	}
	return expr.ColumnBinding{Index: found, Type: s.cols[found].typ}, nil
}

// schemaOf converts scope columns to an output schema.
func (s *scope) schema() types.Schema {
	out := make(types.Schema, len(s.cols))
	for i, c := range s.cols {
		out[i] = types.Column{Name: c.name, Type: c.typ}
	}
	return out
}

func scopeFrom(qual string, schema types.Schema) *scope {
	cols := make([]scopeCol, len(schema))
	for i, c := range schema {
		cols[i] = scopeCol{qual: qual, name: c.Name, typ: c.Type}
	}
	return &scope{cols: cols}
}

func concatScopes(a, b *scope) *scope {
	cols := make([]scopeCol, 0, len(a.cols)+len(b.cols))
	cols = append(cols, a.cols...)
	cols = append(cols, b.cols...)
	return &scope{cols: cols}
}

// ------------------------------------------------------------- helpers

// splitConjuncts flattens a predicate into AND-ed conjuncts.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if e == nil {
		return nil
	}
	if be, ok := e.(*sql.BinaryExpr); ok && be.Op == sql.OpAnd {
		return append(splitConjuncts(be.L), splitConjuncts(be.R)...)
	}
	return []sql.Expr{e}
}

// andAll rebuilds a conjunction; nil for an empty list.
func andAll(es []sql.Expr) sql.Expr {
	var out sql.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &sql.BinaryExpr{Op: sql.OpAnd, L: out, R: e}
		}
	}
	return out
}

// columnRefs collects every column reference in e.
func columnRefs(e sql.Expr) []*sql.ColumnRef {
	var out []*sql.ColumnRef
	sql.WalkExprs(e, func(x sql.Expr) bool {
		if c, ok := x.(*sql.ColumnRef); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// refsResolvable reports whether every column reference in e resolves in s.
func refsResolvable(e sql.Expr, s *scope) bool {
	for _, c := range columnRefs(e) {
		if _, err := s.ResolveColumn(c.Table, c.Name); err != nil {
			return false
		}
	}
	return true
}

// isConst reports whether e contains no column references (it may still
// reference per-execution context like now() or cq_close(*), which is fine
// for bounds evaluated at Open time).
func isConst(e sql.Expr) bool { return len(columnRefs(e)) == 0 }

// containsAggregate reports whether e contains an aggregate call.
func containsAggregate(e sql.Expr) bool {
	found := false
	sql.WalkExprs(e, func(x sql.Expr) bool {
		if fc, ok := x.(*sql.FuncCall); ok && expr.IsAggregate(fc.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// outName derives the output column name for a projection item.
func outName(item sql.SelectItem, idx int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sql.ColumnRef:
		return e.Name
	case *sql.FuncCall:
		return strings.ToLower(e.Name)
	case *sql.CastExpr:
		if c, ok := e.E.(*sql.ColumnRef); ok {
			return c.Name
		}
	}
	return fmt.Sprintf("column%d", idx+1)
}

// evalConstInt evaluates a constant integer expression (LIMIT/OFFSET). A $n
// there fails with expr.ErrUnbound, as one standing for a GROUP BY or ORDER
// BY position does: its statement is then planned with its arguments bound.
func evalConstInt(e sql.Expr, what string) (int64, error) {
	s, err := expr.Compile(e, expr.ConstBinder{})
	if err != nil {
		return 0, fmt.Errorf("plan: %s: %w", what, err)
	}
	v, err := s.Eval(&expr.Ctx{})
	if err != nil {
		return 0, fmt.Errorf("plan: %s: %w", what, err)
	}
	if v.Type() != types.TypeInt {
		return 0, fmt.Errorf("plan: %s must be an integer", what)
	}
	if v.Int() < 0 {
		return 0, fmt.Errorf("plan: %s must not be negative", what)
	}
	return v.Int(), nil
}
