package plan

import (
	"fmt"

	"streamrel/internal/catalog"
	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// relNode is a planned FROM item.
type relNode struct {
	scope *scope
	build func(in *Input) exec.Operator
	// table is set when this node is still a bare table scan, making it a
	// valid target for predicate pushdown and index selection.
	table *catalog.Table
	// isStream marks the plan's windowed stream leaf.
	isStream bool
	// outer marks trees containing outer joins; WHERE pushdown into them
	// is unsound and is skipped.
	outer bool
}

// buildTableRef plans one FROM item.
func (b *builder) buildTableRef(ref sql.TableRef) (*relNode, error) {
	switch r := ref.(type) {
	case *sql.BaseTable:
		return b.buildBaseTable(r)
	case *sql.Subquery:
		n, err := b.buildSelect(r.Query, false)
		if err != nil {
			return nil, err
		}
		return &relNode{
			scope: scopeFrom(r.Alias, n.schema),
			build: n.build,
		}, nil
	case *sql.Join:
		return b.buildJoin(r)
	}
	return nil, fmt.Errorf("plan: unsupported FROM item %T", ref)
}

func (b *builder) buildBaseTable(r *sql.BaseTable) (*relNode, error) {
	if r.Name == PreName && b.pre != nil {
		return b.pre, nil
	}
	alias := tableAlias(r)

	// Views expand inline. A view over streams is a Streaming View,
	// instantiated per use (paper §3.2) — expansion gives exactly that.
	if v, ok := b.cat.View(r.Name); ok {
		if r.Window != nil {
			return nil, fmt.Errorf("plan: window clause on view %q", r.Name)
		}
		b.viewDepth++
		if b.viewDepth > 16 {
			return nil, fmt.Errorf("plan: view nesting too deep (recursive view?)")
		}
		n, err := b.buildSelect(v.Query, false)
		b.viewDepth--
		if err != nil {
			return nil, fmt.Errorf("plan: expanding view %q: %w", r.Name, err)
		}
		return &relNode{scope: scopeFrom(alias, n.schema), build: n.build}, nil
	}

	// Base streams and derived streams become the plan's stream leaf.
	if s, ok := b.cat.Stream(r.Name); ok {
		if r.Window != nil && r.Window.Kind == sql.WindowSlices {
			return nil, fmt.Errorf("plan: <SLICES n WINDOWS> applies to derived streams, and %q is a base stream", r.Name)
		}
		return b.streamLeaf(r, alias, s.Schema, s.CQTimeCol)
	}
	if d, ok := b.cat.Derived(r.Name); ok {
		return b.streamLeaf(r, alias, d.Schema, d.CloseCol)
	}

	t, ok := b.cat.Table(r.Name)
	if !ok {
		return nil, fmt.Errorf("plan: relation %q does not exist", r.Name)
	}
	if r.Window != nil {
		return nil, fmt.Errorf("plan: window clause on table %q (windows apply to streams)", r.Name)
	}
	heap := t.Heap
	return &relNode{
		scope: scopeFrom(alias, t.Schema),
		build: func(*Input) exec.Operator { return &exec.SeqScan{Heap: heap} },
		table: t,
	}, nil
}

func (b *builder) streamLeaf(r *sql.BaseTable, alias string, schema types.Schema, timeCol int) (*relNode, error) {
	if r.Window == nil {
		return nil, fmt.Errorf("plan: stream %q requires a window clause (e.g. <VISIBLE '5 minutes' ADVANCE '1 minute'>)", r.Name)
	}
	if b.stream != nil {
		return nil, fmt.Errorf("plan: query references more than one windowed stream (%q and %q)", b.stream.Name, r.Name)
	}
	b.stream = &StreamInfo{
		Name:      r.Name,
		Schema:    schema,
		CQTimeCol: timeCol,
		Window:    *r.Window,
	}
	return &relNode{
		scope:    scopeFrom(alias, schema),
		build:    (*Input).window,
		isStream: true,
	}, nil
}

// buildJoin plans an explicit JOIN … ON tree.
func (b *builder) buildJoin(j *sql.Join) (*relNode, error) {
	left, err := b.buildTableRef(j.Left)
	if err != nil {
		return nil, err
	}
	right, err := b.buildTableRef(j.Right)
	if err != nil {
		return nil, err
	}
	var jt exec.JoinType
	switch j.Type {
	case sql.JoinInner:
		jt = exec.JoinInner
	case sql.JoinLeft:
		jt = exec.JoinLeft
	case sql.JoinRight:
		jt = exec.JoinRight
	case sql.JoinFull:
		jt = exec.JoinFull
	case sql.JoinCross:
		jt = exec.JoinCross
	}
	n, err := b.combine(left, right, jt, splitConjuncts(j.On))
	if err != nil {
		return nil, err
	}
	if j.Type != sql.JoinInner && j.Type != sql.JoinCross {
		n.outer = true
	}
	return n, nil
}

// combine joins two planned relations under the given type with the given
// ON conjuncts, extracting hash keys from equi-conditions; a HashJoin on none
// is the nested loop.
func (b *builder) combine(left, right *relNode, jt exec.JoinType, conds []sql.Expr) (*relNode, error) {
	joined := concatScopes(left.scope, right.scope)
	var leftKeys, rightKeys []*expr.Scalar
	var residual []sql.Expr
	for _, c := range conds {
		lk, rk, ok := b.equiKeys(c, left.scope, right.scope)
		if ok {
			leftKeys = append(leftKeys, lk)
			rightKeys = append(rightKeys, rk)
			continue
		}
		residual = append(residual, c)
	}
	var res *expr.Scalar
	if len(residual) > 0 {
		var err error
		if res, err = expr.Compile(andAll(residual), joined); err != nil {
			return nil, err
		}
	}
	// A post stage keeps a bare table's build side between closes, a snapshot
	// tree between calls (a re-executing CQ builds it: their oracle), unless ON
	// reads execState or the join has no keys to hash the side on.
	var keep *exec.JoinBuild
	if (b.pre != nil || b.stream == nil) && right.table != nil && len(leftKeys) > 0 && (jt == exec.JoinInner || jt == exec.JoinLeft) && !calls(conds, execState...) {
		keep = &exec.JoinBuild{Heap: right.table.Heap}
		b.kept = append(b.kept, right.table.Name)
	}
	lb, rb := left.build, right.build
	lw, rw := len(left.scope.cols), len(right.scope.cols)
	return &relNode{
		scope: joined,
		outer: left.outer || right.outer,
		build: func(in *Input) exec.Operator {
			return &exec.HashJoin{
				Left: lb(in), Right: rb(in),
				LeftKeys: leftKeys, RightKeys: rightKeys,
				Type: jt, Residual: res,
				LeftWidth: lw, RightWidth: rw, Keep: keep,
			}
		},
	}, nil
}

// columnScalar projects input column i.
func columnScalar(i int, t types.Type) *expr.Scalar {
	return &expr.Scalar{Type: t, Eval: func(ctx *expr.Ctx) (types.Datum, error) {
		return ctx.Row[i], nil
	}}
}

// equiKeys recognizes `l = r` conjuncts where one side resolves purely in
// the left scope and the other purely in the right, returning the compiled
// key expressions.
func (b *builder) equiKeys(c sql.Expr, left, right *scope) (*expr.Scalar, *expr.Scalar, bool) {
	be, ok := c.(*sql.BinaryExpr)
	if !ok || be.Op != sql.OpEq {
		return nil, nil, false
	}
	try := func(lexpr, rexpr sql.Expr) (*expr.Scalar, *expr.Scalar, bool) {
		if !refsResolvable(lexpr, left) || !refsResolvable(rexpr, right) {
			return nil, nil, false
		}
		// Keys must reference at least one column (constant = constant is
		// not a join key).
		if isConst(lexpr) && isConst(rexpr) {
			return nil, nil, false
		}
		lk, err := expr.Compile(lexpr, left)
		if err != nil {
			return nil, nil, false
		}
		rk, err := expr.Compile(rexpr, right)
		if err != nil {
			return nil, nil, false
		}
		return lk, rk, true
	}
	if lk, rk, ok := try(be.L, be.R); ok {
		return lk, rk, true
	}
	if lk, rk, ok := try(be.R, be.L); ok {
		return lk, rk, true
	}
	return nil, nil, false
}

// pushFilter applies conjuncts to a relation, using an index when the
// relation is a bare table scan and a conjunct bounds an indexed column.
func (b *builder) pushFilter(rel *relNode, conds []sql.Expr) (*relNode, error) {
	if len(conds) == 0 {
		return rel, nil
	}
	if calls(conds, execState...) {
		b.reads++
	}
	remaining := conds
	if rel.table != nil {
		var err error
		rel, remaining, err = b.tryIndex(rel, conds)
		if err != nil {
			return nil, err
		}
	}
	if len(remaining) == 0 {
		return rel, nil
	}
	pred, err := expr.Compile(andAll(remaining), rel.scope)
	if err != nil {
		return nil, err
	}
	inner := rel.build
	return &relNode{
		scope:    rel.scope,
		isStream: rel.isStream,
		outer:    rel.outer,
		build: func(in *Input) exec.Operator {
			return &exec.Filter{Child: inner(in), Pred: pred}
		},
	}, nil
}

// tryIndex looks for conjuncts of the form `col op const` over the first
// column of an index on rel's table and converts the scan to an index
// range scan. Returns the (possibly replaced) relation and the conjuncts
// not absorbed into bounds.
func (b *builder) tryIndex(rel *relNode, conds []sql.Expr) (*relNode, []sql.Expr, error) {
	t := rel.table
	best := -1 // index into t.Indexes
	var lo, hi sql.Expr
	var used map[sql.Expr]bool

	for ixPos, ix := range t.Indexes {
		firstCol := t.Schema[ix.Columns[0]].Name
		var cLo, cHi sql.Expr
		cUsed := map[sql.Expr]bool{}
		eq := false
		for _, c := range conds {
			be, ok := c.(*sql.BinaryExpr)
			if !ok {
				continue
			}
			var constSide sql.Expr
			var op sql.BinOp
			if cr, ok := be.L.(*sql.ColumnRef); ok && cr.Name == firstCol && isConst(be.R) &&
				(cr.Table == "" || cr.Table == rel.scope.cols[0].qual) {
				constSide, op = be.R, be.Op
			} else if cr, ok := be.R.(*sql.ColumnRef); ok && cr.Name == firstCol && isConst(be.L) &&
				(cr.Table == "" || cr.Table == rel.scope.cols[0].qual) {
				constSide, op = be.L, flipOp(be.Op)
			} else {
				continue
			}
			switch op {
			case sql.OpEq:
				cLo, cHi, eq = constSide, constSide, true
				cUsed[c] = true
			case sql.OpGe, sql.OpGt:
				if cLo == nil {
					// A strict bound stays a residual filter too: the index
					// delivers >=, the filter tightens it to >.
					cLo, cUsed[c] = constSide, op == sql.OpGe
				}
			case sql.OpLe, sql.OpLt:
				if cHi == nil {
					cHi, cUsed[c] = constSide, op == sql.OpLe
				}
			}
			if eq {
				break
			}
		}
		if cLo == nil && cHi == nil {
			continue
		}
		// Prefer equality matches, then any bounded index.
		if best == -1 || eq {
			best = ixPos
			lo, hi = cLo, cHi
			used = cUsed
			if eq {
				break
			}
		}
	}
	if best == -1 {
		return rel, conds, nil
	}
	ix := t.Indexes[best]
	var loS, hiS *expr.Scalar
	var err error
	if lo != nil {
		if loS, err = expr.Compile(lo, expr.ConstBinder{}); err != nil {
			return nil, nil, err
		}
	}
	if hi != nil {
		if hiS, err = expr.Compile(hi, expr.ConstBinder{}); err != nil {
			return nil, nil, err
		}
	}
	heap, tree := t.Heap, ix.Tree
	rng := fmt.Sprintf("%s [%s, %s]", ix.Name, sql.Format(lo), sql.Format(hi)) // an open bound prints as nothing
	newRel := &relNode{
		scope: rel.scope,
		build: func(*Input) exec.Operator {
			return &exec.IndexScan{Heap: heap, Tree: tree, Lo: loS, Hi: hiS, Range: rng}
		},
	}
	var remaining []sql.Expr
	for _, c := range conds {
		if !used[c] {
			remaining = append(remaining, c)
		}
	}
	return newRel, remaining, nil
}

func flipOp(op sql.BinOp) sql.BinOp {
	switch op {
	case sql.OpLt:
		return sql.OpGt
	case sql.OpLe:
		return sql.OpGe
	case sql.OpGt:
		return sql.OpLt
	case sql.OpGe:
		return sql.OpLe
	}
	return op
}

// buildFrom plans the whole FROM clause plus WHERE pushdown, returning the
// joined relation and the conjuncts that could not be pushed or converted
// to join conditions (they become a post-join filter — normally empty).
func (b *builder) buildFrom(refs []sql.TableRef, where sql.Expr) (*relNode, []sql.Expr, error) {
	if len(refs) == 0 {
		// FROM-less SELECT: a single empty row.
		return &relNode{
			scope: &scope{},
			build: func(*Input) exec.Operator {
				return &exec.Values{Rows: []types.Row{{}}}
			},
		}, splitConjuncts(where), nil
	}
	rels := make([]*relNode, len(refs))
	for i, r := range refs {
		n, err := b.buildTableRef(r)
		if err != nil {
			return nil, nil, err
		}
		rels[i] = n
	}
	conds := splitConjuncts(where)
	pending := make([]sql.Expr, len(conds))
	copy(pending, conds)

	// Push single-relation conjuncts into inner-join-safe relations.
	for i, rel := range rels {
		if rel.outer {
			continue
		}
		var mine, rest []sql.Expr
		for _, c := range pending {
			if len(columnRefs(c)) > 0 && refsResolvable(c, rel.scope) && exclusiveTo(c, rel, rels) {
				mine = append(mine, c)
			} else {
				rest = append(rest, c)
			}
		}
		if len(mine) > 0 {
			var err error
			if rels[i], err = b.pushFilter(rel, mine); err != nil {
				return nil, nil, err
			}
			pending = rest
		}
	}

	// Left-deep fold over the comma list, converting applicable conjuncts
	// into join conditions as relations become available.
	acc := rels[0]
	for _, next := range rels[1:] {
		joinedScope := concatScopes(acc.scope, next.scope)
		var conds, rest []sql.Expr
		for _, c := range pending {
			if refsResolvable(c, joinedScope) && !refsResolvable(c, acc.scope) && !refsResolvable(c, next.scope) {
				conds = append(conds, c)
			} else {
				rest = append(rest, c)
			}
		}
		pending = rest
		var err error
		if acc, err = b.combine(acc, next, exec.JoinInner, conds); err != nil {
			return nil, nil, err
		}
	}
	return acc, pending, nil
}

// exclusiveTo reports whether c's columns resolve in rel but in no other
// relation (an unqualified name could otherwise bind ambiguously later).
func exclusiveTo(c sql.Expr, rel *relNode, all []*relNode) bool {
	for _, other := range all {
		if other == rel {
			continue
		}
		for _, ref := range columnRefs(c) {
			if _, err := other.scope.ResolveColumn(ref.Table, ref.Name); err == nil {
				return false
			}
		}
	}
	return true
}
