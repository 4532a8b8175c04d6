package exec

import (
	"sort"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// Filter passes through rows for which Pred is true.
type Filter struct {
	Child Operator
	Pred  *expr.Scalar

	ec    expr.Ctx
	buf   []types.Row // NextBatch output container, reused per chunk
	inBuf []types.Row // staging for non-Batcher children
}

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx) error {
	f.ec = ctx.evalCtx()
	return f.Child.Open(ctx)
}

// Next implements Operator.
func (f *Filter) Next() (types.Row, error) {
	for {
		row, err := f.Child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		f.ec.Row = row
		ok, err := evalPred(f.Pred, &f.ec)
		if err != nil {
			return nil, err
		}
		if ok {
			return row, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// Project evaluates one output expression per column.
type Project struct {
	Child Operator
	Exprs []*expr.Scalar

	ec    expr.Ctx
	buf   []types.Row // NextBatch output container, reused per chunk
	inBuf []types.Row // staging for non-Batcher children
}

// Open implements Operator.
func (p *Project) Open(ctx *Ctx) error {
	p.ec = ctx.evalCtx()
	return p.Child.Open(ctx)
}

// Next implements Operator.
func (p *Project) Next() (types.Row, error) {
	row, err := p.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make(types.Row, len(p.Exprs))
	p.ec.Row = row
	for i, e := range p.Exprs {
		if out[i], err = e.Eval(&p.ec); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }

// Limit implements LIMIT/OFFSET.
type Limit struct {
	Child  Operator
	Count  int64 // -1 means no limit
	Offset int64

	skipped int64
	emitted int64
}

// Open implements Operator.
func (l *Limit) Open(ctx *Ctx) error {
	l.skipped, l.emitted = 0, 0
	return l.Child.Open(ctx)
}

// Next implements Operator.
func (l *Limit) Next() (types.Row, error) {
	for l.skipped < l.Offset {
		row, err := l.Child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		l.skipped++
	}
	if l.Count >= 0 && l.emitted >= l.Count {
		return nil, nil
	}
	row, err := l.Child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	l.emitted++
	return row, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr *expr.Scalar
	Desc bool
	// NullsFirst/NullsLast force NULL placement; when neither is set,
	// NULLs follow the total order (first ascending, last descending).
	NullsFirst bool
	NullsLast  bool
}

// Sort materializes its input and emits it ordered by Keys. NULLs sort
// first on ascending keys (types.Compare's total order), last on
// descending.
type Sort struct {
	Child Operator
	Keys  []SortKey

	rows []types.Row
	pos  int
}

// Open implements Operator.
func (s *Sort) Open(ctx *Ctx) error {
	s.rows = nil
	s.pos = 0
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	defer s.Child.Close()
	type keyed struct {
		row  types.Row
		keys types.Row
	}
	var all []keyed
	ec := ctx.evalCtx()
	for {
		row, err := s.Child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		ks := make(types.Row, len(s.Keys))
		ec.Row = row
		for i, k := range s.Keys {
			if ks[i], err = k.Expr.Eval(&ec); err != nil {
				return err
			}
		}
		all = append(all, keyed{row, ks})
	}
	sort.SliceStable(all, func(i, j int) bool {
		for k := range s.Keys {
			key := s.Keys[k]
			a, b := all[i].keys[k], all[j].keys[k]
			an, bn := a.IsNull(), b.IsNull()
			if an || bn {
				if an && bn {
					continue
				}
				// Explicit placement overrides the total order.
				if key.NullsFirst {
					return an
				}
				if key.NullsLast {
					return bn
				}
			}
			c := types.Compare(a, b)
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	s.rows = make([]types.Row, len(all))
	for i, a := range all {
		s.rows[i] = a.row
	}
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Operator.
func (s *Sort) Close() error { s.rows = nil; return nil }

// Distinct removes duplicate rows (SQL DISTINCT: NULLs compare equal).
type Distinct struct {
	Child Operator

	seen rowSet
}

// Open implements Operator.
func (d *Distinct) Open(ctx *Ctx) error {
	d.seen = rowSet{m: make(map[string]struct{})}
	return d.Child.Open(ctx)
}

// Next implements Operator.
func (d *Distinct) Next() (types.Row, error) {
	for {
		row, err := d.Child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		if d.seen.add(row) {
			return row, nil
		}
	}
}

// Close implements Operator.
func (d *Distinct) Close() error { d.seen = rowSet{}; return d.Child.Close() }

// rowSet is a set of rows under grouping equality. It probes with the
// row's key bytes in a reused buffer and builds a key string only for a
// row it has not seen.
type rowSet struct {
	m   map[string]struct{}
	key []byte
}

// add inserts the row and reports whether it was new.
func (s *rowSet) add(r types.Row) bool {
	s.key = r.AppendKey(s.key[:0])
	if _, dup := s.m[string(s.key)]; dup {
		return false
	}
	s.m[string(s.key)] = struct{}{}
	return true
}

// SetOpKind mirrors sql.SetOpKind without importing it (exec stays
// front-end-agnostic).
type SetOpKind int

// Set operation kinds.
const (
	SetUnion SetOpKind = iota
	SetExcept
	SetIntersect
)

// SetOp implements UNION/EXCEPT/INTERSECT, with and without ALL, by
// hashing the right side.
type SetOp struct {
	Kind        SetOpKind
	All         bool
	Left, Right Operator

	rows []types.Row
	pos  int
}

// Open implements Operator: both sides are evaluated eagerly.
func (s *SetOp) Open(ctx *Ctx) error {
	s.rows = nil
	s.pos = 0
	left, err := Drain(ctx, s.Left)
	if err != nil {
		return err
	}
	right, err := Drain(ctx, s.Right)
	if err != nil {
		return err
	}
	// counts holds each right row's multiplicity behind a pointer, so a
	// probe decrements in place and only a new right key builds a string.
	counts := make(map[string]*int, len(right))
	var key []byte
	for _, r := range right {
		key = r.AppendKey(key[:0])
		n := counts[string(key)]
		if n == nil {
			n = new(int)
			counts[string(key)] = n
		}
		*n++
	}
	absent := new(int) // stays 0: only positive counts are decremented
	count := func(r types.Row) *int {
		key = r.AppendKey(key[:0])
		if n := counts[string(key)]; n != nil {
			return n
		}
		return absent
	}
	switch s.Kind {
	case SetUnion:
		s.rows = append(left, right...)
		if !s.All {
			s.rows = dedup(s.rows)
		}
	case SetExcept:
		for _, r := range left {
			n := count(r)
			if s.All {
				if *n > 0 {
					*n--
					continue
				}
				s.rows = append(s.rows, r)
			} else if *n == 0 {
				s.rows = append(s.rows, r)
			}
		}
		if !s.All {
			s.rows = dedup(s.rows)
		}
	case SetIntersect:
		for _, r := range left {
			if n := count(r); *n > 0 {
				if s.All {
					*n--
				}
				s.rows = append(s.rows, r)
			}
		}
		if !s.All {
			s.rows = dedup(s.rows)
		}
	}
	return nil
}

func dedup(rows []types.Row) []types.Row {
	seen := rowSet{m: make(map[string]struct{}, len(rows))}
	out := rows[:0]
	for _, r := range rows {
		if seen.add(r) {
			out = append(out, r)
		}
	}
	return out
}

// Next implements Operator.
func (s *SetOp) Next() (types.Row, error) {
	if s.pos >= len(s.rows) {
		return nil, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

// Close implements Operator.
func (s *SetOp) Close() error { s.rows = nil; return nil }
