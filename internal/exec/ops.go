package exec

import (
	"slices"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// Filter passes through rows for which Pred is true.
type Filter struct {
	Child Operator
	Pred  *expr.Scalar

	ec  expr.Ctx
	buf []types.Row // output container, reused per chunk
}

// Open implements Operator.
func (f *Filter) Open(ctx *Ctx) error {
	f.ec = ctx.evalCtx()
	return f.Child.Open(ctx)
}

// NextBatch implements Operator: the predicate is evaluated over a whole
// child chunk and qualifying row headers are gathered into the reused
// container; a chunk that is rejected whole is skipped. The demand goes
// down unchanged: of n rows pulled at most n pass, so no row is evaluated
// that the consumer could not take.
func (f *Filter) NextBatch(max int) ([]types.Row, error) {
	ec := &f.ec
	for {
		in, err := f.Child.NextBatch(max)
		if err != nil || in == nil {
			return nil, err
		}
		out := f.buf[:0]
		for _, row := range in {
			ec.Row = row
			ok, err := evalPred(f.Pred, ec)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, row)
			}
		}
		f.buf = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error {
	f.buf, f.ec = clearRows(f.buf), expr.Ctx{}
	return f.Child.Close()
}

func (f *Filter) rowsTransient() { rowsTransient(f.Child) }

// Project evaluates one output expression per column.
type Project struct {
	Child Operator
	Exprs []*expr.Scalar

	ec        expr.Ctx
	buf       []types.Row    // output container, reused per chunk
	blk       types.RowBlock // what output rows are carved from, kept across chunks
	transient bool           // the consumer keeps no row (see rowsTransient)
}

// Open implements Operator.
func (p *Project) Open(ctx *Ctx) error {
	p.ec = ctx.evalCtx()
	if !p.transient || p.buf == nil { // a transient consumer's block is kept
		p.blk = types.NewRowBlock(1, len(p.Exprs))
	}
	rowsTransient(p.Child) // an input row is evaluated into a fresh one
	return p.Child.Open(ctx)
}

// NextBatch implements Operator: output expressions are evaluated over a
// whole child chunk — which the demand, passed down unchanged, has already
// bounded — and the output rows are carved from one flat datum block per
// chunk, or per doubling run of chunks when a join above pulls a row at a
// time. The rows are freshly allocated (consumers retain them); only the
// []Row container is reused — unless the consumer keeps no row: then every
// chunk is carved from the one block, taken back before the next (rewind).
func (p *Project) NextBatch(max int) ([]types.Row, error) {
	in, err := p.Child.NextBatch(max)
	if err != nil || in == nil {
		return nil, err
	}
	ec := &p.ec
	blk := &p.blk
	if p.transient {
		blk.Rewind()
	}
	blk.Reserve(len(in))
	out := p.buf[:0]
	if cap(out) < len(in) {
		out = make([]types.Row, 0, len(in))
	}
	for _, row := range in {
		ec.Row = row
		dst := blk.Row()
		for i, e := range p.Exprs {
			if dst[i], err = e.Eval(ec); err != nil {
				return nil, err
			}
		}
		out = append(out, dst)
	}
	p.buf = out
	return out, nil
}

// Close implements Operator. The block goes — its rows are the execution's
// output, which the consumer may retain — or, kept for a transient
// consumer, is cleared.
func (p *Project) Close() error {
	if p.transient {
		taken := p.blk.Rewind()
		clear(taken[:cap(taken)])
	} else {
		p.blk = types.RowBlock{}
	}
	p.buf, p.ec = clearRows(p.buf), expr.Ctx{}
	return p.Child.Close()
}

func (p *Project) rowsTransient() { p.transient = true }

// Limit implements LIMIT/OFFSET.
type Limit struct {
	Child  Operator
	Count  int64 // -1 means no limit
	Offset int64

	skip int64 // offset rows still to drop
	left int64 // rows still to emit; -1 means no limit
}

// Open implements Operator.
func (l *Limit) Open(ctx *Ctx) error {
	l.skip, l.left = l.Offset, l.Count
	return l.Child.Open(ctx)
}

// NextBatch implements Operator. Limit is where laziness comes from: it
// asks its child for no more than the rows it still owes — the rest of the
// offset plus the rest of the count, or of its own consumer's demand if
// that is smaller — so the subtree below evaluates no row the query does
// not need (`SELECT 10/x … LIMIT 1` never divides by a later zero).
func (l *Limit) NextBatch(max int) ([]types.Row, error) {
	for l.skip > 0 || l.left != 0 {
		want := int64(max)
		if l.left >= 0 && l.left < want {
			want = l.left
		}
		// Asking for less than is owed is always allowed; the cap keeps a
		// large OFFSET from sizing the containers below.
		in, err := l.Child.NextBatch(int(want + min(l.skip, chunkRows)))
		if err != nil || in == nil {
			return nil, err
		}
		n := min(int64(len(in)), l.skip)
		l.skip -= n
		in = in[n:]
		if l.left > 0 {
			l.left -= int64(len(in))
		}
		if len(in) > 0 {
			return in, nil
		}
	}
	return nil, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.Child.Close() }

func (l *Limit) rowsTransient() { rowsTransient(l.Child) }

// SortKey is one ORDER BY key: a column of the rows sorted.
type SortKey struct {
	Col  int
	Desc bool
	// NullsFirst/NullsLast force NULL placement; when neither is set,
	// NULLs follow the total order (first ascending, last descending).
	NullsFirst bool
	NullsLast  bool
}

// Sort materializes its input and emits it ordered by Keys, columns of its
// rows (the planner projects every ORDER BY key first). NULLs sort first on
// ascending keys (types.Compare's total order), last on descending. A full
// sort keeps its child's rows. A bounded one (Limit k > 0, which the planner
// sets to OFFSET + LIMIT under a LIMIT) copies a row into a spare slot only
// if it sorts strictly before the k-th row kept, so a tie keeps the earlier
// row, and at 2k slots in use sorts them and cuts back to k; the rows it
// hands out are carved afresh, so its child's are transient. It keeps its
// slots across opens, at most twice those its last execution used (as
// expr.Recycler does).
type Sort struct {
	Child Operator
	Keys  []SortKey
	Limit int // k, or 0: the consumer reads every row
	cursor

	top          []types.Row    // the slots, all spare between executions
	blk          types.RowBlock // what slots are carved from
	carved, used int            // slots carved since the last afresh, and used by this execution
}

// Open implements Operator.
func (s *Sort) Open(ctx *Ctx) error {
	s.Close()
	defer s.Child.Close()
	k := s.Limit
	var top []types.Row // under a bound, the slots
	if k > 0 {
		rowsTransient(s.Child) // an admitted row is copied
		if s.carved > 2*s.used {
			s.top, s.carved = nil, 0
		}
		top, s.used = s.top, 0
		defer func() { s.top = top }() // however the execution ends, for Close to clear
	}
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	byKeys := func(a, b types.Row) int {
		for _, key := range s.Keys {
			x, y := a[key.Col], b[key.Col]
			xn, yn := x.IsNull(), y.IsNull()
			if xn && yn {
				continue
			}
			// Explicit placement overrides the total order.
			if (xn || yn) && (key.NullsFirst || key.NullsLast) {
				if xn == key.NullsFirst {
					return -1
				}
				return 1
			}
			if c := types.Compare(x, y); c != 0 {
				if key.Desc {
					return -c
				}
				return c
			}
		}
		return 0
	}
	cut := false // top[:k] is sorted: top[k-1] is the k-th row kept
	for {
		in, err := s.Child.NextBatch(chunkRows)
		if err != nil {
			return err
		}
		if in == nil {
			break
		}
		if k == 0 {
			s.rows = append(s.rows, in...)
			continue
		}
		for _, row := range in {
			if cut && byKeys(row, top[k-1]) >= 0 {
				continue
			}
			top = slices.Grow(top, 1)
			slot := top[:len(top)+1][len(top)]
			if slot == nil {
				if s.carved == 0 {
					s.blk = types.NewRowBlock(1, len(row))
				}
				slot, s.carved = s.blk.Row(), s.carved+1
			}
			copy(slot, row)
			top = append(top, slot)
			if s.used = max(s.used, len(top)); len(top) == 2*k {
				slices.SortStableFunc(top, byKeys)
				top, cut = top[:k], true
			}
		}
	}
	if k == 0 {
		slices.SortStableFunc(s.rows, byKeys)
		return nil
	}
	slices.SortStableFunc(top, byKeys)
	top = top[:min(len(top), k)]
	if len(top) == 0 {
		return nil
	}
	out := types.NewRowBlock(len(top), len(top[0])) // what the rows handed out are carved from
	for _, slot := range top {
		s.rows = append(s.rows, append(out.Row()[:0], slot...))
	}
	return nil
}

// Close implements Operator: the slots are kept, cleared.
func (s *Sort) Close() error {
	s.reset(clearRows(s.rows))
	for _, slot := range s.top[:cap(s.top)] {
		clear(slot)
	}
	s.top = s.top[:0]
	return nil
}

// Distinct removes duplicate rows (SQL DISTINCT: NULLs compare equal).
type Distinct struct {
	Child Operator

	seen rowSet
	buf  []types.Row // output container, reused per chunk
}

// Open implements Operator.
func (d *Distinct) Open(ctx *Ctx) error {
	d.seen = rowSet{m: make(map[string]struct{})}
	return d.Child.Open(ctx)
}

// NextBatch implements Operator: Filter's shape, the predicate being
// "not seen before".
func (d *Distinct) NextBatch(max int) ([]types.Row, error) {
	for {
		in, err := d.Child.NextBatch(max)
		if err != nil || in == nil {
			return nil, err
		}
		out := d.buf[:0]
		for _, row := range in {
			if d.seen.add(row) {
				out = append(out, row)
			}
		}
		d.buf = out
		if len(out) > 0 {
			return out, nil
		}
	}
}

// Close implements Operator.
func (d *Distinct) Close() error {
	d.seen, d.buf = rowSet{}, clearRows(d.buf)
	return d.Child.Close()
}

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
	cursor
}

// Open implements Operator: both sides are evaluated eagerly.
func (s *SetOp) Open(ctx *Ctx) error {
	s.reset(nil)
	left, err := Drain(ctx, s.Left, 0)
	if err != nil {
		return err
	}
	right, err := Drain(ctx, s.Right, 0)
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
	case SetIntersect:
		for _, r := range left {
			if n := count(r); *n > 0 {
				if s.All {
					*n--
				}
				s.rows = append(s.rows, r)
			}
		}
	}
	if !s.All {
		s.rows = dedup(s.rows)
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

// Close implements Operator.
func (s *SetOp) Close() error { s.rows = nil; return nil }
