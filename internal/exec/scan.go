package exec

import (
	"streamrel/internal/expr"
	"streamrel/internal/storage"
	"streamrel/internal/types"
)

// Values produces a fixed list of rows; it backs VALUES lists and
// FROM-less SELECTs (one empty row).
type Values struct {
	Rows []types.Row
	cursor
}

// Open implements Operator.
func (v *Values) Open(*Ctx) error { v.reset(v.Rows); return nil }

// Close implements Operator.
func (v *Values) Close() error { return nil }

// Relation scans an in-memory slice of rows. Window closes materialize
// each window as a relation (the paper's Figure 1: "windows produce a
// sequence of tables") and feed it to the plan through this operator.
type Relation struct {
	Rows []types.Row
	cursor
}

// Open implements Operator.
func (r *Relation) Open(*Ctx) error { r.reset(r.Rows); return nil }

// Close implements Operator.
func (r *Relation) Close() error { return nil }

// SeqScan reads every visible row of a heap under the execution snapshot.
type SeqScan struct {
	Heap *storage.Heap
	cursor
}

// Open implements Operator. The scan materializes under the snapshot up
// front; heaps are in-memory so this costs one pass either way and keeps
// NextBatch allocation-free.
func (s *SeqScan) Open(ctx *Ctx) error {
	s.reset(s.rows[:0])
	s.Heap.Scan(ctx.Snap, func(_ storage.RowID, r types.Row) bool {
		s.rows = append(s.rows, r)
		return true
	})
	return nil
}

// Close implements Operator.
func (s *SeqScan) Close() error { s.rows = nil; return nil }

// IndexScan reads rows whose index key lies in [Lo, Hi] (nil bounds are
// open), checking MVCC visibility against the heap.
type IndexScan struct {
	Heap *storage.Heap
	Tree *storage.BTree
	// Lo and Hi are single-column bounds on the index's first column.
	Lo, Hi *expr.Scalar
	cursor
}

// Open implements Operator.
func (s *IndexScan) Open(ctx *Ctx) error {
	s.reset(s.rows[:0])
	var lo, hi types.Row
	ec := ctx.evalCtx() // bounds are constants: no row
	if s.Lo != nil {
		v, err := s.Lo.Eval(&ec)
		if err != nil {
			return err
		}
		lo = types.Row{v}
	}
	if s.Hi != nil {
		v, err := s.Hi.Eval(&ec)
		if err != nil {
			return err
		}
		hi = types.Row{v}
	}
	// Hi bound compares on the first key column only: extend with a
	// sentinel so composite keys under the same first column all qualify.
	var hiKey types.Row
	if hi != nil {
		hiKey = hi
	}
	s.Tree.AscendRange(lo, nil, func(key types.Row, rid storage.RowID) bool {
		if hiKey != nil && types.Compare(key[0], hiKey[0]) > 0 {
			return false
		}
		if row, ok := s.Heap.Get(ctx.Snap, rid); ok {
			s.rows = append(s.rows, row)
		}
		return true
	})
	return nil
}

// Close implements Operator.
func (s *IndexScan) Close() error { s.rows = nil; return nil }
