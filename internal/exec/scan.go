// The leaf operators. Values and Relation hand out rows they were given;
// IndexScan collects the rows of its key range in Open (bounded by the
// selectivity of its bounds); SeqScan holds no more than one chunk of a
// table at a time, however large the table.

package exec

import (
	"streamrel/internal/expr"
	"streamrel/internal/storage"
	"streamrel/internal/txn"
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

// Relation is a plan's window leaf. Window closes materialize each window as
// a relation (the paper's Figure 1: "windows produce a sequence of tables")
// and feed it to the one tree the plan built through this operator, which
// reads the close's rows through Rows at Open. It records its consumer's
// row-lifetime declaration, which is how a window's owner learns that the
// tree reads its rows during an execution only.
type Relation struct {
	Rows      *[]types.Row
	transient bool
	cursor
}

// Open implements Operator.
func (r *Relation) Open(*Ctx) error { r.reset(*r.Rows); return nil }

// Close implements Operator.
func (r *Relation) Close() error { r.reset(nil); return nil }

func (r *Relation) rowsTransient() { r.transient = true }

// Transient reports whether the leaf's consumer declared, at an Open, that
// it keeps no row past its next pull; the tree's shape decides it for good.
func (r *Relation) Transient() bool { return r.transient }

// SeqScan reads every visible row of a heap under the execution snapshot.
// It streams: each pull hands out rows of one container of at most chunkRows
// row headers, refilled from the heap (storage.Heap.Read, one lock
// acquisition) when the consumer has taken what it held — so a scan
// allocates that container whatever the table size, and a LIMIT above it
// stops the heap read, not just the evaluation. The container is filled
// ahead of demand (a visibility check has no observable effect): a join
// probing one row per pull takes the heap lock once per chunk.
type SeqScan struct {
	Heap *storage.Heap

	snap      txn.Snapshot
	next, end storage.RowID // versions still to read
	cursor                  // the container, and how much of it has been handed out
}

// Open implements Operator. The heap's end is fixed here: a version appended
// after it is invisible to the execution snapshot.
func (s *SeqScan) Open(ctx *Ctx) error {
	s.snap = ctx.Snap
	s.next, s.end = 0, s.Heap.NextID()
	s.reset(s.rows[:0])
	return nil
}

// NextBatch implements Operator: the cursor's, refilled when it runs dry.
func (s *SeqScan) NextBatch(max int) ([]types.Row, error) {
	if s.pos == len(s.rows) && s.next < s.end {
		if want := min(chunkRows, int(s.end-s.next)); cap(s.rows) < want {
			s.rows = make([]types.Row, 0, want)
		}
		buf := s.rows[:0]
		s.next = s.Heap.Read(s.snap, s.next, s.end, cap(buf), &buf, nil)
		s.reset(buf)
	}
	return s.cursor.NextBatch(max)
}

// Close implements Operator.
func (s *SeqScan) Close() error { s.reset(clearRows(s.rows)); return nil }

// IndexScan reads rows whose index key lies in [Lo, Hi] (nil bounds are
// open), checking MVCC visibility against the heap.
type IndexScan struct {
	Heap *storage.Heap
	Tree *storage.BTree
	// Lo and Hi are single-column bounds on the index's first column.
	Lo, Hi *expr.Scalar
	// Range names the index and the bounds as written, for EXPLAIN.
	Range string
	cursor

	ec expr.Ctx
}

// Open implements Operator.
func (s *IndexScan) Open(ctx *Ctx) error {
	s.reset(clearRows(s.rows))
	var lo, hi types.Row
	s.ec = ctx.evalCtx() // bounds are constants: no row
	if s.Lo != nil {
		v, err := s.Lo.Eval(&s.ec)
		if err != nil {
			return err
		}
		lo = types.Row{v}
	}
	if s.Hi != nil {
		v, err := s.Hi.Eval(&s.ec)
		if err != nil {
			return err
		}
		hi = types.Row{v}
	}
	// Hi compares with the first key column only, so that composite keys
	// under it all qualify.
	s.Tree.AscendRange(lo, nil, func(key types.Row, rid storage.RowID) bool {
		if hi != nil && types.Compare(key[0], hi[0]) > 0 {
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
func (s *IndexScan) Close() error { s.reset(clearRows(s.rows)); s.ec = expr.Ctx{}; return nil }
