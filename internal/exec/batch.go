package exec

import "streamrel/internal/types"

// Batched execution fast path. The Volcano Next contract costs one
// virtual call per row; on the ingest hot path (window fires evaluate a
// plan over every closing window) that dominates the profile. Operators
// that can produce rows in bulk additionally implement Batcher; pull
// consumers (Drain, HashAgg) use it when present and fall back to Next
// otherwise, so the two paths always produce identical rows.

// Batcher is an optional batched interface on Operator. NextBatch
// returns the next non-empty chunk of rows, or nil at end of stream.
// The returned slice (the container, not the Row values) is owned by
// the operator and is valid only until the next NextBatch call; callers
// that retain rows must copy the slice header, and callers must not mix
// Next and NextBatch on the same operator.
type Batcher interface {
	NextBatch() ([]types.Row, error)
}

// nextBatch pulls a chunk from op: its own batches when it implements
// Batcher, else a single row via Next staged in *buf (so non-batched
// children keep their exact pull cadence and allocation profile).
// Returns nil at end of stream; the slice is valid until the next call.
func nextBatch(op Operator, buf *[]types.Row) ([]types.Row, error) {
	if b, ok := op.(Batcher); ok {
		return b.NextBatch()
	}
	row, err := op.Next()
	if err != nil || row == nil {
		return nil, err
	}
	if *buf == nil {
		*buf = make([]types.Row, 1)
	}
	(*buf)[0] = row
	return (*buf)[:1], nil
}

// NextBatch implements Batcher: the remaining rows in one chunk.
func (v *Values) NextBatch() ([]types.Row, error) { return tailBatch(v.Rows, &v.pos) }

// NextBatch implements Batcher: the remaining rows in one chunk.
func (r *Relation) NextBatch() ([]types.Row, error) { return tailBatch(r.Rows, &r.pos) }

// NextBatch implements Batcher: the remaining rows in one chunk.
func (s *SeqScan) NextBatch() ([]types.Row, error) { return tailBatch(s.rows, &s.pos) }

// NextBatch implements Batcher: the remaining rows in one chunk.
func (s *IndexScan) NextBatch() ([]types.Row, error) { return tailBatch(s.rows, &s.pos) }

func tailBatch(rows []types.Row, pos *int) ([]types.Row, error) {
	if *pos >= len(rows) {
		return nil, nil
	}
	out := rows[*pos:]
	*pos = len(rows)
	return out, nil
}

// NextBatch implements Batcher: the predicate is evaluated over a whole
// child chunk and qualifying row headers are gathered into a reused
// output buffer.
func (f *Filter) NextBatch() ([]types.Row, error) {
	ec := &f.ec
	for {
		in, err := nextBatch(f.Child, &f.inBuf)
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

// NextBatch implements Batcher: output expressions are evaluated over a
// whole child chunk, and the output rows are carved from one flat datum
// block per chunk. The rows are
// freshly allocated (consumers retain them); only the []Row container
// is reused.
func (p *Project) NextBatch() ([]types.Row, error) {
	in, err := nextBatch(p.Child, &p.inBuf)
	if err != nil || in == nil {
		return nil, err
	}
	ec := &p.ec
	blk := types.NewRowBlock(len(in), len(p.Exprs))
	out := p.buf[:0]
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
