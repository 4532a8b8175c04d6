// Package exec implements the iterator-style (Volcano) relational
// operators. Per the paper (§4), continuous-query plans "reuse the
// existing implementations of standard, well understood, iterator-style
// relational query operators (e.g., filters, joins, aggregates, sort)":
// the same operators here execute both snapshot queries over tables and
// each per-window evaluation of a continuous query.
package exec

import (
	"time"

	"streamrel/internal/expr"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// Ctx carries per-execution state: the MVCC snapshot for table reads
// (window consistency hands CQs a fresh one per window close) and the
// window-close timestamp for cq_close(*).
type Ctx struct {
	Snap        txn.Snapshot
	WindowClose types.Datum
	Now         func() time.Time
}

// evalCtx returns the expression-evaluation context of this execution,
// by value. Every operator that evaluates expressions keeps its own copy
// (set in Open) and only re-points Row per input row, so evaluation
// allocates nothing; a copy cannot live here, because one Ctx is shared by
// a whole operator tree and each operator is mid-row at a different row.
func (c *Ctx) evalCtx() expr.Ctx {
	return expr.Ctx{WindowClose: c.WindowClose, Now: c.Now}
}

// Operator is a pull-based iterator over rows. The contract: Open before
// Next; Next returns (nil, nil) at end of stream; Close releases state and
// is idempotent. Operators are single-use: build a fresh tree per
// execution.
type Operator interface {
	Open(ctx *Ctx) error
	Next() (types.Row, error)
	Close() error
}

// Drain runs an operator to completion and collects its output. It
// pulls whole chunks when the root implements Batcher; the collected
// rows are copied out of any operator-owned batch container, so the
// result is safe to retain.
func Drain(ctx *Ctx, op Operator) ([]types.Row, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	defer op.Close()
	var out, buf []types.Row
	for {
		batch, err := nextBatch(op, &buf)
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return out, nil
		}
		out = append(out, batch...)
	}
}

// evalPred evaluates a predicate over ec.Row under SQL semantics: NULL
// means the row does not qualify.
func evalPred(pred *expr.Scalar, ec *expr.Ctx) (bool, error) {
	v, err := pred.Eval(ec)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Bool(), nil
}
