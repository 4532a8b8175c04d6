// Package exec implements the iterator-style (Volcano) relational
// operators. Per the paper (§4), continuous-query plans "reuse the
// existing implementations of standard, well understood, iterator-style
// relational query operators (e.g., filters, joins, aggregates, sort)":
// the same operators here execute both snapshot queries over tables and
// each per-window evaluation of a continuous query.
//
// There is one operator protocol: a consumer pulls chunks of rows and says
// how many it can use (see Operator). A window fire pulls its window
// chunkRows rows at a time; a LIMIT pulls exactly the rows it owes, so the
// operators below it never evaluate a row the query does not need.
package exec

import (
	"time"

	"streamrel/internal/expr"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// Ctx carries per-execution state: the MVCC snapshot for table reads
// (window consistency hands CQs a fresh one per window close), the
// window-close timestamp for cq_close(*) and the arguments $n reads.
type Ctx struct {
	Snap        txn.Snapshot
	WindowClose types.Datum
	Now         func() time.Time
	Args        []types.Datum
}

// evalCtx returns the expression-evaluation context of this execution,
// by value. Every operator that evaluates expressions keeps its own copy
// (set in Open) and only re-points Row per input row, so evaluation
// allocates nothing; a copy cannot live here, because one Ctx is shared by
// a whole operator tree and each operator is mid-row at a different row.
// Close drops the copy, so a kept tree holds no execution's arguments.
func (c *Ctx) evalCtx() expr.Ctx {
	return expr.Ctx{WindowClose: c.WindowClose, Now: c.Now, Args: c.Args}
}

// Operator is a pull-based iterator over chunks of rows. The contract:
//
//   - Open before NextBatch; Close ends the execution and is idempotent. A
//     tree is opened again for every execution (a continuous query's post
//     stage at every close; a snapshot query's once): Open re-arms all an
//     execution reads, however the last one ended. Close lets go of every
//     row the execution read or handed out — containers are cleared, not
//     dropped — and keeps only scratch (HashAgg's map and reset groups, or
//     a maintained HashAgg's groups as they stand: datums, never a row);
//     rows a consumer may retain are fresh for each execution. The one
//     thing trees share is a JoinBuild: a build side the plan owns,
//     immutable once kept, which a HashJoin adopts while its table is
//     unchanged.
//   - NextBatch returns the next non-empty chunk, or nil at end of stream.
//   - The returned slice (the container) is owned by the operator and valid
//     only until its next NextBatch call; a consumer that keeps rows copies
//     the row headers out.
//   - Row lifetime: the Row values themselves are never rewritten, so
//     retaining them is safe — unless the consumer declared, by calling
//     rowsTransient(child) before child.Open, that it keeps no row past its
//     next NextBatch call on that child (it copies the datums it keeps).
//     HashAgg, Project, a join's probe side and a bounded Sort declare it
//     (the planner sets Sort.Limit from the LIMIT above it; a Sort's keys
//     are columns of its rows); Filter, Limit and the EXPLAIN ANALYZE
//     instrument hand rows through and so pass their own consumer's
//     declaration down. A join carves every batch from one block
//     (rowConcat), ending a batch where the block does, and Project every
//     chunk; HashAgg fills its groups' rows again at the next Open. Drain, a
//     Sort that reads every row, Distinct, SetOp and join build sides never
//     declare it, so what they collect stays valid. The operator tree
//     decides this by its own shape; nothing configures it.
//     Relation, the window leaf, records its consumer's declaration
//     (Relation.Transient): a window view whose every reader declared it
//     writes its rows in place from one close to the next.
//   - max, always positive, is the consumer's demand: the operator returns
//     at most max rows (it may return fewer) and does no work beyond what
//     producing them takes, so NextBatch(1) is row-at-a-time execution.
//     No operator may ignore it. Filter, Project and Distinct pass it down
//     unchanged; Limit asks for what it still owes; a join pulls its probe
//     side one row at a time; Drain and the operators that must see their
//     whole input before emitting (HashAgg, Sort, SetOp and join build
//     sides through Drain) pull chunkRows at a time.
type Operator interface {
	Open(ctx *Ctx) error
	NextBatch(max int) ([]types.Row, error)
	Close() error
}

// rowsTransient tells op, which its caller is about to Open, that the
// caller keeps no row past its next pull (see Operator: row lifetime). An
// operator that neither carves rows nor hands its child's through ignores it.
func rowsTransient(op Operator) {
	if t, ok := op.(interface{ rowsTransient() }); ok {
		t.rowsTransient()
	}
}

// chunkRows is what a consumer that will take everything asks for per
// pull. It bounds every operator's reused container (24 B of row header per
// row) however large the window or table. Measured on bench/, seed 7,
// alloc_bytes_per_row: pulling a whole window per call made every fire's
// Filter and HashJoin grow a window-sized container, mem_fanout 13 880 →
// 21 461; at 256 / 1024 / 4096 rows mem_fanout reads 13 000 / 12 970 /
// 14 430, wide_window 2 916 / 2 673 / 2 425 and report_mixed 6 626 / 6 640 /
// 6 737, against 13 880, 2 945 and 6 628 before batches were the protocol.
// 1024 is the largest that costs no workload anything.
const chunkRows = 1024

// Drain runs an operator to completion and collects its output. The
// collected rows are copied out of the operator-owned chunk containers, so
// the result is safe to retain. expect is the row count the caller
// foresees — a window fire passes what the fire before it produced — and
// sizes the result once; 0 means unknown, and a result of many chunks then
// grows as it fills. An empty result is nil either way.
func Drain(ctx *Ctx, op Operator, expect int) ([]types.Row, error) {
	defer op.Close() // a failed Open lets go of what it read too
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	var out []types.Row
	for {
		batch, err := op.NextBatch(chunkRows)
		if err != nil {
			return nil, err
		}
		if batch == nil {
			return out, nil
		}
		if out == nil {
			out = make([]types.Row, 0, max(expect, len(batch)))
		}
		out = append(out, batch...)
	}
}

// cursor is the emit side of every operator that holds its whole output
// before the first pull (IndexScan, Values, Relation, HashAgg, Sort,
// SetOp): the rows and a read position. Embedding it gives the operator
// its NextBatch. The table scan is not among them — SeqScan holds one chunk
// of the heap in its cursor and refills it when it runs dry; IndexScan still
// collects its range in Open, because what it holds is bounded by the
// selectivity of its bounds, not by the table.
type cursor struct {
	rows []types.Row
	pos  int
}

func (c *cursor) reset(rows []types.Row) { c.rows, c.pos = rows, 0 }

// clearRows empties a container an operator keeps between executions: every
// row it ever held let go, its array kept.
func clearRows(rows []types.Row) []types.Row {
	clear(rows[:cap(rows)])
	return rows[:0]
}

// NextBatch implements Operator: the next max rows, or those that remain,
// as a sub-slice of the held rows.
func (c *cursor) NextBatch(max int) ([]types.Row, error) {
	if c.pos >= len(c.rows) {
		return nil, nil
	}
	end := min(c.pos+max, len(c.rows))
	out := c.rows[c.pos:end]
	c.pos = end
	return out, nil
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
