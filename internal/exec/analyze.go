package exec

import (
	"reflect"
	"time"

	"streamrel/internal/types"
)

// OpStat is one operator's execution statistics, filled in as the
// instrumented tree runs. Elapsed is inclusive of children (they run
// inside the parent's Open/NextBatch), which matches EXPLAIN ANALYZE "actual
// time" reporting elsewhere.
type OpStat struct {
	// Name is the operator kind (SeqScan, HashJoin, …), and Detail what
	// EXPLAIN prints beside it: an IndexScan's Range, a HashAgg's "(maintained)".
	Name, Detail string
	// Depth is the operator's depth in the plan tree (root = 0).
	Depth int
	// Rows counts the rows in the chunks the operator returned from
	// NextBatch.
	Rows int64
	// Elapsed is wall time spent inside Open and NextBatch, children
	// included.
	Elapsed time.Duration
}

// Instrument wraps every operator in the tree with a row/time counter and
// returns the wrapped root plus the per-operator stats in pre-order
// (parent before children). The tree must not be shared with another
// execution: children are re-linked to their wrapped forms in place.
func Instrument(op Operator) (Operator, []*OpStat) {
	var stats []*OpStat
	root := instrument(op, &stats, 0)
	return root, stats
}

func instrument(op Operator, stats *[]*OpStat, depth int) Operator {
	if op == nil {
		return nil
	}
	st := &OpStat{Name: opName(op), Depth: depth}
	switch o := op.(type) {
	case *IndexScan:
		st.Detail = o.Range
	case *HashAgg:
		if scan, _, _ := deltaScan(o.Child); o.Maintain && scan != nil {
			st.Detail = "(maintained)"
		}
	}
	*stats = append(*stats, st)
	switch o := op.(type) {
	case *Filter:
		o.Child = instrument(o.Child, stats, depth+1)
	case *Project:
		o.Child = instrument(o.Child, stats, depth+1)
	case *Limit:
		o.Child = instrument(o.Child, stats, depth+1)
	case *Sort:
		o.Child = instrument(o.Child, stats, depth+1)
	case *Distinct:
		o.Child = instrument(o.Child, stats, depth+1)
	case *HashAgg:
		o.Child = instrument(o.Child, stats, depth+1)
	case *SetOp:
		o.Left = instrument(o.Left, stats, depth+1)
		o.Right = instrument(o.Right, stats, depth+1)
	case *HashJoin:
		o.Left = instrument(o.Left, stats, depth+1)
		o.Right = instrument(o.Right, stats, depth+1)
	case *NestedLoopJoin:
		o.Left = instrument(o.Left, stats, depth+1)
		o.Right = instrument(o.Right, stats, depth+1)
	}
	return &counted{op: op, stat: st}
}

// opName names an operator kind for ANALYZE output: its type's name, but a
// set operation by its kind and a join with its type.
func opName(op Operator) string {
	switch o := op.(type) {
	case *SetOp:
		switch o.Kind {
		case SetUnion:
			return "Union"
		case SetExcept:
			return "Except"
		case SetIntersect:
			return "Intersect"
		}
		return "SetOp"
	case *HashJoin:
		return "HashJoin" + joinSuffix(o.Type)
	case *NestedLoopJoin:
		return "NestedLoopJoin" + joinSuffix(o.Type)
	case *counted:
		return o.stat.Name
	}
	return reflect.TypeOf(op).Elem().Name()
}

func joinSuffix(t JoinType) string {
	switch t {
	case JoinLeft:
		return " (left)"
	case JoinRight:
		return " (right)"
	case JoinFull:
		return " (full)"
	case JoinCross:
		return " (cross)"
	}
	return ""
}

// counted decorates one operator, counting emitted rows and wall time. It
// pulls with the demand it is given, so the instrumented tree does exactly
// the work the plain one does.
type counted struct {
	op   Operator
	stat *OpStat
}

// Open implements Operator.
func (c *counted) Open(ctx *Ctx) error {
	start := time.Now()
	err := c.op.Open(ctx)
	c.stat.Elapsed += time.Since(start)
	return err
}

// NextBatch implements Operator.
func (c *counted) NextBatch(max int) ([]types.Row, error) {
	start := time.Now()
	batch, err := c.op.NextBatch(max)
	c.stat.Elapsed += time.Since(start)
	c.stat.Rows += int64(len(batch))
	return batch, err
}

// Close implements Operator.
func (c *counted) Close() error { return c.op.Close() }

func (c *counted) rowsTransient() { rowsTransient(c.op) }
