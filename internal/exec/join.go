package exec

import (
	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// JoinType mirrors the SQL join variants for the executor.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

// HashJoin joins on equality of LeftKeys and RightKeys, building a hash
// table over the right input and probing with the left. Residual is an
// optional extra predicate evaluated over the concatenated row. LEFT and
// FULL outer are supported natively; the planner swaps inputs to express
// RIGHT outer as LEFT.
type HashJoin struct {
	Left, Right           Operator
	LeftKeys, RightKeys   []*expr.Scalar
	Type                  JoinType
	Residual              *expr.Scalar
	LeftWidth, RightWidth int // column counts, for NULL padding

	ec expr.Ctx
	// table maps a build key to its bucket's index in buckets, so a build
	// row joining an existing bucket touches no map entry and only a new
	// key builds a string; key is the scratch the keys are encoded into.
	table     map[string]int
	buckets   [][]buildRow
	key       []byte
	out       rowConcat
	buf       []types.Row // output container, reused per chunk
	padLeft   types.Row   // NULLs standing in for the missing side (outer joins)
	padRight  types.Row
	leftRow   types.Row
	matches   []buildRow
	matchPos  int
	leftDone  bool
	leftMatch bool
	// FULL outer: unmatched build rows are emitted after the probe.
	unmatched    []types.Row
	unmatchedPos int
}

type buildRow struct {
	row     types.Row
	matched *bool
}

// Open implements Operator.
func (j *HashJoin) Open(ctx *Ctx) error {
	j.ec = ctx.evalCtx()
	j.table = make(map[string]int)
	j.buckets = nil
	j.out = rowConcat{width: -1}
	j.padLeft, j.padRight = nullRow(j.LeftWidth), nullRow(j.RightWidth)
	j.leftRow = nil
	j.matches = nil
	j.leftDone = false
	j.unmatched = nil
	j.unmatchedPos = 0
	rows, err := Drain(ctx, j.Right)
	if err != nil {
		return err
	}
	for _, r := range rows {
		null, err := j.keyOf(r, j.RightKeys)
		if err != nil {
			return err
		}
		br := buildRow{row: r}
		if j.Type == JoinFull || j.Type == JoinRight {
			br.matched = new(bool)
		}
		if null {
			// NULL keys never join, but FULL/RIGHT outer must still emit
			// the build row padded with NULLs.
			if j.Type == JoinFull || j.Type == JoinRight {
				j.unmatched = append(j.unmatched, r)
			}
			continue
		}
		b, ok := j.table[string(j.key)]
		if !ok {
			b = len(j.buckets)
			j.table[string(j.key)] = b
			j.buckets = append(j.buckets, nil)
		}
		j.buckets[b] = append(j.buckets[b], br)
	}
	return j.Left.Open(ctx)
}

// keyOf encodes the row's join key into j.key; null reports a NULL key
// column, which never joins.
func (j *HashJoin) keyOf(row types.Row, keys []*expr.Scalar) (null bool, err error) {
	j.ec.Row = row
	j.key = j.key[:0]
	for _, k := range keys {
		v, err := k.Eval(&j.ec)
		if err != nil {
			return false, err
		}
		if v.IsNull() {
			return true, nil
		}
		j.key = v.AppendKey(j.key)
	}
	return false, nil
}

// NextBatch implements Operator: joined rows are carved from out's blocks
// and gathered into the reused container until the demand is met or the
// probe side ends.
func (j *HashJoin) NextBatch(max int) ([]types.Row, error) { return gather(&j.buf, max, j.next) }

// next produces the join's next output row, nil at end of stream.
func (j *HashJoin) next() (types.Row, error) {
	for {
		// Emit pending matches for the current probe row.
		for j.matchPos < len(j.matches) {
			m := j.matches[j.matchPos]
			j.matchPos++
			out := j.out.concat(j.leftRow, m.row)
			if j.Residual != nil {
				j.ec.Row = out
				ok, err := evalPred(j.Residual, &j.ec)
				if err != nil {
					return nil, err
				}
				if !ok {
					j.out.discard(out)
					continue
				}
			}
			j.leftMatch = true
			if m.matched != nil {
				*m.matched = true
			}
			return out, nil
		}
		// Current probe row exhausted: left-outer padding if unmatched.
		if j.leftRow != nil && !j.leftMatch && (j.Type == JoinLeft || j.Type == JoinFull) {
			out := j.out.concat(j.leftRow, j.padRight)
			j.leftRow = nil
			return out, nil
		}
		j.leftRow = nil
		if !j.leftDone {
			row, err := probeRow(j.Left)
			if err != nil {
				return nil, err
			}
			if row == nil {
				j.leftDone = true
				if j.Type == JoinFull || j.Type == JoinRight {
					j.collectUnmatched()
				}
				continue
			}
			j.leftRow = row
			j.leftMatch = false
			j.matchPos = 0
			j.matches = nil
			null, err := j.keyOf(row, j.LeftKeys)
			if err != nil {
				return nil, err
			}
			if !null {
				if b, ok := j.table[string(j.key)]; ok {
					j.matches = j.buckets[b]
				}
			}
			continue
		}
		// FULL outer tail: unmatched build rows padded with NULL left.
		if j.unmatchedPos < len(j.unmatched) {
			r := j.unmatched[j.unmatchedPos]
			j.unmatchedPos++
			return j.out.concat(j.padLeft, r), nil
		}
		return nil, nil
	}
}

// collectUnmatched gathers the never-matched build rows in build order.
func (j *HashJoin) collectUnmatched() {
	for _, bucket := range j.buckets {
		for _, br := range bucket {
			if br.matched != nil && !*br.matched {
				j.unmatched = append(j.unmatched, br.row)
			}
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table = nil
	j.buckets = nil
	j.unmatched = nil
	return j.Left.Close()
}

// NestedLoopJoin joins on an arbitrary predicate by buffering the right
// input and scanning it per probe row. It handles CROSS joins (nil
// predicate) and non-equi conditions; LEFT outer is supported.
type NestedLoopJoin struct {
	Left, Right Operator
	Pred        *expr.Scalar // nil for CROSS
	Type        JoinType
	RightWidth  int

	ec        expr.Ctx
	out       rowConcat
	buf       []types.Row // output container, reused per chunk
	padRight  types.Row   // NULLs for the right side of an unmatched LEFT row
	right     []types.Row
	leftRow   types.Row
	rightPos  int
	leftMatch bool
}

// Open implements Operator.
func (j *NestedLoopJoin) Open(ctx *Ctx) error {
	j.ec = ctx.evalCtx()
	j.out = rowConcat{width: -1}
	j.padRight = nullRow(j.RightWidth)
	j.leftRow = nil
	var err error
	if j.right, err = Drain(ctx, j.Right); err != nil {
		return err
	}
	return j.Left.Open(ctx)
}

// NextBatch implements Operator, as HashJoin's does.
func (j *NestedLoopJoin) NextBatch(max int) ([]types.Row, error) {
	return gather(&j.buf, max, j.next)
}

// next produces the join's next output row, nil at end of stream.
func (j *NestedLoopJoin) next() (types.Row, error) {
	for {
		if j.leftRow == nil {
			row, err := probeRow(j.Left)
			if err != nil || row == nil {
				return nil, err
			}
			j.leftRow = row
			j.rightPos = 0
			j.leftMatch = false
		}
		for j.rightPos < len(j.right) {
			r := j.right[j.rightPos]
			j.rightPos++
			out := j.out.concat(j.leftRow, r)
			if j.Pred != nil {
				j.ec.Row = out
				ok, err := evalPred(j.Pred, &j.ec)
				if err != nil {
					return nil, err
				}
				if !ok {
					j.out.discard(out)
					continue
				}
			}
			j.leftMatch = true
			return out, nil
		}
		if !j.leftMatch && j.Type == JoinLeft {
			out := j.out.concat(j.leftRow, j.padRight)
			j.leftRow = nil
			return out, nil
		}
		j.leftRow = nil
	}
}

// Close implements Operator.
func (j *NestedLoopJoin) Close() error {
	j.right = nil
	return j.Left.Close()
}

// probeRow pulls a join's next left row, nil when the left input has
// ended. One row per pull: how many probe rows it takes to produce the rows
// the join's consumer asked for is not known until they are probed, and a
// pull must not make the left subtree produce a row the query may never
// need.
func probeRow(left Operator) (types.Row, error) {
	in, err := left.NextBatch(1)
	if err != nil || in == nil {
		return nil, err
	}
	return in[0], nil
}

// gather fills a join's reused output container from next until the demand
// is met or next reports the end of the join with a nil row.
func gather(buf *[]types.Row, max int, next func() (types.Row, error)) ([]types.Row, error) {
	out := (*buf)[:0]
	for len(out) < max {
		row, err := next()
		if err != nil {
			return nil, err
		}
		if row == nil {
			break
		}
		out = append(out, row)
	}
	*buf = out
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// rowConcat builds join output rows l ++ r, carved from a types.RowBlock
// instead of one allocation per row. A returned row is never written again
// and keeps its storage for as long as the caller retains it (whole blocks
// are what the collector frees). Start it as rowConcat{width: -1}: the
// block is sized by the first row.
type rowConcat struct {
	blk   types.RowBlock
	width int
	spare types.Row // a carved row the caller discarded; handed out next
}

func (c *rowConcat) concat(l, r types.Row) types.Row {
	if w := len(l) + len(r); w != c.width {
		// First row (or, against every schema, a change of width).
		*c = rowConcat{blk: types.NewRowBlock(16, w), width: w}
	}
	out := c.spare
	c.spare = nil
	if out == nil {
		out = c.blk.Row()
	}
	copy(out[copy(out, l):], r)
	return out
}

// discard takes back the row concat just returned — a candidate that
// failed the join predicate — so the next candidate overwrites it.
func (c *rowConcat) discard(row types.Row) { c.spare = row }

func nullRow(n int) types.Row {
	out := make(types.Row, n)
	for i := range out {
		out[i] = types.Null
	}
	return out
}
