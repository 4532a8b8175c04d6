package exec

import (
	"sync/atomic"

	"streamrel/internal/expr"
	"streamrel/internal/storage"
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
// optional extra predicate evaluated over the concatenated row. Every join
// type is native: LEFT, RIGHT and FULL pad the side that found no match, and
// CROSS is INNER. With no keys it is the nested loop: every build row's key
// is "", so all of them sit in one chain in build order, each probe row
// meets them all, and Residual is the ON predicate.
type HashJoin struct {
	Left, Right           Operator
	LeftKeys, RightKeys   []*expr.Scalar
	Type                  JoinType
	Residual              *expr.Scalar
	LeftWidth, RightWidth int        // column counts, for NULL padding
	Keep                  *JoinBuild // if set, Right scans Keep.Heap and Type is INNER or LEFT

	ec expr.Ctx
	// The hash table over the build side. build holds its rows in build
	// order, each chained by index to the next row with the same key; table
	// maps a key to the first row of its chain. Every key is a substring of
	// one backing string, so building costs a handful of allocations
	// whatever the row count; key is the scratch a key is encoded into.
	table     map[string]int32
	build     []buildRow
	key       []byte
	keyBuf    [64]byte // key's first backing
	out       rowConcat
	buf       []types.Row // output container, reused per chunk
	padLeft   types.Row   // NULLs standing in for the missing side (outer joins)
	padRight  types.Row
	leftRow   types.Row
	match     int32 // next build row to try for leftRow; -1 when its chain is done
	leftDone  bool
	leftMatch bool
	// FULL outer: unmatched build rows are emitted after the probe.
	unmatched    []types.Row
	unmatchedPos int
	// With Keep: the table's mark read, the side kept, the last execution's mark.
	mark       storage.Mark
	held, same bool
}

// buildRow is one build-side row in its key's chain. The head of a chain
// keeps the chain's tail (the others hold -1); a row with a NULL key is in
// no chain.
type buildRow struct {
	row        types.Row
	keyEnd     int32 // where its key ends in the backing string
	next, tail int32
	null       bool
	matched    bool // FULL and RIGHT only: a kept side is never written
}

// JoinBuild is the build side of a HashJoin over a bare table scan that one
// plan keeps between executions while the table is unchanged: the delta of
// partials ⋈ T in T kept as a map (DBToaster, first order). The plan owns it;
// what it holds is immutable, shared by the plan's executions, never written.
type JoinBuild struct {
	Heap *storage.Heap
	kept atomic.Pointer[keptBuild]
}

type keptBuild struct {
	mark  storage.Mark // Heap's when it was built
	table map[string]int32
	build []buildRow
}

// Kept returns the kept side's heap mark and rows; nil rows: none kept.
func (b *JoinBuild) Kept() (storage.Mark, []buildRow) {
	if k := b.kept.Load(); k != nil {
		return k.mark, k.build
	}
	return storage.Mark{}, nil
}

// Open implements Operator. With Keep set it reads the heap's stamp after
// ctx.Snap was taken and adopts the kept side if the snapshot decides every
// stamp at the mark the side was built at (storage.Heap.Stamp says why);
// otherwise it builds, and keeps what it built if the snapshot decides.
func (j *HashJoin) Open(ctx *Ctx) error {
	j.ec = ctx.evalCtx()
	j.out.reset()
	j.key = j.keyBuf[:0]
	if (j.Type == JoinLeft || j.Type == JoinFull) && j.padRight == nil {
		j.padRight = nullRow(j.RightWidth)
	}
	if (j.Type == JoinRight || j.Type == JoinFull) && j.padLeft == nil {
		j.padLeft = nullRow(j.LeftWidth)
	}
	j.leftRow = nil
	j.match = -1
	j.leftDone = false
	j.unmatched = nil
	j.unmatchedPos = 0
	decided := false
	if j.Keep != nil {
		mark, last := j.Keep.Heap.Stamp()
		decided = ctx.Snap.Decided(last)
		j.mark, j.held, j.same = mark, decided, mark == j.mark
		if k := j.Keep.kept.Load(); decided && k != nil && k.mark == mark {
			j.table, j.build = k.table, k.build
			rowsTransient(j.Left)
			return j.Left.Open(ctx)
		}
	}
	rows, err := Drain(ctx, j.Right, 0) // build rows are kept: never rewritten
	if err != nil {
		return err
	}
	// Encode every key into one buffer, make one string of it, then chain
	// the rows through substrings of that string.
	j.build = make([]buildRow, len(rows))
	var keys []byte
	for i, r := range rows {
		j.build[i] = buildRow{row: r, next: -1, tail: -1}
		if j.build[i].null, err = j.keyOf(r, j.RightKeys); err != nil {
			return err
		}
		if keys == nil && len(j.RightKeys) > 0 {
			// Keys of one column list are much of a size; no keys, no bytes.
			keys = make([]byte, 0, len(rows)*(len(j.key)+4))
		}
		if !j.build[i].null {
			keys = append(keys, j.key...)
		}
		j.build[i].keyEnd = int32(len(keys))
	}
	backing := string(keys)
	entries := len(rows)
	if len(j.RightKeys) == 0 {
		entries = 1 // one chain
	}
	j.table = make(map[string]int32, entries)
	at := int32(0)
	for i := range j.build {
		key := backing[at:j.build[i].keyEnd]
		at = j.build[i].keyEnd
		if j.build[i].null {
			continue // NULL keys never join
		}
		head, ok := j.table[key]
		if !ok {
			j.table[key] = int32(i)
			j.build[i].tail = int32(i)
			continue
		}
		j.build[j.build[head].tail].next = int32(i)
		j.build[head].tail = int32(i)
	}
	if decided {
		j.Keep.kept.Store(&keptBuild{mark: j.mark, table: j.table, build: j.build})
	}
	rowsTransient(j.Left) // a probe row is done with before the next is pulled
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
func (j *HashJoin) NextBatch(max int) ([]types.Row, error) { return j.out.gather(&j.buf, max, j.next) }

func (j *HashJoin) rowsTransient() { j.out.recycle = true }

// next produces the join's next output row, nil at end of stream.
func (j *HashJoin) next() (types.Row, error) {
	for {
		// Emit pending matches for the current probe row.
		for j.match >= 0 {
			m := &j.build[j.match]
			j.match = m.next
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
			if j.Type == JoinFull || j.Type == JoinRight {
				m.matched = true
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
			null, err := j.keyOf(row, j.LeftKeys)
			if err != nil {
				return nil, err
			}
			if !null {
				if head, ok := j.table[string(j.key)]; ok {
					j.match = head
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

// collectUnmatched gathers the build rows that never matched: those with a
// NULL key, then the rest chain by chain in the order the chains began.
func (j *HashJoin) collectUnmatched() {
	for i := range j.build {
		if j.build[i].null {
			j.unmatched = append(j.unmatched, j.build[i].row)
		}
	}
	for i := range j.build {
		if j.build[i].tail < 0 {
			continue // not the head of a chain
		}
		for k := int32(i); k >= 0; k = j.build[k].next {
			if !j.build[k].matched {
				j.unmatched = append(j.unmatched, j.build[k].row)
			}
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.table, j.build, j.unmatched, j.leftRow, j.ec = nil, nil, nil, nil, expr.Ctx{}
	j.out.reset()
	j.buf = clearRows(j.buf)
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

// rowConcat builds join output rows l ++ r, carved from a types.RowBlock
// instead of one allocation per row. A returned row is never written again
// and keeps its storage for as long as the caller retains it (whole blocks
// are what the collector frees) — unless the join's consumer declared that
// it keeps none past its next pull (recycle). The join then carves every
// batch from one block: a batch ends where the block is used up, if the
// demand or the input has not ended it sooner, and the next pull takes the
// block's rows back before it carves again (gather). The block is the one a
// join that recycles nothing starts with, so a join of a few rows allocates
// what it always did, and one of a million rows nothing more; a tree opened
// again keeps it, so the next execution allocates nothing for it either.
type rowConcat struct {
	blk     types.RowBlock
	width   int       // of the rows blk carves; -1 before the first
	spare   types.Row // a carved row the caller discarded; handed out next
	recycle bool
}

// reset readies c for an execution; what the consumer declared stays, and so
// does a recycling join's block, its rows taken back and cleared — all of
// its array, as an earlier batch's rows may lie past the last one's.
func (c *rowConcat) reset() {
	if !c.recycle || c.width < 0 {
		*c = rowConcat{width: -1, recycle: c.recycle}
	} else {
		taken := c.blk.Rewind()
		clear(taken[:cap(taken)])
		c.spare = nil
	}
}

// gather fills a join's reused output container from next until the demand
// is met, next reports the end of the join with a nil row or, recycling,
// the block is used up.
func (c *rowConcat) gather(buf *[]types.Row, max int, next func() (types.Row, error)) ([]types.Row, error) {
	if c.recycle {
		c.blk.Rewind()
		c.spare = nil // one of them
	}
	if *buf == nil {
		*buf = make([]types.Row, 0, min(max, 16)) // a batch carved from the first block
	}
	out := (*buf)[:0]
	for len(out) < max && !(c.recycle && c.spare == nil && c.blk.Full()) {
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

func (c *rowConcat) concat(l, r types.Row) types.Row {
	if w := len(l) + len(r); w != c.width {
		// First row (or, against every schema, a change of width).
		c.blk, c.width, c.spare = types.NewRowBlock(16, w), w, nil
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
