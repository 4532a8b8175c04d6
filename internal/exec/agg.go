package exec

import (
	"slices"
	"strings"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// HashAgg implements grouped aggregation. Its output rows are the group
// key values followed by one column per aggregate, which is the layout
// the planner's post-aggregation expressions are rewritten against.
//
// It is what aggregates whatever is not kept in the window-state store
// (internal/ivm): snapshot queries, re-executing CQs and the post stage of
// an enrichment join, over the store's rows at every close.
type HashAgg struct {
	Child   Operator
	GroupBy []*expr.Scalar
	Aggs    []expr.AggSpec
	// SortedOutput makes group iteration deterministic (keyed order);
	// used when no explicit ORDER BY will run above.
	SortedOutput bool
	cursor
}

// firstGroups sizes a grouped aggregate's first chunk of groups.
const firstGroups = 16

// Open implements Operator: the aggregation is computed eagerly.
func (h *HashAgg) Open(ctx *Ctx) error {
	h.reset(nil)
	rowsTransient(h.Child) // a group keeps datums (its key, its accumulators), never a row
	if err := h.Child.Open(ctx); err != nil {
		return err
	}
	defer h.Child.Close()

	// Group keys are evaluated into a scratch row and encoded into a scratch
	// buffer, and most rows hit an existing group, so the steady state
	// allocates nothing per row. A new group pays per chunk: it is a slab
	// slot (its accumulator list and accumulators with it), its output row,
	// keys first, comes from a block, and its map key is a substring of a
	// chunk of key bytes, sized like the slab's chunks.
	type group struct {
		out  types.Row
		accs []expr.Acc
		next *group // in order of first appearance
	}
	nk, first := len(h.GroupBy), firstGroups
	if nk == 0 {
		first = 1
	}
	groups := make(map[string]*group)
	slab := expr.NewSlab[group](first)
	blk := types.NewRowBlock(first, nk+len(h.Aggs))
	scratch := make(types.Row, nk)
	var keys strings.Builder
	var head *group
	tail := &head
	born := func(key []byte) (*group, error) {
		g, accs, err := slab.Next(h.Aggs)
		if err != nil {
			return nil, err
		}
		g.out, g.accs = blk.Row(), accs
		copy(g.out, scratch)
		*tail, tail = g, &g.next
		if keys.Cap()-keys.Len() < len(key) {
			keys.Reset() // the map's keys keep the chunk before
			keys.Grow(len(key) * min(max(len(groups), first), 256))
		}
		at := keys.Len()
		keys.Write(key)
		groups[keys.String()[at:]] = g
		return g, nil
	}

	ec := ctx.evalCtx()
	key := make([]byte, 0, 64) // on the stack; a longer key moves it to the heap once
	for {
		batch, err := h.Child.NextBatch(chunkRows)
		if err != nil {
			return err
		}
		if batch == nil {
			break
		}
		for _, row := range batch {
			ec.Row = row
			for i, g := range h.GroupBy {
				if scratch[i], err = g.Eval(&ec); err != nil {
					return err
				}
			}
			key = scratch.AppendKey(key[:0])
			grp, ok := groups[string(key)]
			if !ok {
				if grp, err = born(key); err != nil {
					return err
				}
			}
			for i, spec := range h.Aggs {
				v := types.True // count(*) placeholder
				if spec.Arg != nil {
					if v, err = spec.Arg.Eval(&ec); err != nil {
						return err
					}
				}
				if err := grp.accs[i].Add(v); err != nil {
					return err
				}
			}
		}
	}

	// SQL scalar aggregate: no GROUP BY and empty input still yields one
	// row of aggregate defaults.
	if head == nil && nk == 0 {
		if _, err := born(nil); err != nil {
			return err
		}
	}
	h.rows = make([]types.Row, 0, len(groups))
	for g := head; g != nil; g = g.next {
		for i, acc := range g.accs {
			g.out[nk+i] = acc.Result()
		}
		h.rows = append(h.rows, g.out)
	}
	if h.SortedOutput && nk > 0 {
		slices.SortStableFunc(h.rows, func(a, b types.Row) int { return types.CompareRows(a[:nk], b[:nk]) })
	}
	return nil
}

// Close implements Operator.
func (h *HashAgg) Close() error { h.rows = nil; return nil }
