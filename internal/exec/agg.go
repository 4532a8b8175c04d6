package exec

import (
	"sort"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// HashAgg implements grouped aggregation. Its output rows are the group
// key values followed by one column per aggregate, which is the layout
// the planner's post-aggregation expressions are rewritten against.
//
// HashAgg is also the slice-level workhorse of shared window aggregation:
// the stream runtime aggregates each slice with the same AggSpecs and
// merges the per-slice accumulators at window close (see
// internal/stream/sharing.go).
type HashAgg struct {
	Child   Operator
	GroupBy []*expr.Scalar
	Aggs    []expr.AggSpec
	// SortedOutput makes group iteration deterministic (keyed order);
	// used when no explicit ORDER BY will run above.
	SortedOutput bool
	cursor
}

// Open implements Operator: the aggregation is computed eagerly.
func (h *HashAgg) Open(ctx *Ctx) error {
	h.reset(nil)
	rowsTransient(h.Child) // a group keeps datums (its key, its accumulators), never a row
	if err := h.Child.Open(ctx); err != nil {
		return err
	}
	defer h.Child.Close()

	type group struct {
		keys types.Row
		accs []expr.Acc
	}
	groups := make(map[string]*group)
	var order []*group

	// Evaluate group keys into a scratch row and its key bytes into a
	// scratch buffer: the row is cloned and the key string built only when
	// a new group is born — most rows hit an existing group, so the steady
	// state allocates nothing per row.
	ec := ctx.evalCtx()
	scratch := make(types.Row, len(h.GroupBy))
	var key []byte
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
				grp = &group{keys: scratch.Clone()}
				grp.accs = make([]expr.Acc, len(h.Aggs))
				for i, spec := range h.Aggs {
					if grp.accs[i], err = expr.NewAcc(spec); err != nil {
						return err
					}
				}
				groups[string(key)] = grp
				order = append(order, grp)
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
	if len(order) == 0 && len(h.GroupBy) == 0 {
		accs := make([]expr.Acc, len(h.Aggs))
		for i, spec := range h.Aggs {
			var err error
			if accs[i], err = expr.NewAcc(spec); err != nil {
				return err
			}
		}
		order = append(order, &group{accs: accs})
	}

	nk := len(h.GroupBy)
	blk := types.NewRowBlock(len(order), nk+len(h.Aggs))
	h.rows = make([]types.Row, len(order))
	for g, grp := range order {
		out := blk.Row()
		copy(out, grp.keys)
		for i, acc := range grp.accs {
			out[nk+i] = acc.Result()
		}
		h.rows[g] = out
	}
	if h.SortedOutput && nk > 0 {
		sort.SliceStable(h.rows, func(i, j int) bool {
			return types.CompareRows(h.rows[i][:nk], h.rows[j][:nk]) < 0
		})
	}
	return nil
}

// Close implements Operator.
func (h *HashAgg) Close() error { h.rows = nil; return nil }
