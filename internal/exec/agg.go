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
//
// Maintained (Maintain, a consumer that keeps no row, one table scan below:
// deltaScan), it keeps its groups, and the next execution adds only the rows
// appended since (DESIGN §11 "The plan cache").
type HashAgg struct {
	Child   Operator
	GroupBy []*expr.Scalar
	Aggs    []expr.AggSpec
	// SortedOutput makes group iteration deterministic (keyed order);
	// used when no explicit ORDER BY will run above.
	SortedOutput bool
	Maintain     bool // nothing below reads a $n, now() or cq_close(*)
	cursor

	// What executions share: the groups, in the map by key — an execution
	// finds a key it had before with its group, reset — and the scratch.
	ec          expr.Ctx
	scratch     types.Row
	groups      map[string]*aggGroup
	slab        expr.Slab[aggGroup]
	head        *aggGroup  // this execution's groups, in order of first appearance
	epoch, used int        // this execution, and the groups it has used
	transient   bool       // the consumer keeps no row (see rowsTransient)
	kept        bool       // maintained: the groups hold the table up to the scan's mark
	tail        **aggGroup // where a maintained execution links its next new group
}

type aggGroup struct {
	out   types.Row // fresh for each execution, unless the consumer keeps none
	accs  []expr.Acc
	epoch int // the execution the group is in
	next  *aggGroup
}

// firstGroups sizes a grouped aggregate's first chunk of groups.
const firstGroups = 16

// Open implements Operator: the aggregation is computed eagerly.
func (h *HashAgg) Open(ctx *Ctx) error {
	h.Close()
	rowsTransient(h.Child) // a group keeps datums (its key, its accumulators), never a row
	defer h.Child.Close()
	kept := h.kept
	h.kept = false // until the execution succeeds
	if err := h.Child.Open(ctx); err != nil {
		return err
	}
	scan, held, same := deltaScan(h.Child)
	keep := h.Maintain && h.transient && scan != nil && held && ctx.Snap.Decided(scan.last)

	// Group keys are evaluated into a scratch row and encoded into a scratch
	// buffer, and most rows hit an existing group, so the steady state
	// allocates nothing per row. A key new to the map is a slab slot (its
	// accumulators with it) and a substring of a chunk of key bytes; a
	// group's output row, keys first, is carved from a block — or, for a
	// consumer that keeps no row, is the one it had. After an execution that
	// used at most half of the groups (or none of none), all start afresh:
	// a tree keeps at most twice what its last execution needed.
	nk, first := len(h.GroupBy), firstGroups
	if nk == 0 {
		first = 1
	}
	tail := &h.head
	if kept && keep && same && scan.mark.Mut == scan.prev.Mut {
		scan.next, tail = scan.prev.Next, h.tail // the groups hold the rows below it
	} else {
		h.Close() // not kept: the groups are reset
		if 2*h.used <= len(h.groups) {
			h.groups, h.slab = make(map[string]*aggGroup, h.used), expr.NewSlab[aggGroup](max(h.used, first))
			h.scratch = make(types.Row, nk)
		}
		h.epoch, h.used = h.epoch+1, 0
	}
	blk := types.NewRowBlock(max(len(h.groups), first), nk+len(h.Aggs))
	var keys strings.Builder
	group := func(key []byte) (*aggGroup, error) {
		g, ok := h.groups[string(key)]
		if !ok {
			var accs []expr.Acc
			var err error
			if g, accs, err = h.slab.Next(h.Aggs); err != nil {
				return nil, err
			}
			g.accs = accs
			if keys.Cap()-keys.Len() < len(key) {
				keys.Reset() // the map's keys keep the chunk before
				keys.Grow(len(key) * min(max(len(h.groups), first), 256))
			}
			at := keys.Len()
			keys.Write(key)
			h.groups[keys.String()[at:]] = g
		}
		if g.epoch != h.epoch { // its first row in this execution
			if g.out == nil || !h.transient {
				g.out = blk.Row()
			}
			copy(g.out, h.scratch)
			g.epoch, g.next, h.used = h.epoch, nil, h.used+1
			*tail, tail = g, &g.next
		}
		return g, nil
	}

	h.ec = ctx.evalCtx()
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
			h.ec.Row = row
			for i, g := range h.GroupBy {
				if h.scratch[i], err = g.Eval(&h.ec); err != nil {
					return err
				}
			}
			grp, err := group(h.scratch.AppendKey(key[:0]))
			if err != nil {
				return err
			}
			for i, spec := range h.Aggs {
				v := types.True // count(*) placeholder
				if spec.Arg != nil {
					if v, err = spec.Arg.Eval(&h.ec); err != nil {
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
	if h.head == nil && nk == 0 {
		if _, err := group(nil); err != nil {
			return err
		}
	}
	if cap(h.rows) < h.used {
		h.rows = make([]types.Row, 0, h.used)
	}
	for g := h.head; g != nil; g = g.next {
		for i, acc := range g.accs {
			g.out[nk+i] = acc.Result()
		}
		h.rows = append(h.rows, g.out)
	}
	if h.SortedOutput && nk > 0 {
		slices.SortStableFunc(h.rows, func(a, b types.Row) int { return types.CompareRows(a[:nk], b[:nk]) })
	}
	h.kept, h.tail = keep, tail
	return nil
}

// Close implements Operator: the execution's groups are reset and let go of
// their rows — a row the consumer kept none of is cleared instead — unless kept.
func (h *HashAgg) Close() error {
	h.ec = expr.Ctx{}
	clear(h.scratch)
	h.reset(clearRows(h.rows))
	if h.kept {
		return nil
	}
	for g := h.head; g != nil; g = g.next {
		if h.transient {
			clear(g.out)
		} else {
			g.out = nil
		}
		for _, a := range g.accs {
			expr.Reset(a)
		}
	}
	h.head, h.tail = nil, nil
	return nil
}

// deltaScan returns the one table scan op reads, through filters, projections
// and the probe side of joins with a JoinBuild, and whether every such join's
// side is kept (held) and at the mark the last execution read (same).
func deltaScan(op Operator) (scan *SeqScan, held, same bool) {
	for held, same = true, true; ; {
		switch o := op.(type) {
		case *SeqScan:
			return o, held, same
		case *Filter:
			op = o.Child
		case *Project:
			op = o.Child
		case *HashJoin:
			if o.Keep == nil {
				return nil, false, false
			}
			op, held, same = o.Left, held && o.held, same && o.same
		default:
			return nil, false, false
		}
	}
}

func (h *HashAgg) rowsTransient() { h.transient = true }
