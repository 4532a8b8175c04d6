package stream

import (
	"sort"

	"streamrel/internal/expr"
	"streamrel/internal/plan"
	"streamrel/internal/types"
)

// sharedAgg is one shared slice computation: all continuous queries over
// the same stream with the same (filter, grouping, aggregates) fingerprint
// and the same ADVANCE granularity aggregate each slice exactly once, then
// combine per-window. This is the paper's shared on-the-fly aggregation
// ([12], and [4]'s slice sharing): with k identical-shape CQs the per-row
// work is paid once instead of k times.
type sharedAgg struct {
	key     string
	spec    *plan.StreamAgg
	advance int64
	members []*Pipeline

	slices     map[int64]*sliceState // keyed by slice start timestamp
	maxVisible int64
	lastTS     int64

	// push's per-row scratch: the expression context is re-pointed at each
	// row (no window close, no clock: plans reading either do not share
	// slices), group keys are evaluated into keyScratch and encoded into
	// keyBuf, and a slice's groups are probed with string(keyBuf).
	ec         expr.Ctx
	keyScratch types.Row
	keyBuf     []byte
}

type sliceState struct {
	start  int64
	groups map[string]*sliceGroup
}

type sliceGroup struct {
	keys types.Row
	accs []expr.Acc
}

func newSharedAgg(key string, spec *plan.StreamAgg, advance int64) *sharedAgg {
	return &sharedAgg{
		key:        key,
		spec:       spec,
		advance:    advance,
		slices:     make(map[int64]*sliceState),
		keyScratch: make(types.Row, len(spec.GroupBy)),
	}
}

func (a *sharedAgg) attach(p *Pipeline) {
	a.members = append(a.members, p)
	if p.win.Visible > a.maxVisible {
		a.maxVisible = p.win.Visible
	}
}

func (a *sharedAgg) detach(p *Pipeline) {
	for i, m := range a.members {
		if m == p {
			a.members = append(a.members[:i], a.members[i+1:]...)
			break
		}
	}
	a.maxVisible = 0
	for _, m := range a.members {
		if m.win.Visible > a.maxVisible {
			a.maxVisible = m.win.Visible
		}
	}
}

// push folds one row into its slice's partial aggregates — once,
// regardless of how many member CQs will consume it.
func (a *sharedAgg) push(row types.Row, ts int64) error {
	ec := &a.ec
	ec.Row = row
	if a.spec.Pred != nil {
		v, err := a.spec.Pred.Eval(ec)
		if err != nil {
			return err
		}
		if v.IsNull() || !v.Bool() {
			return nil
		}
	}
	start := floorDiv(ts, a.advance) * a.advance
	sl, ok := a.slices[start]
	if !ok {
		sl = &sliceState{start: start, groups: make(map[string]*sliceGroup)}
		a.slices[start] = sl
	}
	for i, g := range a.spec.GroupBy {
		v, err := g.Eval(ec)
		if err != nil {
			return err
		}
		a.keyScratch[i] = v
	}
	a.keyBuf = a.keyScratch.AppendKey(a.keyBuf[:0])
	grp, ok := sl.groups[string(a.keyBuf)]
	if !ok {
		grp = &sliceGroup{keys: a.keyScratch.Clone(), accs: make([]expr.Acc, len(a.spec.Aggs))}
		for i, spec := range a.spec.Aggs {
			acc, err := expr.NewAcc(spec)
			if err != nil {
				return err
			}
			grp.accs[i] = acc
		}
		sl.groups[string(a.keyBuf)] = grp
	}
	for i, spec := range a.spec.Aggs {
		v := types.True
		if spec.Arg != nil {
			var err error
			if v, err = spec.Arg.Eval(ec); err != nil {
				return err
			}
		}
		if err := grp.accs[i].Add(v); err != nil {
			return err
		}
	}
	return nil
}

// advanceTo garbage-collects slices no member window can ever read again.
func (a *sharedAgg) advanceTo(ts int64) {
	a.lastTS = ts
	horizon := ts - a.maxVisible - a.advance
	for start := range a.slices {
		if start < horizon {
			delete(a.slices, start)
		}
	}
}

// windowRows merges the slices covering [c-visible, c) into final
// aggregate rows (group keys ++ results), sorted by group key for
// determinism. Scalar aggregates over an empty window still produce one
// default row, matching exec.HashAgg.
func (a *sharedAgg) windowRows(c, visible int64) ([]types.Row, error) {
	type winGroup struct {
		keys types.Row
		accs []expr.Acc
	}
	groups := make(map[string]*winGroup)
	for start := c - visible; start < c; start += a.advance {
		sl, ok := a.slices[start]
		if !ok {
			continue
		}
		// Merge in ascending slice order (the loop order) so order-
		// sensitive aggregates (first/last) behave like direct evaluation.
		keys := make([]string, 0, len(sl.groups))
		for k := range sl.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sg := sl.groups[k]
			wg, ok := groups[k]
			if !ok {
				wg = &winGroup{keys: sg.keys, accs: make([]expr.Acc, len(a.spec.Aggs))}
				for i, spec := range a.spec.Aggs {
					acc, err := expr.NewAcc(spec)
					if err != nil {
						return nil, err
					}
					wg.accs[i] = acc
				}
				groups[k] = wg
			}
			for i := range wg.accs {
				if err := wg.accs[i].Merge(sg.accs[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	if len(groups) == 0 && len(a.spec.GroupBy) == 0 {
		// Scalar aggregate over an empty window: defaults.
		accs := make([]expr.Acc, len(a.spec.Aggs))
		for i, spec := range a.spec.Aggs {
			acc, err := expr.NewAcc(spec)
			if err != nil {
				return nil, err
			}
			accs[i] = acc
		}
		groups[""] = &winGroup{accs: accs}
	}
	out := make([]types.Row, 0, len(groups))
	for _, wg := range groups {
		row := make(types.Row, 0, len(wg.keys)+len(wg.accs))
		row = append(row, wg.keys...)
		for _, acc := range wg.accs {
			row = append(row, acc.Result())
		}
		out = append(out, row)
	}
	nk := len(a.spec.GroupBy)
	sort.SliceStable(out, func(i, j int) bool {
		return types.CompareRows(out[i][:nk], out[j][:nk]) < 0
	})
	return out, nil
}

// floorDiv is integer division rounding toward negative infinity, so
// pre-epoch timestamps slice correctly.
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
