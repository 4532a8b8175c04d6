// Package ivm is the engine's incremental view maintenance subsystem: a
// delta compiler plus a materialized aggregate state store, following
// DBToaster-style delta processing (PAPERS.md). Where the re-execution
// path scans every window row at every fire — O(window) even when the
// advance touched a handful of groups — an incremental pipeline keeps one
// running accumulator per group, applies insert deltas as rows arrive and
// retract deltas as slices expire, and fires by emitting the materialized
// state directly: O(groups) per fire, O(changed groups) maintenance per
// advance, independent of window width.
//
// State is two-layered. The window layer (groups) holds one retractable
// accumulator set per live group and is what fires emit. The slice layer
// (slices) holds per-slice per-group partials — the retraction source:
// when a slice falls out of the window, subtractable aggregates
// (COUNT/SUM/AVG — AVG via its SUM+COUNT decomposition) subtract the
// expired partial from the window accumulator, while MIN/MAX, which have
// no inverse, re-merge the surviving slice partials in ascending slice
// order (reproducing arrival-order tie behavior, since streams are
// in-order). A group leaves the state when its last window row expires,
// so a vanished group stops emitting exactly as re-execution would.
//
// The stream runtime consults Compile at pipeline registration;
// non-qualifying plans (plan.Plan.DeltaProgram says why) fall back to the
// existing re-execution or shared-slice paths untouched.
package ivm

import (
	"sort"
	"sync/atomic"

	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/plan"
	"streamrel/internal/types"
)

// State is the materialized aggregate state of one incremental pipeline.
// All methods except the exported atomic gauges are called only on the
// goroutine that applies the pipeline's input (its worker in parallel
// mode, otherwise the producer under the source lock).
type State struct {
	spec    *plan.StreamAgg
	kinds   []exec.DeltaKind
	advance int64
	visible int64

	slices map[int64]*slice  // keyed by slice start timestamp
	groups map[string]*group // window-level materialized accumulators

	// ordered keeps the groups sorted by key (types.CompareRows order,
	// matching exec.HashAgg's SortedOutput). It is maintained
	// incrementally: new groups collect in pending and are merged in at
	// the next fire, removed groups are tombstoned in place and compacted
	// then. A skewed stream adds a few tail groups every advance, and a
	// full re-sort per fire was the dominant fire cost at 10k+ groups;
	// the merge costs O(groups) pointer copies and only as many key
	// comparisons as it takes to place the newcomers.
	ordered []*group
	pending []*group
	scratch []*group
	removed int

	// dirty tracks the distinct groups touched since the last fire — the
	// streamrel_ivm_groups_touched_total increment per fire.
	dirty map[string]struct{}

	// ec, keyScratch and keyBuf are Insert's per-row scratch: the
	// expression context is re-pointed at each row, and group keys are
	// evaluated into keyScratch and encoded into keyBuf, which probes the
	// maps as string(keyBuf) without allocating. The context carries no
	// window close and no clock: plans reading either are not compiled.
	ec         expr.Ctx
	keyScratch types.Row
	keyBuf     []byte

	// fireBacking/fireRows are the output materialization, reused across
	// fires (see Fire's aliasing contract).
	fireBacking []types.Datum
	fireRows    []types.Row

	// anyMerge is true when at least one aggregate is non-subtractable
	// (min/max), so expiry needs the surviving slice order.
	anyMerge bool

	// GroupsN and SlicesN mirror len(groups) / len(slices) for metric
	// gauges, which read from other goroutines.
	GroupsN atomic.Int64
	SlicesN atomic.Int64
}

type slice struct {
	start  int64
	groups map[string]*sliceGroup
}

type sliceGroup struct {
	rows int64 // rows that passed the filter into this group, this slice
	accs []exec.DeltaAcc
}

type group struct {
	// key is the one string built for this group's key bytes: the slice
	// maps and the dirty set are keyed with it, so they share its storage.
	// It lives here and not on every sliceGroup, which would hold a copy
	// of the header per (slice, group).
	key  string
	keys types.Row
	rows int64 // live (unexpired) filtered rows across the window
	accs []exec.DeltaAcc
	dead bool // expired out; awaiting compaction from ordered/pending
}

// Compile inspects a planned CQ and returns its delta state, or the
// reason it must fall back to re-execution (exactly one is set).
func Compile(p *plan.Plan) (*State, string) {
	kinds, reason := p.DeltaProgram()
	if reason != "" {
		return nil, reason
	}
	s := &State{
		spec:       p.StreamAgg,
		kinds:      kinds,
		advance:    p.Stream.Window.Advance,
		visible:    p.Stream.Window.Visible,
		slices:     make(map[int64]*slice),
		groups:     make(map[string]*group),
		dirty:      make(map[string]struct{}),
		keyScratch: make(types.Row, len(p.StreamAgg.GroupBy)),
	}
	for _, k := range kinds {
		if !k.Subtractable() {
			s.anyMerge = true
		}
	}
	return s, ""
}

func (s *State) newAccs() []exec.DeltaAcc {
	accs := make([]exec.DeltaAcc, len(s.kinds))
	for i, k := range s.kinds {
		accs[i] = exec.NewDeltaAcc(k, s.spec.Aggs[i])
	}
	return accs
}

// Insert applies one arriving row as an insert delta: evaluate the filter
// and group keys once, then fold the aggregate arguments into both the
// row's slice partial (the future retraction) and the window accumulator.
func (s *State) Insert(row types.Row, ts int64) error {
	ec := &s.ec
	ec.Row = row
	if s.spec.Pred != nil {
		v, err := s.spec.Pred.Eval(ec)
		if err != nil {
			return err
		}
		if v.IsNull() || !v.Bool() {
			return nil
		}
	}
	for i, g := range s.spec.GroupBy {
		v, err := g.Eval(ec)
		if err != nil {
			return err
		}
		s.keyScratch[i] = v
	}
	s.keyBuf = s.keyScratch.AppendKey(s.keyBuf[:0])

	g, ok := s.groups[string(s.keyBuf)]
	if !ok {
		g = &group{key: string(s.keyBuf), keys: s.keyScratch.Clone(), accs: s.newAccs()}
		s.groups[g.key] = g
		s.pending = append(s.pending, g)
		s.GroupsN.Add(1)
	}
	start := floorDiv(ts, s.advance) * s.advance
	sl, ok := s.slices[start]
	if !ok {
		sl = &slice{start: start, groups: make(map[string]*sliceGroup)}
		s.slices[start] = sl
		s.SlicesN.Add(1)
	}
	sg, ok := sl.groups[g.key]
	if !ok {
		sg = &sliceGroup{accs: s.newAccs()}
		sl.groups[g.key] = sg
	}
	sg.rows++
	g.rows++
	s.dirty[g.key] = struct{}{}

	for i, spec := range s.spec.Aggs {
		v := types.True
		if spec.Arg != nil {
			var err error
			if v, err = spec.Arg.Eval(ec); err != nil {
				return err
			}
		}
		if err := sg.accs[i].Add(v); err != nil {
			return err
		}
		if err := g.accs[i].Add(v); err != nil {
			return err
		}
	}
	return nil
}

// Fire materializes the closing window directly from state: one row per
// live group (group keys ++ aggregate results), sorted by group key,
// carved out of one flat backing array so a fire costs zero steady-state
// allocations. The returned rows alias state-owned storage and are valid
// only until the next Fire — the caller must finish draining the plan
// built over them first (the plan always re-materializes through a
// Project, so nothing downstream retains them). Scalar aggregates over
// an empty window produce the SQL default row, matching exec.HashAgg.
// touched reports the distinct groups changed since the previous fire.
// By construction (boundaries fire in order, Expire runs after each) the
// state holds exactly the slices of the closing window [c-VISIBLE, c).
func (s *State) Fire() (rows []types.Row, touched int, err error) {
	touched = len(s.dirty)
	clear(s.dirty)
	if len(s.groups) == 0 && len(s.spec.GroupBy) == 0 {
		accs := s.newAccs()
		row := make(types.Row, len(accs))
		for i, a := range accs {
			row[i] = a.Result()
		}
		return []types.Row{row}, touched, nil
	}
	s.maintainOrder()
	width := len(s.spec.GroupBy) + len(s.spec.Aggs)
	need := len(s.ordered) * width
	if cap(s.fireBacking) < need {
		s.fireBacking = make([]types.Datum, need)
	}
	backing := s.fireBacking[:0:need]
	out := s.fireRows[:0]
	for _, g := range s.ordered {
		at := len(backing)
		backing = append(backing, g.keys...)
		for _, a := range g.accs {
			backing = append(backing, a.Result())
		}
		out = append(out, types.Row(backing[at:at+width:at+width]))
	}
	s.fireRows = out
	return out, touched, nil
}

// maintainOrder folds pending group additions into the sorted order and
// compacts tombstoned removals, in one linear pass. A group key re-added
// after its removal gets a fresh *group, so a tombstone and its live
// successor can coexist until compaction; the tombstone is simply
// skipped.
func (s *State) maintainOrder() {
	if len(s.pending) == 0 && s.removed == 0 {
		return
	}
	add := s.pending[:0]
	for _, g := range s.pending {
		if !g.dead {
			add = append(add, g)
		}
	}
	sort.Slice(add, func(i, j int) bool {
		return types.CompareRows(add[i].keys, add[j].keys) < 0
	})
	merged := s.scratch[:0]
	ai := 0
	for _, g := range s.ordered {
		if g.dead {
			continue
		}
		for ai < len(add) && types.CompareRows(add[ai].keys, g.keys) < 0 {
			merged = append(merged, add[ai])
			ai++
		}
		merged = append(merged, g)
	}
	merged = append(merged, add[ai:]...)
	s.ordered, s.scratch = merged, s.ordered[:0]
	s.pending = s.pending[:0]
	s.removed = 0
}

// Expire applies retract deltas for every slice starting before keepFrom
// (the first slice the next window can still see): subtractable
// aggregates subtract the expired partial; min/max re-merge the surviving
// per-slice partials for the groups the expired slice held. Groups whose
// last live row expired are dropped.
func (s *State) Expire(keepFrom int64) error {
	var expired []*slice
	for start, sl := range s.slices {
		if start < keepFrom {
			expired = append(expired, sl)
			delete(s.slices, start)
		}
	}
	if len(expired) == 0 {
		return nil
	}
	s.SlicesN.Add(-int64(len(expired)))
	sort.Slice(expired, func(i, j int) bool { return expired[i].start < expired[j].start })

	// Surviving slice starts in ascending order, for min/max re-merge.
	var survivors []int64
	if s.anyMerge {
		for start := range s.slices {
			survivors = append(survivors, start)
		}
		sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
	}

	for _, sl := range expired {
		for k, sg := range sl.groups {
			g, ok := s.groups[k]
			if !ok {
				continue // unreachable: every slice row is a window row
			}
			g.rows -= sg.rows
			s.dirty[k] = struct{}{}
			if g.rows <= 0 {
				delete(s.groups, k)
				g.dead = true
				s.removed++
				s.GroupsN.Add(-1)
				continue
			}
			for i, kind := range s.kinds {
				if kind.Subtractable() {
					if err := g.accs[i].Sub(sg.accs[i]); err != nil {
						return err
					}
					continue
				}
				acc := exec.NewDeltaAcc(kind, s.spec.Aggs[i])
				for _, start := range survivors {
					if osg, ok := s.slices[start].groups[k]; ok {
						if err := acc.Merge(osg.accs[i]); err != nil {
							return err
						}
					}
				}
				g.accs[i] = acc
			}
		}
	}
	return nil
}

// floorDiv is integer division rounding toward negative infinity, so
// pre-epoch timestamps slice correctly (same as the stream runtime's).
func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
