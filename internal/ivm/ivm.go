// Package ivm is the engine's window-state store: the one place a
// continuous query's window lives. It holds the paper's shared slice
// aggregation ([12], Arasu & Widom [4]) — each slice of a stream is
// aggregated once per (stream, fingerprint, window kind, ADVANCE), whatever
// the number of queries reading it — with DBToaster's refinement (PAPERS.md)
// on top: the combined answer of a window is kept materialized and
// maintained by deltas.
//
// A Store is the slice layer: per-slice per-group partial accumulators, and
// one group per live key — key string, key row and a dense id — shared by
// every slice and every view. Its map from key to group is the one lookup: a
// slice lists its partials' ids, a view indexes its window layer by id. Insert
// folds an arriving row into the newest slice and touches nothing else, so
// the per-row cost does not depend on how many windows read the store. A View
// is one window extent (VISIBLE) over the store. By definition its window
// layer is the merge, in slice order, of the retained slices in its extent;
// the view keeps that layer between fires and moves it one boundary at a time
// — add what just closed, retract what just left, a slice or a pair of them:
// Sub where the accumulator has an inverse (COUNT/SUM/AVG), a reset of every
// one that has none (MIN/MAX, DISTINCT, stddev, first/last), which the same
// walk rebuilds from the surviving slices (slice order reproduces
// arrival-order ties, since streams are in order) — and writes the close into
// a frame its readers lend back (see Frame), rewriting only the rows of the
// groups changed since the close the frame last carried. A view is first built at its
// first fire, from whatever the store retains in its extent, so one created
// after rows have arrived starts from the store's history, and a group leaves
// a view when its last row does, so a vanished group stops being emitted
// exactly as re-execution would.
//
// All views of a store close at the same boundaries (they share ADVANCE),
// and the store retains slices for the widest attached view. Slices are
// cut so that both edges of every window fall on a cut ([12]'s paired
// windows): at k·ADVANCE and, when VISIBLE mod ADVANCE = r ≠ 0, at
// k·ADVANCE + (ADVANCE − r) too — the store's offset, shared by its views.
//
// A slice keeps its partials in columns, by position: the groups' ids, the
// rows each took and, for each aggregate, an expr.Column of its state — words
// the collector does not trace for COUNT, SUM, AVG and stddev, an expr.Acc each
// for the rest. A group records its position in the newest slice holding it. A
// view's window layer is columns too, indexed by group id, so add and retract
// are loops over two columns. A column grows as append grows an array, and an
// expired slice keeps its columns' memory as the next slice's, unless they
// were sized for more than twice what it used; a view grows its columns to the
// highest id its window holds and cuts them to that once they are more than
// twice that long, and the store hands out its lowest free id first. What
// else a store or a view lets go of is recycled by expr.Recycler's one rule:
// kept for what comes next — one boundary, or, for the store's groups and a
// view's rows, until more than twice what is in use was made, and then made
// afresh. So an expired slice is the next slice; a
// group the store drops is a new key's, whose key string is carved from a
// chunk of key bytes the store writes once, and once the keys carved since
// reach twice the live groups, Expire copies the live keys into a fresh chunk;
// and a frame a view's readers hand back is its next close's. One mechanism is not
// a recycler: a group whose last partial expires idles a boundary, in the map
// but not in GroupsN, so a key recurring in the window after gets it back by
// key; the next Expire drops it and frees its id, which no view holds by then.
//
// A store built with no aggregate spec is raw: the window state of a plan
// that must re-execute. Its slice partial is the slice's rows themselves, in
// arrival order — so a raw slice pins the blocks its rows came in until it
// expires — and a view's fire is their concatenation over its extent, the
// rows the plan then runs over; it never retracts, so it keeps a slice less.
// Everything else — the cuts, Expire and its spares, Attach and Detach — is
// one code for both forms, and so is a cut that is not a timestamp: Insert
// takes any coordinate that does not precede its newest slice, a row's ordinal
// for a ROWS window, an emission's number for a SLICES one, and an aggregate
// view retracts by ordinals as it does by timestamps.
package ivm

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"streamrel/internal/expr"
	"streamrel/internal/plan"
	"streamrel/internal/types"
)

// Store is the slice layer of one (stream, fingerprint, ADVANCE, offset).
// Insert, View.Fire and Expire are called only on the goroutine that applies
// the owning pipeline's input. Attach and Detach may come from another
// goroutine as long as the caller serializes them with Fire and Expire;
// they share no field with Insert.
type Store struct {
	spec            *plan.StreamAgg // nil: a raw store
	advance, offset int64
	empty           []expr.Acc // never added to: an empty window's scalar results
	remerge         []int      // the aggregates with no inverse, re-merged at a retract

	slices []*slice              // ascending by start; rows go into the last
	spares expr.Recycler[*slice] // expired slices, emptied, to open the next ones from
	groups map[string]*group
	byID   []*group              // by id; nil for a free one
	idle   []*group              // in groups, their last partial expired at the last boundary
	free   expr.Recycler[*group] // dropped groups, for Insert's new keys
	ids    []int                 // dropped groups' ids, descending, for Insert's new keys
	keys   expr.KeyChunk         // new groups' key strings are carved from it
	carved int                   // keys carved since the last rehome
	bytes  int                   // the groups' key bytes: a rehome's chunk
	// rehomed is the close whose Expire last rehomed the keys.
	rehomed int64

	views  []*View
	retain int64 // widest attached VISIBLE

	// ec, keyScratch and keyBuf are Insert's per-row scratch: the
	// expression context is re-pointed at each row, and group keys are
	// evaluated into keyScratch and encoded into keyBuf, which probes the
	// map as string(keyBuf) without allocating. The context carries no
	// window close and no clock: plans reading either never get an
	// aggregate store.
	ec         expr.Ctx
	keyScratch types.Row
	keyBuf     []byte

	// GroupsN and SlicesN mirror len(groups) / len(slices) for metric
	// gauges, which read from other goroutines.
	GroupsN atomic.Int64
	SlicesN atomic.Int64
}

// slice is one slice's partials, a group's aggregates over the slice each, as
// columns by position in first-touch order.
type slice struct {
	start int64
	ids   []int32       // the partials' groups
	rows  []int64       // the rows that passed the filter into each
	cols  []expr.Column // an aggregate's state each
	raw   []types.Row   // a raw store's partial: the slice's rows in arrival order
	high  int           // the most partials its columns were sized for or held
}

// resetSlice lets go of the partials, keeping the columns' memory.
func resetSlice(sl *slice, _ bool) {
	clear(sl.raw)
	sl.raw, sl.ids, sl.rows = sl.raw[:0], sl.ids[:0], sl.rows[:0]
	for _, c := range sl.cols {
		c.Resize(0)
	}
}

// resetGroup lets go of the key string: the key row holds no byte of it.
func resetGroup(g *group, _ bool) {
	for i := range g.keys {
		g.keys[i] = expr.Sentinel
	}
	g.key = ""
}

// group is a live group's identity: the string carved for its key bytes,
// which keys the store's map; its key row, whose strings are that string's
// bytes too; and its id, which indexes every view's window layer. It lives
// while a retained slice holds a partial for it and idles one boundary more;
// then Expire drops it onto the store's recycler, its key row a sentinel, and
// its id for a new key. No view holds it or its id by then: every view
// retracts the last slice holding the key before the slice expires, and lets
// go of its window group at that close.
type group struct {
	key    string
	keys   types.Row
	id     int
	pos    int   // its partial's position in the newest slice holding it; -1 once none does
	lastAt int64 // that slice's start
}

// New returns an empty store for the aggregate spec of a plan whose
// WindowState chose a store, or a raw store for a nil spec.
func New(spec *plan.StreamAgg, advance, offset int64) (*Store, error) {
	s := &Store{spec: spec, advance: advance, offset: offset,
		groups: make(map[string]*group), spares: expr.NewRecycler(resetSlice, 0),
		free: expr.NewRecycler(resetGroup, 0), rehomed: math.MinInt64}
	if spec == nil {
		return s, nil
	}
	s.keyScratch = make(types.Row, len(spec.GroupBy))
	for i, spec := range spec.Aggs {
		a, err := expr.NewAcc(spec)
		if err != nil {
			return nil, err
		}
		if _, ok := a.(expr.Retractable); !ok {
			s.remerge = append(s.remerge, i)
		}
		s.empty = append(s.empty, a)
	}
	return s, nil
}

// columns returns an empty column for each of the store's aggregates.
func (s *Store) columns() []expr.Column {
	cols := make([]expr.Column, len(s.empty))
	for i := range cols {
		cols[i], _ = expr.NewColumn(s.spec.Aggs[i]) // New checked every spec
	}
	return cols
}

// KeepsRows says whether the store may hold a datum of a row it was handed: a
// raw store its rows, an aggregate with no inverse the values it saw.
func (s *Store) KeepsRows() bool { return s.spec == nil || len(s.remerge) > 0 }

// SliceStart returns the start of the slice holding ts, the last cut at or
// before it: cuts are at k·advance and, for offset > 0, at k·advance +
// offset. Floored division, so pre-epoch timestamps slice correctly.
func SliceStart(ts, advance, offset int64) int64 {
	q := ts / advance
	if ts%advance != 0 && (ts < 0) != (advance < 0) {
		q--
	}
	base := q * advance
	if offset > 0 && ts-base >= offset {
		base += offset
	}
	return base
}

// Insert folds one arriving row at ts into its slice's partial — once,
// however many views will read it: evaluate the filter and the group keys,
// then add the aggregate arguments. An existing (slice, group) allocates
// nothing, and a new group, recycled, only its share of a key chunk. The
// store keeps nothing of row — a new group's key row points into the group's
// key string — so it pins no input batch. A raw store appends the row to its
// slice instead, and so pins the row's block until the slice expires. A ts
// before the newest slice is an error.
func (s *Store) Insert(row types.Row, ts int64) error {
	if s.spec == nil {
		sl, err := s.sliceAt(ts)
		if err == nil {
			sl.raw = append(sl.raw, row)
		}
		return err
	}
	ec := &s.ec
	ec.Row = row
	defer func() { ec.Row = nil; clear(s.keyScratch) }()
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

	sl, err := s.sliceAt(ts)
	if err != nil {
		return err
	}
	g, ok := s.groups[string(s.keyBuf)]
	if !ok {
		if g = s.free.Take(); g == nil {
			g = new(group)
			s.free.Made(1)
		}
		if len(s.ids) == 0 {
			s.ids, s.byID = append(s.ids, len(s.byID)), append(s.byID, nil)
		}
		g.id, s.ids = s.ids[len(s.ids)-1], s.ids[:len(s.ids)-1]
		g.key, g.pos = s.keys.Carve(s.keyBuf, len(s.groups)), -1
		g.keys = append(g.keys[:0], s.keyScratch...)
		g.keys.ShareKey(g.key)
		s.groups[g.key], s.byID[g.id] = g, g
		s.carved, s.bytes = s.carved+1, s.bytes+len(g.key)
	}
	if g.pos < 0 || g.lastAt != sl.start {
		if g.pos < 0 { // new, or idle and revived
			s.GroupsN.Add(1)
		}
		g.pos, g.lastAt, sl.high = len(sl.ids), sl.start, max(sl.high, len(sl.ids)+1)
		sl.ids, sl.rows = expr.Grow(sl.ids, g.pos+1), expr.Grow(sl.rows, g.pos+1)
		sl.ids[g.pos], sl.rows[g.pos] = int32(g.id), 0
		for _, c := range sl.cols {
			c.Resize(g.pos + 1)
		}
	}
	sl.rows[g.pos]++
	for i, spec := range s.spec.Aggs {
		v := types.True
		if spec.Arg != nil {
			var err error
			if v, err = spec.Arg.Eval(ec); err != nil {
				return err
			}
		}
		if err := sl.cols[i].Acc(g.pos).Add(v); err != nil {
			return err
		}
	}
	return nil
}

// sliceAt returns the slice holding ts: the newest, or one opened after it
// from a spare or, failing that, afresh.
func (s *Store) sliceAt(ts int64) (*slice, error) {
	start := SliceStart(ts, s.advance, s.offset)
	n := 0 // as many groups as the slice before it is the best guess
	if len(s.slices) > 0 {
		newest := s.slices[len(s.slices)-1]
		if newest.start == start {
			return newest, nil
		} else if newest.start > start {
			return nil, fmt.Errorf("ivm: coordinate %d precedes the newest slice, at %d", ts, newest.start)
		}
		n = len(newest.ids)
	}
	sl := s.spares.Take()
	if sl == nil {
		sl = &slice{ids: make([]int32, 0, n), rows: make([]int64, 0, n), cols: s.columns(), high: n}
		for _, c := range sl.cols {
			c.Resize(n) // its arrays, presized
			c.Resize(0)
		}
	}
	sl.start = start
	s.slices = append(s.slices, sl)
	s.SlicesN.Add(1)
	return sl, nil
}

// Expire drops the slices no view reads at a boundary after c, recycling them
// and the idle groups nothing revived, rehomes the keys once the keys carved
// since the last rehome reach twice the groups, and empties every raw view's
// window. Call it once every view has fired c. An aggregate view's next fire
// still retracts the slice that opened the window closing at c; a raw one
// never.
func (s *Store) Expire(c int64) {
	for _, g := range s.idle {
		if g.pos < 0 {
			delete(s.groups, g.key)
			s.ids, s.bytes, s.byID[g.id] = append(s.ids, g.id), s.bytes-len(g.key), nil
			s.free.Put(g)
		}
	}
	slices.SortFunc(s.ids, func(a, b int) int { return b - a })
	// As a view's spare groups: once more than twice the groups held were
	// made, the spares go and every group held counts as made.
	if s.free.Boundary(len(s.groups)) {
		s.free.Made(len(s.groups))
	}
	if s.carved > 0 && s.carved >= 2*len(s.groups) {
		s.rehome()
		s.rehomed = c
	}
	clear(s.idle)
	s.idle = s.idle[:0]
	for _, v := range s.views {
		clear(v.raw.Rows)
		v.raw.Rows = v.raw.Rows[:0]
	}
	horizon := c - s.retain
	if s.spec == nil {
		horizon += s.advance
	}
	expired := s.span(math.MinInt64, horizon)
	for _, sl := range expired {
		for _, id := range sl.ids {
			if g := s.byID[id]; g.lastAt == sl.start { // slices expire in order: its last partial
				g.pos = -1
				s.idle = append(s.idle, g)
				s.GroupsN.Add(-1)
			}
		}
		// A slice whose columns were sized for more than twice what it used
		// goes, as a recycler's carve afresh; a raw slice's rows are one
		// array too.
		if sl.high <= 2*len(sl.ids) && cap(sl.raw) <= 2*len(sl.raw) {
			s.spares.Put(sl)
		}
	}
	s.SlicesN.Add(-int64(len(expired)))
	s.slices = slices.Delete(s.slices, 0, len(expired))
	s.spares.Boundary(0)
}

// rehome copies every group's key into one fresh chunk, as expr.Recycler's
// owners carve afresh, and points the group's key row and its entry in the map
// at the copy. A chunk is never written twice, so a key a lent row holds stays
// valid; the chunks carved before stay reachable only from frames written
// before the rehome, which a view clears and rewrites whole when it takes one
// back.
func (s *Store) rehome() {
	s.keys.Reset(s.bytes)
	s.carved = len(s.groups)
	for _, g := range s.groups {
		s.keyBuf = append(s.keyBuf[:0], g.key...)
		g.key = s.keys.Carve(s.keyBuf, 0)
		g.keys.ShareKey(g.key)
		s.groups[g.key] = g // an equal key: the map keeps the string assigned
	}
}

// View is one window extent over a store.
type View struct {
	st      *Store
	visible int64

	// The window layer: the merge of the retained slices starting in
	// [lo, hi), as columns by group id — the aggregates' and wins, which
	// holds rows 0 for a group not in the window. hi starts below every
	// timestamp: nothing built yet.
	lo, hi int64
	wins   []winGroup
	cols   []expr.Column

	// ordered keeps the live groups' ids sorted by key (types.CompareRows order,
	// matching exec.HashAgg's SortedOutput), and a close moves it by what
	// changed: the groups add brought in collect in pending and those retract
	// let go of in gone, and emit finds each departure by binary search on
	// its key — which its store group holds until Expire —, places each
	// newcomer the same way, and copies the runs between. That is
	// O((k+r)·log n) key comparisons for k newcomers and r departures into n
	// groups, and a copy of the array, whatever n; a full re-sort per close
	// was once the dominant fire cost at 10k+ groups, and a merge testing
	// every group after it.
	ordered []int32
	pending []int32
	gone    []int32
	scratch []int32

	// left logs the groups that left the window at the closes after
	// closes[0], the oldest of the last three, so a frame written at one of
	// them clears their slots (see emit).
	left   []departure
	closes [3]int64

	// frames keeps what the readers handed back for the next closes; back
	// is what they handed back since the last fire, from any goroutine
	// (under mu).
	frames expr.Recycler[*Frame]
	mu     sync.Mutex
	back   []*Frame
	// Made counts the frames the view made, read on the goroutine that
	// fires it.
	Made int64

	// raw holds a raw view's window, from its fire to the store's Expire.
	raw Frame
}

// departure is a group that left a view's window, and the close it left at.
type departure struct {
	id int32
	at int64
}

// winGroup is what a view keeps of one group besides its aggregates.
type winGroup struct {
	rows  int64 // filtered rows in the window; 0 when it is not in it
	stamp int64 // the last fire that changed it
	reset int64 // the last fire that reset its aggregates with no inverse
}

// Frame is what a view lends the readers of one close: Rows, one per group in
// group-key order, each a slot of the frame's datums — one slot a group id, so
// a frame that comes back still holds the rows of the close it last carried,
// and the view rewrites only the groups changed since. The frame counts its
// readers. Each lets go by Release when it reads the rows no more, and the
// last one hands the frame back to the view's pool, kept for what comes next
// by expr.Recycler's one rule, as the store's slices are; a reader that never
// releases keeps the rows for good, and the view writes its next close into a
// fresh frame. These are the ingest hot path's two rules (internal/stream's
// batchBlock) for window rows: a lent row is not rewritten while anyone holds
// it, and only a reader's own reference is given back, by that reader.
type Frame struct {
	Rows  []types.Row
	words []types.Datum // the slots, width datums each
	at    int64         // the close written last; math.MinInt64: rewrite every slot
	refs  atomic.Int32
	view  *View // nil: a raw view's, which is not lent
}

// Retain counts one more reader; nil and a raw view's frame count none.
func (f *Frame) Retain() {
	if f != nil && f.view != nil {
		f.refs.Add(1)
	}
}

// Release lets go of one reader's reference. The last hands the frame back to
// its view — under types.Poison filled with expr.Sentinel, so a reader that
// reads its rows past its release reads garbage.
func (f *Frame) Release() {
	if f == nil || f.view == nil || f.refs.Add(-1) != 0 {
		return
	}
	if types.Poison {
		for i := range f.words {
			f.words[i] = expr.Sentinel
		}
		f.at = math.MinInt64
	}
	v := f.view
	v.mu.Lock()
	v.back = append(v.back, f)
	v.mu.Unlock()
}

// Attach adds a view of the given extent (both edges of its windows fall on
// the store's cuts) and widens retention to cover it.
func (s *Store) Attach(visible int64) *View {
	v := &View{st: s, visible: visible, hi: math.MinInt64, cols: s.columns(),
		frames: expr.NewRecycler(func(*Frame, bool) {}, 0), closes: [3]int64{math.MinInt64, math.MinInt64, math.MinInt64}}
	s.views = append(s.views, v)
	s.retain = max(s.retain, visible)
	return v
}

// Visible returns the view's window extent.
func (v *View) Visible() int64 { return v.visible }

// Detach removes a view; retention shrinks to the widest one left and the
// next Expire drops what only the departed view could read.
func (s *Store) Detach(v *View) {
	s.retain = 0
	kept := s.views[:0]
	for _, o := range s.views {
		if o != v {
			kept = append(kept, o)
			s.retain = max(s.retain, o.visible)
		}
	}
	clear(s.views[len(kept):])
	s.views = kept
}

// Fire closes the window [c-VISIBLE, c): it brings the window layer to
// that extent and returns it in a frame holding one reference, the caller's:
// one row per group in the window (group keys ++ aggregate results), sorted by
// group key. The rows are read-only, and valid while any reference is held
// (see Frame). Scalar aggregates over an empty window produce the SQL default
// row, matching exec.HashAgg. touched reports the distinct groups the move
// changed, written the rows written into the frame — those touched at this
// close or since the frame's last, or all of them. Boundaries must be fired in
// ascending order.
//
// A raw view returns the rows of the retained slices in [c-VISIBLE, c) in
// slice and arrival order, in a frame it keeps until the store's next Expire,
// whose Retain and Release do nothing; touched and written are 0.
func (v *View) Fire(c int64) (f *Frame, touched, written int, err error) {
	s := v.st
	lo := c - v.visible
	if s.spec == nil {
		for _, sl := range s.span(lo, c) {
			v.raw.Rows = append(v.raw.Rows, sl.raw...)
		}
		return &v.raw, 0, 0, nil
	}
	// The close's one boundary: columns more than twice as long as the last
	// close's highest id needs move to arrays of that length, and what the
	// groups past it held goes.
	if len(v.wins) > 2*len(v.ordered) {
		top := 0
		for _, id := range v.ordered {
			top = max(top, int(id)+1)
		}
		if len(v.wins) > 2*top {
			v.resize(top)
		}
	}
	if v.hi <= lo {
		// Nothing kept carries over: a new view starts from what the store
		// retains, and a tumbling window shares no slice with its predecessor
		// (so it never retracts, and its sums are those of re-execution to the
		// last bit). Every group is new, so every row is written.
		for _, id := range v.ordered {
			v.leave(int(id), c)
		}
		v.ordered = v.ordered[:0]
		v.lo, v.hi = lo, lo
	}
	added, err := v.add(c)
	if err != nil {
		return nil, 0, 0, err
	}
	retracted, err := v.retract(lo, c)
	if err != nil {
		return nil, 0, 0, err
	}
	v.lo, v.hi, touched = lo, c, added+retracted
	f, written = v.emit(c)
	return f, touched, written, nil
}

// resize makes the layer n groups long; a cut moves it to arrays of n.
func (v *View) resize(n int) {
	old := len(v.wins)
	if n < old {
		v.wins = append([]winGroup(nil), v.wins[:n]...)
	} else {
		v.wins = expr.Grow(v.wins, n)
		clear(v.wins[old:])
	}
	for _, c := range v.cols {
		if c.Resize(n); n < old {
			c.Clip()
		}
	}
}

// span returns the retained slices starting in [lo, hi), in ascending order.
func (s *Store) span(lo, hi int64) []*slice {
	i := sort.Search(len(s.slices), func(i int) bool { return s.slices[i].start >= lo })
	j := sort.Search(len(s.slices), func(j int) bool { return s.slices[j].start >= hi })
	return s.slices[i:j]
}

// leave takes a group out of the window at close c: its aggregates are reset,
// holding nothing it saw, and left logs it for the frames that still hold its
// row.
func (v *View) leave(id int, c int64) {
	v.wins[id] = winGroup{}
	v.left = append(v.left, departure{int32(id), c})
	for _, c := range v.cols {
		c.Reset(id, types.Poison)
	}
}

// add merges the slices that entered the window, [v.hi, c), into the layer.
func (v *View) add(c int64) (touched int, err error) {
	s := v.st
	for _, sl := range s.span(v.hi, c) {
		for j, id := range sl.ids {
			if int(id) >= len(v.wins) { // to the highest id the window now holds
				v.resize(int(slices.Max(sl.ids[j:])) + 1)
			}
			wg := &v.wins[id]
			if wg.rows == 0 {
				if types.Poison { // leave left a sentinel
					for _, col := range v.cols {
						col.Reset(int(id), false)
					}
				}
				wg.stamp, wg.reset = c-1, c-1
				v.pending = append(v.pending, id)
			}
			wg.rows += sl.rows[j]
			for i, col := range v.cols {
				if err := col.Acc(int(id)).Merge(sl.cols[i].Acc(j)); err != nil {
					return 0, err
				}
			}
			if wg.stamp != c {
				wg.stamp = c
				touched++
			}
		}
	}
	return touched, nil
}

// retract removes the slices in [v.lo, lo), which just left the window, in
// one walk up to c: Sub where an aggregate has an inverse, a reset of every
// one that has none, which the walk then rebuilds, for the groups reset at
// this close, from the slices still in the window, in ascending order.
func (v *View) retract(lo, c int64) (touched int, err error) {
	s := v.st
	reset := false
	for _, sl := range s.span(v.lo, c) {
		if sl.start >= lo && !reset {
			break // still in the window, and nothing to rebuild
		}
		for j, id32 := range sl.ids {
			id := int(id32)
			wg := &v.wins[id]
			if sl.start >= lo { // still in the window
				if wg.reset == c {
					for _, i := range s.remerge {
						if err := v.cols[i].Acc(id).Merge(sl.cols[i].Acc(j)); err != nil {
							return 0, err
						}
					}
				}
				continue
			}
			if wg.stamp != c {
				wg.stamp = c
				touched++
			}
			if wg.rows -= sl.rows[j]; wg.rows <= 0 {
				v.leave(id, c)
				v.gone = append(v.gone, id32)
				continue
			}
			for i, col := range v.cols {
				if a, ok := col.Acc(id).(expr.Retractable); ok {
					if err := a.Sub(sl.cols[i].Acc(j)); err != nil {
						return 0, err
					}
				} else {
					col.Reset(id, false)
					wg.reset, reset = c, true
				}
			}
		}
	}
	return touched, nil
}

// emit writes the layer, in group-key order, into a frame its readers handed
// back, or a new one, and returns it with the rows it wrote: a group's row is
// its id's slot, rewritten when a close after the frame's last changed the
// group — keys too, as an id may have passed to another key — and cleared
// when the group left since, so a frame holds nothing of a group gone. A
// frame that is new, was poisoned, was written before the store's last rehome
// or before the closes left logs is cleared and rewritten whole, so it holds
// no key of a chunk the rehome let go; one sized for other columns moves to
// an array as long as the view's (see resize), with a container of its own,
// since the old one's rows point into the old array. A steady close therefore
// allocates nothing, and writes O(touched) datums and one row header a group.
func (v *View) emit(c int64) (f *Frame, written int) {
	s, spec := v.st, v.st.spec
	v.maintainOrder()
	v.mu.Lock()
	for _, b := range v.back {
		v.frames.Put(b)
	}
	clear(v.back)
	v.back = v.back[:0]
	v.mu.Unlock()
	v.frames.Boundary(0) // a frame handed back a boundary ago and not taken goes
	if f = v.frames.Take(); f == nil {
		f, v.Made = &Frame{view: v, at: math.MinInt64}, v.Made+1
	}
	f.refs.Store(1)
	nk, width := len(spec.GroupBy), len(spec.GroupBy)+len(spec.Aggs)
	if n := max(cap(v.wins), 1) * width; len(f.words) < max(len(v.wins), 1)*width || len(f.words) > 2*n {
		f.words, f.Rows, f.at = make([]types.Datum, n), nil, math.MinInt64
	}
	if f.at <= s.rehomed || f.at < v.closes[0] {
		clear(f.words)
		f.at = math.MinInt64
	} else {
		for _, d := range v.left {
			if i := int(d.id) * width; d.at > f.at && i < len(f.words) && (int(d.id) >= len(v.wins) || v.wins[d.id].rows == 0) {
				clear(f.words[i : i+width])
			}
		}
	}
	v.closes = [3]int64{v.closes[1], v.closes[2], c}
	v.left = slices.DeleteFunc(v.left, func(d departure) bool { return d.at <= v.closes[0] })
	rows := slices.Grow(f.Rows[:0], len(v.ordered))
	if len(v.ordered) == 0 && nk == 0 {
		row := f.words[:width:width] // no group holds slot 0 now
		for i, a := range s.empty {
			row[i] = a.Result()
		}
		f.Rows, f.at = append(rows, row), math.MinInt64
		return f, 1
	}
	for _, id := range v.ordered {
		i := int(id) * width
		row := f.words[i : i+width : i+width]
		if wg := &v.wins[id]; wg.stamp > f.at {
			copy(row, s.byID[id].keys)
			for j, col := range v.cols {
				row[nk+j] = col.Result(int(id))
			}
			written++
		}
		rows = append(rows, row)
	}
	f.Rows, f.at = rows, c
	return f, written
}

// byKey orders groups by key; tests count its calls.
var byKey = func(a, b *group) int { return types.CompareRows(a.keys, b.keys) }

// maintainOrder moves the close's newcomers into ordered and its departures
// out of it, in key order, each placed by a binary search from the last, and
// copies the runs between.
func (v *View) maintainOrder() {
	if len(v.pending) == 0 && len(v.gone) == 0 {
		return
	}
	byID := v.st.byID
	byKey := func(a, b int32) int { return byKey(byID[a], byID[b]) }
	add, gone := v.pending, v.gone
	slices.SortFunc(add, byKey)
	slices.SortFunc(gone, byKey)
	merged, from := v.scratch[:0], 0
	for len(add) > 0 || len(gone) > 0 {
		leaves := len(add) == 0 || len(gone) > 0 && byKey(gone[0], add[0]) < 0
		next := add
		if leaves {
			next = gone
		}
		i, _ := slices.BinarySearchFunc(v.ordered[from:], next[0], byKey)
		merged, from = append(merged, v.ordered[from:from+i]...), from+i
		if leaves {
			from, gone = from+1, gone[1:]
		} else {
			merged, add = append(merged, add[0]), add[1:]
		}
	}
	merged = append(merged, v.ordered[from:]...)
	v.ordered, v.scratch = merged, v.ordered[:0]
	v.pending, v.gone = v.pending[:0], v.gone[:0]
}
