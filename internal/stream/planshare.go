package stream

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"streamrel/internal/exec"
	"streamrel/internal/ivm"
	"streamrel/internal/metrics"
	"streamrel/internal/plan"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// windowStore is one slice-partial store (internal/ivm) and everything
// attached to it. Every continuous query plan.WindowState gives the same
// key — same stream, slice fingerprint and ADVANCE, whatever its VISIBLE,
// residual filter, projection or ORDER BY — attaches here instead of
// keeping window state of its own:
//
//	store → one view per distinct VISIBLE → one post set per PostKey → members
//
// The host pipeline owns the state: it alone is on the source's delivery
// list, has the mailbox, folds each row into the slice layer once and
// keeps the one boundary clock all views share. At each close every view
// computes its window's aggregate rows once, each distinct post stage
// (residual filters, HAVING, projection, ORDER BY, LIMIT) runs once over
// them — a plan without one (plan.StreamAgg.PostBuild) takes the view's
// rows as they are — and its output goes to every member of the set. 10k
// identical dashboards therefore maintain one state and execute one plan
// per fire — per-CQ cost is one sink call — and CQs differing only in
// VISIBLE add a view, not a second copy of the slices.
//
// Members are not in the source fan-out list: they see no row delivery,
// hold no buffers and get no mailbox, so ingest cost does not scale with
// membership. Member sinks run on whatever goroutine fires the host
// (whoever drains its mailbox: the producer or a pool worker); rows in a
// delivered batch are shared across the set's members and must be treated
// as immutable.
type windowStore struct {
	key      string
	host     *Pipeline
	state    *ivm.Store
	strategy plan.Strategy

	// mu serializes fires against attach/detach, so unsubscribing one
	// member never races a fire delivering to it, and a view is never
	// created or dropped under a fire.
	mu    sync.Mutex
	views []*storeView
	n     atomic.Int64 // member count, readable without mu

	// outs is fire's per-view scratch (guarded by mu).
	outs []setOut

	// touched counts distinct groups changed per fire
	// (streamrel_ivm_groups_touched_total) and carved the rows a view wrote
	// afresh rather than handed out again; nil without a registry.
	touched, carved *metrics.Counter
	// unregGauges detaches the state-size gauges when the host stops.
	unregGauges func()
}

// storeView is the members sharing one window extent.
type storeView struct {
	view *ivm.View
	sets []*postSet
}

// postSet is the members sharing one canonical post stage.
type postSet struct {
	key     string
	members []*Pipeline
	run     []*Pipeline // per-fire scratch: live members (guarded by store mu)
	lastOut int         // rows the last fire's post stage produced: the next one's expected size
}

type setOut struct {
	out []types.Row
	run []*Pipeline
}

// newWindowStore builds the store for key with its host pipeline, taking
// the slice computation from p. Callers hold src.mu.
func newWindowStore(rt *Runtime, src *source, p *plan.Plan, key string, strategy plan.Strategy) (*windowStore, error) {
	state, err := ivm.New(p.StreamAgg, p.Stream.Window.Advance, strategy == plan.Materialized)
	if err != nil {
		return nil, err
	}
	ws := &windowStore{key: key, state: state, strategy: strategy}
	ws.host = newPipeline(rt, src, p, nil)
	ws.host.ws = ws
	if rt.reg != nil {
		stream := metrics.L("stream", src.name)
		pipe := metrics.L("pipe", strconv.FormatInt(ws.host.id, 10))
		ws.touched = rt.reg.Counter("streamrel_ivm_groups_touched_total",
			"distinct groups changed between incremental window fires", stream)
		ws.carved = rt.reg.Counter("streamrel_ivm_rows_carved_total",
			"group rows written afresh at window fires; the rest of a fire's rows are the ones emitted before", stream)
		unregGroups := rt.reg.GaugeFunc("streamrel_ivm_state_groups",
			"live groups held by a window-state store",
			func() float64 { return float64(state.GroupsN.Load()) }, stream, pipe)
		unregSlices := rt.reg.GaugeFunc("streamrel_ivm_state_slices",
			"slices retained by a window-state store",
			func() float64 { return float64(state.SlicesN.Load()) }, stream, pipe)
		ws.unregGauges = func() { unregGroups(); unregSlices() }
	}
	return ws, nil
}

// attach adds m to the view of its VISIBLE (created on first use: it
// starts from the slices the store retains) and to the post set of its
// PostKey.
func (ws *windowStore) attach(m *Pipeline) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.n.Add(1)
	var sv *storeView
	for _, v := range ws.views {
		if v.view.Visible() == m.win.Visible {
			sv = v
			break
		}
	}
	if sv == nil {
		sv = &storeView{view: ws.state.Attach(m.win.Visible)}
		ws.views = append(ws.views, sv)
	}
	postKey := m.plan.StreamAgg.PostKey
	for _, s := range sv.sets {
		if s.key == postKey {
			s.members = append(s.members, m)
			return
		}
	}
	sv.sets = append(sv.sets, &postSet{key: postKey, members: []*Pipeline{m}})
}

// detach removes m; a set, and then a view, goes with its last member, and
// the store's retention shrinks with its widest view.
func (ws *windowStore) detach(m *Pipeline) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for vi, sv := range ws.views {
		for si, s := range sv.sets {
			for i, x := range s.members {
				if x != m {
					continue
				}
				last := len(s.members) - 1
				s.members[i] = s.members[last]
				s.members[last] = nil
				s.members = s.members[:last]
				if last == 0 {
					sv.sets = append(sv.sets[:si], sv.sets[si+1:]...)
				}
				if len(sv.sets) == 0 {
					ws.state.Detach(sv.view)
					ws.views = append(ws.views[:vi], ws.views[vi+1:]...)
				}
				ws.n.Add(-1)
				return
			}
		}
	}
}

// clearMembers empties the store (host failure cascade) and returns the
// orphaned members.
func (ws *windowStore) clearMembers() []*Pipeline {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	var ms []*Pipeline
	for _, sv := range ws.views {
		for _, s := range sv.sets {
			ms = append(ms, s.members...)
		}
	}
	ws.views = nil
	ws.n.Store(0)
	return ms
}

// fire is the host's close of boundary c: every view closes its window in
// turn, then the store drops the slices nothing reads any more. One
// window-fire/cq-deliver span pair and one fire-latency observation are
// recorded per view close (member count is a fan-out width, not extra
// windows), all attributed to the batch that proved the boundary complete.
// An error is the store's own — state it can no longer maintain — and
// fails the host and with it every member.
func (ws *windowStore) fire(c int64) error {
	host := ws.host
	tc := host.takeFireCtx()
	ctx := host.rt.snapshotCtx(c)
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for _, sv := range ws.views {
		if err := ws.fireView(sv, c, ctx, &tc); err != nil {
			return err
		}
	}
	ws.state.Expire(c)
	return nil
}

// fireView closes one view's window: the timer starts before the store is
// asked for the window, so the view's maintenance — adding the slice that
// closed, retracting the one that left — and the emission are inside the
// window-fire span with the post stages. A member whose post
// stage or sink fails is marked failed and skipped — isolation: one
// subscriber's failure never disturbs the store or its peers — and the
// source sweeps it out on the next producer call.
func (ws *windowStore) fireView(sv *storeView, c int64, ctx *exec.Ctx, tc *trace.Ctx) error {
	host := ws.host
	ft := host.beginFire()
	aggRows, touched, carved, err := sv.view.Fire(c)
	if err != nil {
		return fmt.Errorf("stream: window close at %d: %w", c, err)
	}
	if ws.touched != nil {
		ws.touched.Add(int64(touched))
		ws.carved.Add(int64(carved))
	}
	outs := ws.outs[:0]
	rows := 0
	for _, set := range sv.sets {
		run := set.run[:0]
		for _, m := range set.members {
			if c > m.resumeAfter && !m.failed.Load() {
				run = append(run, m)
			}
		}
		set.run = run
		if len(run) == 0 {
			continue
		}
		out := aggRows
		if post := run[0].plan.StreamAgg.PostBuild; post != nil {
			if out, err = exec.Drain(ctx, post(aggRows), set.lastOut); err != nil {
				err = fmt.Errorf("stream: window close at %d: %w", c, err)
				for _, m := range run {
					m.fail(err)
					host.src.failedMembers.Add(1)
				}
				continue
			}
			set.lastOut = len(out)
		}
		rows += len(out)
		outs = append(outs, setOut{out: out, run: run})
	}
	ws.outs = outs
	host.windowsFired.Inc()
	host.evaluated(&ft, tc)
	// The output slice is shared across a set — without a post stage across
	// sets, and its rows with other closes (rows and delivered slices are
	// immutable); a failing sink marks only its own member.
	for _, so := range outs {
		for _, m := range so.run {
			if m.failed.Load() {
				continue
			}
			if err := m.sink(*tc, c, so.out); err != nil {
				m.fail(err)
				host.src.failedMembers.Add(1)
				continue
			}
			m.windowsFired.Inc()
		}
	}
	host.delivered(&ft, *tc, rows)
	return nil
}
