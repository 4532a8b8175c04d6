package stream

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"streamrel/internal/exec"
	"streamrel/internal/ivm"
	"streamrel/internal/metrics"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// feed is a window of one stream as a sequence of tables (paper Fig. 1) and
// everything subscribed to it. It is what a source delivers to: it alone
// has a mailbox (worker.go), folds each row into the window state once,
// keeps the one boundary clock and the trace attribution of the next fire,
// and at each close runs the post stages and calls the sinks:
//
//	feed → one view per distinct VISIBLE → one post set per postKey → CQs
//
// The window state is one slice-partial store (internal/ivm): an aggregate
// store for every continuous query plan.WindowState gives a key — same
// stream, slice fingerprint, window kind, ADVANCE and VISIBLE mod ADVANCE,
// whatever its VISIBLE, residual filter, projection or ORDER BY: they all
// subscribe to the one feed of that key — and a raw store, whose slices hold
// the rows themselves, for a plan it gives none, alone on its feed. At each
// close every view computes its window's rows once — an aggregate store's
// view its aggregate rows, a raw one the rows in the extent — each distinct
// post stage runs once over them (residual filters, HAVING, projection, ORDER
// BY, LIMIT over aggregate rows; the whole plan over raw ones; none at all
// for plan.StreamAgg.PostBuild == nil, which takes the view's rows as they
// are) and its output goes to every CQ of the set. 10k identical dashboards
// therefore maintain one state and execute one plan per fire — per-CQ cost
// is one sink call — and CQs differing only in VISIBLE add a view, not a
// second copy of the slices.
//
// CQs see no row delivery, so ingest cost does not scale with their number.
// Sinks run on whatever goroutine drains the feed's mailbox (the producer or
// a pool worker); rows in a delivered batch are shared across the set and
// must be treated as immutable.
type feed struct {
	rt  *Runtime
	src *source
	// key names the store in src.stores; empty for a raw store's private
	// feed.
	key string
	// win is the window of the plan that opened the feed. Kind and Advance
	// hold for every subscriber, and its views carry their own VISIBLE.
	win sql.WindowSpec
	// id labels the feed in metric series and spans: a raw store's feed
	// carries its one subscriber's id.
	id int64

	// The boundary clock of a time window.
	nextClose int64
	started   bool // the clock has seen its first event
	resumed   bool // nextClose holds a resume point (Pipeline.ResumeAfter)

	// The window state. A time window cuts store at timestamps; a ROWS or
	// SLICES window at ord, the rows pushed or the open emission's number.
	store *ivm.Store
	ord   int64

	// mu serializes fires against attach/detach, so unsubscribing one CQ
	// never races a fire delivering to it, and a view is never created or
	// dropped under a fire.
	mu    sync.Mutex
	views []*feedView
	n     atomic.Int64 // subscriber count, readable without mu

	// What fire keeps between closes, holding no row past one: the context
	// post stages run under and per-view scratch (under mu).
	ctx  exec.Ctx
	outs []setOut
	// passed holds what sinks handed up from downstream since the last sweep
	// (guarded by mu): failures of a derived stream's consumers, not of the
	// CQ that emitted into it.
	passed []error

	// Trace state, touched only on the goroutine that applies the feed's
	// input (its mailbox's drainer). tc is the most recent sampled context
	// since the last fire — the next fire is attributed to it; oldestIngest
	// is the earliest unfired batch's ingest time (wall ns), the start of the
	// push-to-fire latency the slow-fire threshold is checked against. Both
	// reset at each fire.
	tc           trace.Ctx
	oldestIngest int64

	// mbox is where the source hands the feed its input. At most one
	// goroutine drains it at a time and applies tasks in queue order, so
	// results do not depend on who drains.
	mbox     mailbox
	stopOnce sync.Once

	// failure is the window state's own — a row it cannot fold, a view it
	// cannot move — and ends every subscriber.
	failure

	// rowsSeen is always non-nil; with a registry it is the registered
	// streamrel_pipeline_rows_total series, so Stats and /metrics read the
	// same counter. The rest are nil without a registry, and all but
	// fireHist on a raw store's feed: viewCloses
	// (streamrel_pipeline_windows_total under a store feed's own id; a
	// raw feed's closes are its one subscriber's), touched (distinct groups
	// changed per fire), carved (rows a view wrote rather than found in its
	// frame), frames (frames a view made, not handed back) and fireHist
	// (window-fire latency: evaluation plus sink delivery).
	rowsSeen                            *metrics.Counter
	viewCloses, touched, carved, frames *metrics.Counter
	fireHist                            *metrics.Histogram
	// unreg detaches the feed's gauges on stop.
	unreg []func()
}

// feedView is the CQs sharing one window extent.
type feedView struct {
	view *ivm.View
	sets []*postSet
}

// postSet is the CQs sharing one canonical post stage: one operator tree,
// built from a member's post at the set's first fire, opened again over in
// at every close after and gone with the set.
type postSet struct {
	key     string
	members []*Pipeline
	run     []*Pipeline // per-fire scratch: live members (guarded by feed mu)
	lastOut int         // rows the last fire's post stage produced: the next one's expected size
	in      plan.Input
	tree    exec.Operator
	lease   *ivm.Frame // the frame the tree last read, held until it reads the next
}

type setOut struct {
	out   []types.Row
	run   []*Pipeline
	lease *ivm.Frame // what out is lent from; nil: the post stage's own rows
}

// openFeed builds the feed for key — its store taking the slice computation
// from p, or a raw store for the empty key — gives it its mailbox and puts
// it on the source's delivery list, so no task can precede it. Callers hold
// src.mu.
func openFeed(rt *Runtime, src *source, p *plan.Plan, key string, id int64) (*feed, error) {
	f := &feed{rt: rt, src: src, key: key, win: p.Stream.Window, id: id}
	f.mbox.bound = rt.parallel
	f.mbox.cond = sync.NewCond(&f.mbox.mu)
	stream := metrics.L("stream", src.name)
	pipe := metrics.L("pipe", strconv.FormatInt(id, 10))
	var spec *plan.StreamAgg
	if key != "" {
		spec = p.StreamAgg
	}
	state, err := ivm.New(spec, f.win.Advance, plan.PairOffset(f.win))
	if err != nil {
		return nil, err
	}
	f.store = state
	if key != "" {
		src.stores[key] = f
		f.viewCloses = rt.reg.Counter("streamrel_pipeline_windows_total",
			"window closes evaluated by a continuous-query pipeline", stream, pipe)
		f.touched = rt.reg.Counter("streamrel_ivm_groups_touched_total",
			"distinct groups changed between incremental window fires", stream)
		f.carved = rt.reg.Counter("streamrel_ivm_rows_carved_total",
			"group rows written at window fires; the rest of a fire's rows are the ones its frame held from the close it last carried", stream)
		f.frames = rt.reg.Counter("streamrel_ivm_frames_made_total",
			"frames window fires were written into new; the rest were handed back by the readers of earlier closes", stream)
		f.unreg = append(f.unreg,
			rt.reg.GaugeFunc("streamrel_ivm_state_groups", "live groups held by a window-state store",
				func() float64 { return float64(state.GroupsN.Load()) }, stream, pipe),
			rt.reg.GaugeFunc("streamrel_ivm_state_slices", "slices retained by a window-state store",
				func() float64 { return float64(state.SlicesN.Load()) }, stream, pipe))
	}
	f.rowsSeen = rt.pipeCounter("streamrel_pipeline_rows_total",
		"rows delivered to a continuous-query pipeline", src, id)
	f.fireHist = rt.reg.Histogram("streamrel_window_fire_seconds",
		"window-fire latency: plan execution plus sink delivery", nil, stream)
	f.unreg = append(f.unreg, rt.reg.GaugeFunc("streamrel_pipeline_queue_depth",
		"micro-batch tasks queued in a pipeline's mailbox",
		func() float64 { return float64(f.mbox.depth()) }, stream, pipe))
	src.feeds = append(src.feeds, f)
	return f, nil
}

func (f *feed) keepsRows() bool { return f.store.KeepsRows() }

// attach adds m to the view of its VISIBLE (created on first use, starting
// from the slices the store retains) and to the post set of its postKey.
func (f *feed) attach(m *Pipeline) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n.Add(1)
	visible := m.plan.Stream.Window.Visible
	var sv *feedView
	for _, v := range f.views {
		if v.view.Visible() == visible {
			sv = v
			break
		}
	}
	if sv == nil {
		sv = &feedView{view: f.store.Attach(visible)}
		f.views = append(f.views, sv)
	}
	for _, s := range sv.sets {
		if s.key == m.postKey {
			s.members = append(s.members, m)
			return
		}
	}
	sv.sets = append(sv.sets, &postSet{key: m.postKey, members: []*Pipeline{m}})
}

// detach removes m and reports whether it was there; a set, and then a
// view, goes with its last member, and a store's retention shrinks with its
// widest view.
func (f *feed) detach(m *Pipeline) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for vi, sv := range f.views {
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
					sv.sets = slices.Delete(sv.sets, si, si+1)
				}
				if len(sv.sets) == 0 {
					f.store.Detach(sv.view)
					f.views = slices.Delete(f.views, vi, vi+1)
				}
				f.n.Add(-1)
				return true
			}
		}
	}
	return false
}

// takePassed returns what was handed up from downstream, consuming it.
func (f *feed) takePassed() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := errors.Join(f.passed...)
	f.passed = nil
	return err
}

// clearMembers empties a failed feed and returns its orphaned subscribers.
func (f *feed) clearMembers() []*Pipeline {
	f.mu.Lock()
	defer f.mu.Unlock()
	var ms []*Pipeline
	for _, sv := range f.views {
		for _, s := range sv.sets {
			ms = append(ms, s.members...)
		}
	}
	f.views = nil
	f.n.Store(0)
	return ms
}

// fire closes the store's boundary at, whose cq_close is c — the same
// timestamp for a time window, the last row's or emission's for a count
// window: every view closes its window in turn, then the store drops what
// nothing reads any more. One window-fire/cq-deliver span pair and one
// fire-latency observation are recorded per view close (subscriber count is
// a fan-out width, not extra windows), all attributed to the batch that
// proved the boundary complete. An error is the window state's own and fails
// the feed, and with it every subscriber.
func (f *feed) fire(c, at int64) error {
	tc := f.takeFireCtx()
	f.ctx = f.rt.snapshotCtx(c) // only the feed's drainer fires: no lock needed
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, sv := range f.views {
		if err := f.fireView(sv, c, at, &tc); err != nil {
			return err
		}
	}
	f.store.Expire(at)
	return nil
}

// fireView closes one view's window — the one place a post stage is
// evaluated and a sink called. The timer starts before the state is asked
// for the window, so a store's maintenance — adding the slice that closed,
// retracting the one that left — and the emission are inside the
// window-fire span with the post stages. A CQ whose post stage or sink fails
// is marked failed and skipped — isolation: one subscriber's failure never
// disturbs the window state or its peers — and the source sweeps it out on
// the next producer call. Closes at or before a CQ's resume point are muted
// for that CQ alone. A raw view's rows stay in its container until the
// store's Expire: operators copy row references into fresh output rows and
// never retain the input slice itself. An aggregate view's rows are lent in a
// frame (ivm.Frame): fire holds it while it runs, a post set until its tree
// reads the next close, and every sink handed rows of it — the view's own, or
// a post stage's that passes them through — gets a reference of its own; the
// sinks of a post stage whose window leaf was declared transient
// (plan.Input.RowsTransient) get the stage's own rows and no lease.
func (f *feed) fireView(sv *feedView, c, at int64, tc *trace.Ctx) error {
	ft := f.beginFire()
	for _, set := range sv.sets {
		run := set.run[:0]
		for _, m := range set.members {
			if c > m.resumeAfter && !m.failed.Load() {
				run = append(run, m)
			}
		}
		set.run = run
	}
	made := sv.view.Made
	frame, touched, written, err := sv.view.Fire(at)
	if err != nil {
		return fmt.Errorf("stream: window close at %d: %w", c, err)
	}
	defer frame.Release()
	f.touched.Add(int64(touched))
	f.carved.Add(int64(written))
	f.frames.Add(sv.view.Made - made)
	outs := f.outs[:0]
	n := 0
	for _, set := range sv.sets {
		run := set.run
		if len(run) == 0 {
			continue
		}
		out, lease := frame.Rows, frame
		if post := run[0].post; post != nil {
			if set.tree == nil {
				set.tree = post(&set.in)
			}
			set.in.WindowRows = frame.Rows
			out, err = exec.Drain(&f.ctx, set.tree, set.lastOut)
			set.in.WindowRows = nil
			frame.Retain()
			set.lease.Release()
			if set.lease = frame; set.in.RowsTransient() {
				lease = nil
			}
			if err != nil {
				err = fmt.Errorf("stream: window close at %d: %w", c, err)
				for _, m := range run {
					m.fail(err, f.src)
				}
				continue
			}
			set.lastOut = len(out)
		}
		n += len(out)
		outs = append(outs, setOut{out: out, run: run, lease: lease})
	}
	f.outs = outs
	f.viewCloses.Inc()
	f.evaluated(&ft, tc)
	// The output slice is shared across a set — without a post stage across
	// sets (rows and delivered slices are immutable); a failing sink marks
	// only its own CQ, and one that reports its consumers' failures has not
	// failed.
	for _, so := range outs {
		for _, m := range so.run {
			m.windowsFired.Inc()
			so.lease.Retain()
			err := m.sink(*tc, c, so.out, so.lease)
			if ds, ok := err.(downstream); ok {
				f.passed = append(f.passed, ds.error)
				f.src.unswept.Add(1)
			} else if err != nil {
				m.fail(err, f.src)
			}
		}
	}
	clear(outs)
	f.delivered(&ft, *tc, n)
	return nil
}
