package stream

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/exec"
	"streamrel/internal/ivm"
	"streamrel/internal/metrics"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// tsRow is a buffered stream row with its extracted timestamp.
type tsRow struct {
	ts  int64
	row types.Row
}

// Pipeline is one running continuous query: it buffers stream rows into
// the window defined by its plan and evaluates the plan at every window
// close, sending results to its sink.
type Pipeline struct {
	rt   *Runtime
	src  *source
	plan *plan.Plan
	win  sql.WindowSpec
	sink Sink

	// Time windows: rows retained for the sliding extent, plus the next
	// boundary to close.
	pending   []tsRow
	nextClose int64
	started   bool

	// Row windows: the last `visible` rows; countdown to the next close.
	rowBuf       []tsRow
	sinceAdvance int64

	// SLICES windows: the last n emissions of a derived stream.
	emissions []emission

	// Shared slice aggregation (nil when not applicable or disabled).
	shared *sharedAgg

	// Plan-level sharing (see planshare.go). pg is set on a member: the
	// pipeline is a subscriber of a shared host and receives no row
	// delivery of its own. hosting is set on the host pipeline that owns
	// the group's window state and fans post stages out at each close.
	pg      *planGroup
	hosting *planGroup

	// Incremental view maintenance (nil when not applicable or disabled):
	// the pipeline maintains materialized per-group aggregates and fires
	// from state instead of re-executing the plan over the window.
	ivm *ivm.State
	// ivmTouched counts distinct groups changed per fire
	// (streamrel_ivm_groups_touched_total); nil without a registry.
	ivmTouched *metrics.Counter
	// unregIVMGauges detaches the state-size gauges on stop.
	unregIVMGauges func()

	// resumeAfter suppresses closes at or before this boundary; recovery
	// sets it from the Active Table's high-water mark (paper §4).
	resumeAfter int64

	// Trace state, touched only on the goroutine that applies this
	// pipeline's input (its mailbox's drainer, or for a shared-slice member
	// the producer under the source lock). tc is
	// the most recent sampled context since the last fire — the next fire
	// is attributed to it; oldestIngest is the earliest unfired batch's
	// ingest time (wall ns), the start of the push-to-fire latency the
	// slow-fire threshold is checked against. Both reset at each fire.
	tc           trace.Ctx
	oldestIngest int64

	// mbox is where the source hands this pipeline its input; nil exactly
	// for shared-slice members (shared != nil), which the producer steps
	// row by row, and for plan-group members, which are fed by their host.
	// At most one goroutine drains a mailbox at a time and applies tasks
	// in queue order, so per-pipeline results do not depend on who drains.
	mbox     *mailbox
	stopOnce sync.Once
	enqueued atomic.Int64 // lifetime non-flush tasks; Quiesce's cascade detector
	failed   atomic.Bool  // failErr is written before the Store, read after the Load
	failErr  error

	// id labels this pipeline in metric series and Stats.PerPipeline.
	id int64
	// windowsFired and rowsSeen are always non-nil; with a registry they
	// are the registered streamrel_pipeline_{windows,rows}_total series,
	// so Stats and /metrics read the same counters.
	windowsFired *metrics.Counter
	rowsSeen     *metrics.Counter
	// fireHist observes window-fire latency (plan execution + sink
	// delivery); nil without a registry.
	fireHist *metrics.Histogram
	// unregQueueGauge detaches the queue-depth gauge on stop.
	unregQueueGauge func()
}

type emission struct {
	ts   int64
	rows []types.Row
}

// newPipeline validates the window against the source and joins a plan
// group, an incremental state or a shared slice aggregation when the plan
// shape allows it.
func newPipeline(rt *Runtime, src *source, p *plan.Plan, sink Sink) (*Pipeline, error) {
	return buildPipeline(rt, src, p, sink, true)
}

// buildPipeline is newPipeline with plan-group membership controllable:
// group hosts are themselves built through it with allowGroup=false so
// the host gets real window state (IVM preferred, shared slices
// otherwise) instead of recursively joining its own group. Callers hold
// src.mu.
func buildPipeline(rt *Runtime, src *source, p *plan.Plan, sink Sink, allowGroup bool) (*Pipeline, error) {
	w := p.Stream.Window
	pipe := &Pipeline{rt: rt, src: src, plan: p, win: w, sink: sink, resumeAfter: -1 << 62}
	pipe.id = rt.nextPipeID.Add(1)
	if rt.reg != nil {
		labels := []metrics.Label{
			metrics.L("stream", src.name),
			metrics.L("pipe", strconv.FormatInt(pipe.id, 10)),
		}
		pipe.rowsSeen = rt.reg.Counter("streamrel_pipeline_rows_total",
			"rows delivered to a continuous-query pipeline", labels...)
		pipe.windowsFired = rt.reg.Counter("streamrel_pipeline_windows_total",
			"window closes evaluated by a continuous-query pipeline", labels...)
		pipe.fireHist = rt.reg.Histogram("streamrel_window_fire_seconds",
			"window-fire latency: plan execution plus sink delivery", nil,
			metrics.L("stream", src.name))
	} else {
		pipe.rowsSeen, pipe.windowsFired = &metrics.Counter{}, &metrics.Counter{}
	}
	switch w.Kind {
	case sql.WindowTime:
		if w.Visible <= 0 || w.Advance <= 0 {
			return nil, fmt.Errorf("stream: window extents must be positive")
		}
	case sql.WindowRows:
		if w.Visible <= 0 || w.Advance <= 0 {
			return nil, fmt.Errorf("stream: window extents must be positive")
		}
		if w.Advance > w.Visible {
			return nil, fmt.Errorf("stream: row window ADVANCE larger than VISIBLE is not supported")
		}
	case sql.WindowSlices:
		if src.cqtimeCol >= 0 {
			return nil, fmt.Errorf("stream: <SLICES n WINDOWS> applies to derived streams")
		}
	}

	// Plan-level sharing: CQs with the shareable aggregate shape, the same
	// slice fingerprint and the same window geometry subscribe to one host
	// pipeline (the first such CQ creates it) instead of building their own
	// window state. The check runs before IVM so 10k identical dashboards
	// maintain ONE delta state; the host itself is built through the normal
	// tail below and so prefers IVM, falling back to shared slices.
	if allowGroup && rt.planShare && rt.sharing && p.StreamAgg != nil &&
		w.Kind == sql.WindowTime && w.Visible%w.Advance == 0 {
		key := planGroupKey(p.StreamAgg.Fingerprint, w.Advance, w.Visible)
		g, ok := src.groups[key]
		if !ok {
			host, err := buildPipeline(rt, src, p, nil, false)
			if err != nil {
				return nil, err
			}
			g = &planGroup{key: key, host: host}
			host.hosting = g
			src.groups[key] = g
			if host.shared == nil {
				host.startMailbox()
			}
			src.pipes = append(src.pipes, host)
		}
		g.attach(pipe, p.StreamAgg.PostKey)
		pipe.pg = g
		return pipe, nil
	}

	// Incremental view maintenance: delta-eligible plans maintain
	// materialized per-group aggregates and fire in O(groups) instead of
	// re-scanning O(window rows). Takes precedence over shared slices when
	// both apply — a fire from state beats a per-fire slice merge on the
	// wide-window/small-advance dashboard shape (E14); identical-shape CQs
	// give up slice sharing's per-row dedup in exchange.
	if rt.ivm {
		if st, reason := ivm.Compile(p); reason == "" {
			pipe.ivm = st
			if rt.reg != nil {
				pipe.ivmTouched = rt.reg.Counter("streamrel_ivm_groups_touched_total",
					"distinct groups changed between incremental window fires",
					metrics.L("stream", src.name))
				labels := []metrics.Label{
					metrics.L("stream", src.name),
					metrics.L("pipe", strconv.FormatInt(pipe.id, 10)),
				}
				unregGroups := rt.reg.GaugeFunc("streamrel_ivm_state_groups",
					"materialized groups held by an incremental pipeline",
					func() float64 { return float64(st.GroupsN.Load()) }, labels...)
				unregSlices := rt.reg.GaugeFunc("streamrel_ivm_state_slices",
					"live slices held by an incremental pipeline",
					func() float64 { return float64(st.SlicesN.Load()) }, labels...)
				pipe.unregIVMGauges = func() { unregGroups(); unregSlices() }
			}
			return pipe, nil
		}
	}

	// Shared slice aggregation: time windows whose VISIBLE is a multiple
	// of ADVANCE, with the shareable plan shape.
	if rt.sharing && p.StreamAgg != nil && w.Kind == sql.WindowTime && w.Visible%w.Advance == 0 {
		key := fmt.Sprintf("%s@%d", p.StreamAgg.Fingerprint, w.Advance)
		agg, ok := src.shared[key]
		if !ok {
			agg = newSharedAgg(key, p.StreamAgg, w.Advance)
			src.shared[key] = agg
		}
		agg.attach(pipe)
		pipe.shared = agg
	}
	return pipe, nil
}

// Plan returns the pipeline's compiled plan.
func (p *Pipeline) Plan() *plan.Plan { return p.plan }

// Shared reports whether this pipeline aggregates via shared slices. A
// plan-group member reports its host's strategy: that is where its
// aggregation actually runs.
func (p *Pipeline) Shared() bool {
	if p.pg != nil {
		return p.pg.host.shared != nil
	}
	return p.shared != nil
}

// Incremental reports whether this pipeline maintains its aggregate
// incrementally and fires from materialized state (delegated to the host
// for plan-group members).
func (p *Pipeline) Incremental() bool {
	if p.pg != nil {
		return p.pg.host.ivm != nil
	}
	return p.ivm != nil
}

// PlanShared reports plan-level sharing membership: the group key
// (fingerprint@advance/visible) and the current subscriber count.
func (p *Pipeline) PlanShared() (key string, members int, ok bool) {
	if p.pg == nil {
		return "", 0, false
	}
	return p.pg.key, int(p.pg.n.Load()), true
}

// SliceShared reports shared-slice membership for EXPLAIN: the slice key
// (fingerprint@advance) and how many pipelines feed off that state. A
// plan-group member reports through its host.
func (p *Pipeline) SliceShared() (key string, members int, ok bool) {
	host := p
	if p.pg != nil {
		host = p.pg.host
	}
	if host.shared == nil {
		return "", 0, false
	}
	p.src.mu.Lock()
	n := len(host.shared.members)
	p.src.mu.Unlock()
	return host.shared.key, n, true
}

// mode names the fire strategy for trace spans and stats.
func (p *Pipeline) mode() string {
	switch {
	case p.ivm != nil:
		return "incremental"
	case p.shared != nil:
		return "shared"
	default:
		return "reexec"
	}
}

// ResumeAfter suppresses window closes at or before ts; used by recovery
// so an Active Table is not fed duplicate windows after restart.
func (p *Pipeline) ResumeAfter(ts int64) {
	p.resumeAfter = ts
	if p.win.Kind == sql.WindowTime {
		// Start the boundary clock just past the resume point.
		p.nextClose = p.alignUp(ts + 1)
		p.started = true
		if p.pg != nil {
			// A plan-group member never fires itself: the host's clock must
			// cover the member's resume point, and when members resume from
			// different high-water marks the earliest one wins so no close
			// any member still needs is skipped (fanout suppresses per
			// member).
			h := p.pg.host
			nc := h.alignUp(ts + 1)
			if !h.started || nc < h.nextClose {
				h.nextClose = nc
				h.started = true
			}
		}
	}
}

// processBatch applies one prepared micro-batch: each row first proves
// every earlier window boundary complete, then lands in the buffer — the
// same interleaving row-at-a-time delivery produced, amortized to one call
// per batch per pipeline.
func (p *Pipeline) processBatch(batch []tsRow, tc trace.Ctx) error {
	p.noteBatch(tc)
	for _, tr := range batch {
		if err := p.advanceTo(tr.ts); err != nil {
			return err
		}
		if err := p.push(tr.row, tr.ts); err != nil {
			return err
		}
	}
	return nil
}

// noteBatch folds an arriving batch's trace context into the pipeline's
// pending fire attribution. The fire a batch triggers is the one its
// arrival proves complete, so the context is noted before any boundary
// closes.
func (p *Pipeline) noteBatch(tc trace.Ctx) {
	if p.rt.tracer == nil {
		return
	}
	if p.oldestIngest == 0 && tc.Ingest != 0 {
		p.oldestIngest = tc.Ingest
	}
	if tc.ID != 0 {
		p.tc = tc
	}
}

// push buffers one row (already proven in-order by the source).
func (p *Pipeline) push(row types.Row, ts int64) error {
	p.rowsSeen.Inc()
	switch p.win.Kind {
	case sql.WindowTime:
		if !p.started {
			p.nextClose = p.alignUp(ts + 1)
			p.started = true
		}
		if p.ivm != nil {
			return p.ivm.Insert(row, ts)
		}
		if p.shared == nil {
			p.pending = append(p.pending, tsRow{ts, row})
		}
		return nil
	case sql.WindowRows:
		p.rowBuf = append(p.rowBuf, tsRow{ts, row})
		if len(p.rowBuf) > int(p.win.Visible) {
			p.rowBuf = p.rowBuf[1:]
		}
		p.sinceAdvance++
		if p.sinceAdvance >= p.win.Advance {
			p.sinceAdvance = 0
			return p.fireRows(ts)
		}
		return nil
	case sql.WindowSlices:
		// Rows accumulate into the current emission; endEmission seals it.
		n := len(p.emissions)
		if n == 0 || p.emissions[n-1].ts != ts {
			p.emissions = append(p.emissions, emission{ts: ts})
			n++
		}
		p.emissions[n-1].rows = append(p.emissions[n-1].rows, row)
		return nil
	}
	return fmt.Errorf("stream: unknown window kind")
}

// advanceTo fires every time-window boundary at or before ts.
func (p *Pipeline) advanceTo(ts int64) error {
	if p.win.Kind != sql.WindowTime {
		return nil
	}
	if !p.started {
		// No data yet: set the clock so the first boundary is after ts
		// (there is nothing to report before data or a later heartbeat).
		p.nextClose = p.alignUp(ts + 1)
		p.started = true
		return nil
	}
	for p.nextClose <= ts {
		c := p.nextClose
		p.nextClose += p.win.Advance
		if c <= p.resumeAfter {
			p.prune(c)
			if p.ivm != nil {
				// Suppressed closes still expire slices, so the state
				// tracks the window even while recovery mutes output.
				if err := p.ivm.Expire(c + p.win.Advance - p.win.Visible); err != nil {
					return err
				}
			}
			continue
		}
		if err := p.fireTime(c); err != nil {
			return err
		}
	}
	return nil
}

// alignUp returns the smallest multiple of ADVANCE that is >= ts.
func (p *Pipeline) alignUp(ts int64) int64 {
	adv := p.win.Advance
	q := floorDiv(ts, adv)
	if q*adv < ts {
		q++
	}
	return q * adv
}

// fireTime evaluates the window closing at boundary c: rows with
// timestamps in [c-VISIBLE, c). The window materialization rides in a
// pooled container, released once the plan has drained — operators copy
// row references into fresh output rows and never retain the input
// slice itself.
func (p *Pipeline) fireTime(c int64) error {
	if p.hosting != nil {
		return p.fireGroup(p.hosting, c)
	}
	if p.ivm != nil {
		aggRows, touched, err := p.ivm.Fire()
		if err != nil {
			return err
		}
		if p.ivmTouched != nil {
			p.ivmTouched.Add(int64(touched))
		}
		if err := p.runPost(c, aggRows, true); err != nil {
			return err
		}
		// Retract the slice that just left the window.
		return p.ivm.Expire(c + p.win.Advance - p.win.Visible)
	}
	if p.shared != nil {
		aggRows, err := p.shared.windowRows(c, p.win.Visible)
		if err != nil {
			return err
		}
		return p.runPost(c, aggRows, false)
	}
	lo := c - p.win.Visible
	rb := getRowsBlock(len(p.pending))
	for _, tr := range p.pending {
		if tr.ts >= lo && tr.ts < c {
			rb.rows = append(rb.rows, tr.row)
		}
	}
	p.prune(c)
	err := p.run(c, rb.rows)
	rb.put()
	return err
}

// prune drops buffered rows no window after boundary c can see.
func (p *Pipeline) prune(c int64) {
	keepFrom := c + p.win.Advance - p.win.Visible
	i := 0
	for i < len(p.pending) && p.pending[i].ts < keepFrom {
		i++
	}
	if i > 0 {
		p.pending = append(p.pending[:0], p.pending[i:]...)
	}
}

// fireRows evaluates a row-count window: the last VISIBLE rows as of the
// row that completed the ADVANCE count. cq_close is that row's timestamp.
// The materialization is pooled; see fireTime.
func (p *Pipeline) fireRows(ts int64) error {
	if ts <= p.resumeAfter {
		return nil
	}
	rb := getRowsBlock(len(p.rowBuf))
	for _, tr := range p.rowBuf {
		rb.rows = append(rb.rows, tr.row)
	}
	err := p.run(ts, rb.rows)
	rb.put()
	return err
}

// endEmission seals the current derived-stream emission and, for SLICES
// windows, fires over the last n emissions.
func (p *Pipeline) endEmission(ts int64, rowCount int) error {
	if p.win.Kind != sql.WindowSlices {
		return nil
	}
	// Ensure an (possibly empty) emission exists for ts.
	n := len(p.emissions)
	if n == 0 || p.emissions[n-1].ts != ts {
		p.emissions = append(p.emissions, emission{ts: ts})
		n++
	}
	// Retain only the last `Visible` emissions.
	if over := n - int(p.win.Visible); over > 0 {
		p.emissions = append(p.emissions[:0], p.emissions[over:]...)
	}
	if ts <= p.resumeAfter {
		return nil
	}
	total := 0
	for _, em := range p.emissions {
		total += len(em.rows)
	}
	rb := getRowsBlock(total)
	for _, em := range p.emissions {
		rb.rows = append(rb.rows, em.rows...)
	}
	err := p.run(ts, rb.rows)
	rb.put()
	return err
}

// run executes the full plan over the window's rows and emits the result.
func (p *Pipeline) run(c int64, rows []types.Row) error {
	return p.fire(c, func() exec.Operator { return p.plan.Build(plan.Input{WindowRows: rows}) })
}

// runPost executes only the post-aggregation stage over merged shared
// slice results.
func (p *Pipeline) runPost(c int64, aggRows []types.Row, presorted bool) error {
	return p.fire(c, func() exec.Operator { return p.plan.StreamAgg.PostBuild(aggRows, presorted) })
}

// fire evaluates one window close and delivers the result to the sink,
// recording window-fire and cq-deliver spans when the fire is attributed
// to a sampled batch, and force-recording (plus logging) fires whose
// push-to-fire latency exceeds the slow-fire threshold.
func (p *Pipeline) fire(c int64, build func() exec.Operator) error {
	tr := p.rt.tracer
	var start time.Time
	if p.fireHist != nil || tr != nil {
		start = time.Now()
	}
	ctx := p.rt.snapshotCtx(c)
	out, err := exec.Drain(ctx, build())
	if err != nil {
		return fmt.Errorf("stream: window close at %d: %w", c, err)
	}
	p.windowsFired.Inc()
	if tr == nil {
		err = p.sink(trace.Ctx{}, c, out)
		if p.fireHist != nil {
			p.fireHist.ObserveSince(start)
		}
		return err
	}
	execDone := time.Now()
	tc, slow := p.takeFireCtx(tr, execDone)
	err = p.sink(tc, c, out)
	end := time.Now()
	if p.fireHist != nil {
		p.fireHist.Observe(end.Sub(start).Seconds())
	}
	if tc.ID != 0 {
		tr.Record(trace.Span{Trace: tc.ID, Stage: trace.StageWindowFire, Stream: p.src.name,
			Pipe: p.id, Start: start.UnixMicro(), Dur: execDone.Sub(start).Nanoseconds(),
			Rows: len(out), Slow: slow, Mode: p.mode()})
		tr.Record(trace.Span{Trace: tc.ID, Stage: trace.StageCQDeliver, Stream: p.src.name,
			Pipe: p.id, Start: execDone.UnixMicro(), Dur: end.Sub(execDone).Nanoseconds(),
			Rows: len(out), Slow: slow})
	}
	if slow {
		tr.SlowFire(p.src.name, p.id, tc.ID, time.Duration(end.UnixNano()-tc.Ingest),
			execDone.Sub(start), end.Sub(execDone), len(out))
	}
	return err
}

// takeFireCtx consumes the pending trace attribution for one fire. The
// returned context keeps the oldest unfired ingest time so downstream
// consumers (derived streams, channels) measure latency from original
// ingest. A fire over the slow threshold gets a fresh trace ID when its
// batch was unsampled — slow fires bypass sampling.
func (p *Pipeline) takeFireCtx(tr *trace.Tracer, execDone time.Time) (trace.Ctx, bool) {
	tc := trace.Ctx{ID: p.tc.ID, Ingest: p.oldestIngest}
	p.tc = trace.Ctx{}
	p.oldestIngest = 0
	slow := false
	if th := tr.Threshold(); th > 0 && tc.Ingest != 0 && execDone.UnixNano()-tc.Ingest > int64(th) {
		slow = true
		if tc.ID == 0 {
			tc.ID = tr.NewID()
		}
	}
	return tc, slow
}
