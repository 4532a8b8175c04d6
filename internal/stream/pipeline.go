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
	started   bool // the clock has seen its first event
	resumed   bool // nextClose holds a resume point (ResumeAfter)

	// Row windows: the last `visible` rows; countdown to the next close.
	rowBuf       []tsRow
	sinceAdvance int64

	// SLICES windows: the last n emissions of a derived stream.
	emissions []emission

	// ws is the window-state store (see planshare.go) of a time-windowed
	// CQ that keeps no buffer of its own; nil means the pipeline buffers
	// rows above and re-executes its plan. On the store's host (ws.host ==
	// this pipeline, the one that is fed rows) it is the state pushed into
	// and fired from; on every other pipeline it marks a member, which
	// receives no row delivery and is fired by its host.
	ws *windowStore

	// lastOut is the row count of the last re-executed fire's result: what
	// the next one's is sized for.
	lastOut int

	// resumeAfter suppresses closes at or before this boundary; recovery
	// sets it from the Active Table's high-water mark (paper §4).
	resumeAfter int64

	// Trace state, touched only on the goroutine that applies this
	// pipeline's input (its mailbox's drainer). tc is
	// the most recent sampled context since the last fire — the next fire
	// is attributed to it; oldestIngest is the earliest unfired batch's
	// ingest time (wall ns), the start of the push-to-fire latency the
	// slow-fire threshold is checked against. Both reset at each fire.
	tc           trace.Ctx
	oldestIngest int64

	// mbox is where the source hands this pipeline its input; nil exactly
	// for store members, which are fed by their host. At most one
	// goroutine drains a mailbox at a time and applies tasks
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

// subscribePipeline builds p's pipeline and puts it where its window state
// says: a plan that keeps its window in a store (plan.WindowState) becomes
// a member of that store — created with its host on first use — and any
// other plan gets a mailbox and a place on the delivery list. Registration
// of a member is O(1) in the existing subscriber count. Callers hold
// src.mu.
func subscribePipeline(rt *Runtime, src *source, p *plan.Plan, sink Sink) (*Pipeline, error) {
	if err := validateWindow(src, p.Stream.Window); err != nil {
		return nil, err
	}
	pipe := newPipeline(rt, src, p, sink)
	key, strategy, _ := p.WindowState(rt.override)
	if key == "" {
		pipe.startMailbox()
		src.pipes = append(src.pipes, pipe)
		return pipe, nil
	}
	if rt.override == plan.StatePrivate {
		key += "#" + strconv.FormatInt(pipe.id, 10)
	}
	ws := src.stores[key]
	if ws == nil {
		var err error
		if ws, err = newWindowStore(rt, src, p, key, strategy); err != nil {
			return nil, err
		}
		src.stores[key] = ws
		ws.host.startMailbox()
		src.pipes = append(src.pipes, ws.host)
	}
	ws.attach(pipe)
	pipe.ws = ws
	src.members = append(src.members, pipe)
	return pipe, nil
}

func validateWindow(src *source, w sql.WindowSpec) error {
	switch w.Kind {
	case sql.WindowTime:
		if w.Visible <= 0 || w.Advance <= 0 {
			return fmt.Errorf("stream: window extents must be positive")
		}
	case sql.WindowRows:
		if w.Visible <= 0 || w.Advance <= 0 {
			return fmt.Errorf("stream: window extents must be positive")
		}
		if w.Advance > w.Visible {
			return fmt.Errorf("stream: row window ADVANCE larger than VISIBLE is not supported")
		}
	case sql.WindowSlices:
		if src.cqtimeCol >= 0 {
			return fmt.Errorf("stream: <SLICES n WINDOWS> applies to derived streams")
		}
	}
	return nil
}

// newPipeline returns a pipeline with its counters registered and no
// window state yet.
func newPipeline(rt *Runtime, src *source, p *plan.Plan, sink Sink) *Pipeline {
	pipe := &Pipeline{rt: rt, src: src, plan: p, win: p.Stream.Window, sink: sink, resumeAfter: -1 << 62}
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
	return pipe
}

// Plan returns the pipeline's compiled plan.
func (p *Pipeline) Plan() *plan.Plan { return p.plan }

// isHost reports whether this pipeline is a store's host: internal, fed
// rows on its members' behalf, never user-facing.
func (p *Pipeline) isHost() bool { return p.ws != nil && p.ws.host == p }

// Strategy names how this CQ's window is kept and fired — "incremental"
// (materialized store), "shared" (slice-merging store) or "reexec" — in
// the vocabulary of span Mode fields and sys.pipelines.mode.
func (p *Pipeline) Strategy() string {
	if p.ws != nil {
		return p.ws.strategy.String()
	}
	return plan.Reexec.String()
}

// ResumeAfter suppresses window closes at or before ts; used by recovery
// so an Active Table is not fed duplicate windows after restart.
func (p *Pipeline) ResumeAfter(ts int64) {
	p.resumeAfter = ts
	if p.win.Kind != sql.WindowTime {
		return
	}
	// The boundary clock will start no later than just past the resume
	// point. A store member never fires itself: its host's clock must
	// cover the resume point, and when members resume from different
	// high-water marks the earliest one wins, so no close any member still
	// needs is skipped (the host's fire suppresses per member).
	clock := p
	if p.ws != nil {
		clock = p.ws.host
	}
	if nc := clock.alignUp(ts + 1); !clock.resumed || nc < clock.nextClose {
		clock.nextClose, clock.resumed = nc, true
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
		if p.ws != nil {
			return p.ws.state.Insert(row, ts)
		}
		p.pending = append(p.pending, tsRow{ts, row})
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
		// The clock starts at the first event: the first boundary is the
		// one after ts (there is nothing to report before data or a later
		// heartbeat) — or, after recovery, the one after the resume point
		// when that is earlier, so the quiet boundaries between the two
		// still close. History replayed from before the resume point starts
		// the clock there too; the closes it proves are muted below, and by
		// a store's host per member, some of which may have no resume point.
		if nc := p.alignUp(ts + 1); !p.resumed || nc < p.nextClose {
			p.nextClose = nc
		}
		p.started = true
	}
	for p.nextClose <= ts {
		c := p.nextClose
		p.nextClose += p.win.Advance
		if c <= p.resumeAfter {
			p.prune(c)
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
	return ivm.SliceStart(ts+p.win.Advance-1, p.win.Advance)
}

// fireTime evaluates the window closing at boundary c: a store's host
// closes every view of the store; any other pipeline re-executes its plan
// over the buffered rows with timestamps in [c-VISIBLE, c). That
// materialization rides in a pooled container, released once the plan has
// drained — operators copy row references into fresh output rows and
// never retain the input slice itself.
func (p *Pipeline) fireTime(c int64) error {
	if p.ws != nil {
		return p.ws.fire(c)
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

// run executes the full plan over the window's rows and delivers the
// result to the sink.
func (p *Pipeline) run(c int64, rows []types.Row) error {
	ft := p.beginFire()
	out, err := exec.Drain(p.rt.snapshotCtx(c), p.plan.Build(plan.Input{WindowRows: rows}), p.lastOut)
	if err != nil {
		return fmt.Errorf("stream: window close at %d: %w", c, err)
	}
	p.lastOut = len(out)
	p.windowsFired.Inc()
	tc := p.takeFireCtx()
	p.evaluated(&ft, &tc)
	err = p.sink(tc, c, out)
	p.delivered(&ft, tc, len(out))
	return err
}

// fireTimer times one window close for the fire histogram, the
// window-fire and cq-deliver spans and the slow-fire detector: begin
// before anything is computed, evaluated once the result rows exist,
// delivered after the sinks return.
type fireTimer struct {
	start, execDone time.Time
	slow            bool
}

func (p *Pipeline) beginFire() fireTimer {
	if p.fireHist != nil || p.rt.tracer != nil {
		return fireTimer{start: time.Now()}
	}
	return fireTimer{}
}

// takeFireCtx consumes the pending trace attribution for the fires of one
// boundary. The returned context keeps the oldest unfired ingest time so
// downstream consumers (derived streams, channels) measure latency from
// original ingest.
func (p *Pipeline) takeFireCtx() trace.Ctx {
	tc := trace.Ctx{ID: p.tc.ID, Ingest: p.oldestIngest}
	p.tc = trace.Ctx{}
	p.oldestIngest = 0
	return tc
}

// evaluated marks the end of a fire's computation. A fire whose
// push-to-fire latency is over the slow threshold gets a fresh trace ID
// when its batch was unsampled — slow fires bypass sampling.
func (p *Pipeline) evaluated(ft *fireTimer, tc *trace.Ctx) {
	tr := p.rt.tracer
	if tr == nil {
		return
	}
	ft.execDone = time.Now()
	if th := tr.Threshold(); th > 0 && tc.Ingest != 0 && ft.execDone.UnixNano()-tc.Ingest > int64(th) {
		ft.slow = true
		if tc.ID == 0 {
			tc.ID = tr.NewID()
		}
	}
}

// delivered records one fire: the latency observation, the window-fire and
// cq-deliver spans when the fire is attributed to a sampled batch, and —
// force-recorded and logged — the slow fire.
func (p *Pipeline) delivered(ft *fireTimer, tc trace.Ctx, rows int) {
	tr := p.rt.tracer
	if tr == nil {
		if p.fireHist != nil {
			p.fireHist.ObserveSince(ft.start)
		}
		return
	}
	end := time.Now()
	if p.fireHist != nil {
		p.fireHist.Observe(end.Sub(ft.start).Seconds())
	}
	if tc.ID != 0 {
		tr.Record(trace.Span{Trace: tc.ID, Stage: trace.StageWindowFire, Stream: p.src.name,
			Pipe: p.id, Start: ft.start.UnixMicro(), Dur: ft.execDone.Sub(ft.start).Nanoseconds(),
			Rows: rows, Slow: ft.slow, Mode: p.Strategy()})
		tr.Record(trace.Span{Trace: tc.ID, Stage: trace.StageCQDeliver, Stream: p.src.name,
			Pipe: p.id, Start: ft.execDone.UnixMicro(), Dur: end.Sub(ft.execDone).Nanoseconds(),
			Rows: rows, Slow: ft.slow})
	}
	if ft.slow {
		tr.SlowFire(p.src.name, p.id, tc.ID, time.Duration(end.UnixNano()-tc.Ingest),
			ft.execDone.Sub(ft.start), end.Sub(ft.execDone), rows)
	}
}
