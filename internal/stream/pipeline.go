package stream

import (
	"strconv"
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

// tsRow is a prepared stream row with its extracted timestamp.
type tsRow struct {
	ts  int64
	row types.Row
}

// Pipeline is one running continuous query, the handle Subscribe returns: a
// plan, a sink and what runs between a window and the sink. It is always a
// subscriber of exactly one feed (planshare.go), which holds the window and
// calls the sink at each close; a Pipeline has no mailbox, no window state
// and no clock of its own.
type Pipeline struct {
	feed *feed
	plan *plan.Plan
	sink Sink

	// post builds what runs over the rows of the feed's window at each
	// close, once for all subscribers with the same postKey (their set keeps
	// the tree); nil delivers the rows as they are. On an aggregate store
	// that is the plan's post-aggregation stage, on a raw store the whole
	// plan.
	post    func(in *plan.Input) exec.Operator
	postKey string

	// resumeAfter suppresses closes at or before this boundary; recovery
	// sets it from the Active Table's high-water mark (paper §4).
	resumeAfter int64

	failure

	// id labels this CQ in metric series and Stats.PerPipeline.
	id int64
	// windowsFired is always non-nil; with a registry it is the registered
	// streamrel_pipeline_windows_total series, so Stats and /metrics read
	// the same counter.
	windowsFired *metrics.Counter
}

// failure is a first-error slot: written by the goroutine applying a feed's
// input, consumed by the source's sweep.
type failure struct {
	failed atomic.Bool // err is written before the Store, read after the Load
	err    error
}

// fail records err and tells src there is something to sweep.
func (f *failure) fail(err error, src *source) {
	f.err = err
	f.failed.Store(true)
	src.unswept.Add(1)
}

// takeErr returns the failure, if any, consuming it.
func (f *failure) takeErr() error {
	if !f.failed.Load() {
		return nil
	}
	err := f.err
	f.err = nil
	f.failed.Store(false)
	return err
}

// subscribePipeline subscribes p to the feed its window state says: a plan
// that keeps its window in an aggregate store (plan.WindowState gives it a
// key) joins the feed of that store — opened on first use — and its post
// stage is the plan's post-aggregation stage; any other plan gets a feed of
// its own over a raw store, labelled with the subscriber's id, and its post
// stage is the whole plan. Joining an existing feed is O(1) in its
// subscriber count. Callers hold src.mu.
func subscribePipeline(rt *Runtime, src *source, p *plan.Plan, sink Sink) (*Pipeline, error) {
	pipe := &Pipeline{plan: p, sink: sink, resumeAfter: -1 << 62, id: rt.nextPipeID.Add(1)}
	pipe.windowsFired = rt.pipeCounter("streamrel_pipeline_windows_total",
		"window closes evaluated by a continuous-query pipeline", src, pipe.id)
	key, _ := p.WindowState(rt.override)
	var err error
	if key == "" {
		pipe.post = p.Build
		pipe.feed, err = openFeed(rt, src, p, "", pipe.id)
	} else {
		pipe.post, pipe.postKey = p.StreamAgg.PostBuild, p.StreamAgg.PostKey
		if rt.override == plan.StatePrivate {
			key += "#" + strconv.FormatInt(pipe.id, 10)
		}
		if pipe.feed = src.stores[key]; pipe.feed == nil {
			pipe.feed, err = openFeed(rt, src, p, key, rt.nextPipeID.Add(1))
		}
	}
	if err != nil {
		return nil, err
	}
	pipe.feed.attach(pipe)
	src.cqs = append(src.cqs, pipe)
	return pipe, nil
}

// pipeCounter returns the per-pipeline counter series name{stream, pipe}, or
// a standalone counter without a registry (Stats still reads it).
func (r *Runtime) pipeCounter(name, help string, src *source, id int64) *metrics.Counter {
	if r.reg == nil {
		return &metrics.Counter{}
	}
	return r.reg.Counter(name, help, metrics.L("stream", src.name), metrics.L("pipe", strconv.FormatInt(id, 10)))
}

// Plan returns the pipeline's compiled plan.
func (p *Pipeline) Plan() *plan.Plan { return p.plan }

// Strategy names how this CQ's window is kept and fired — "incremental"
// (a store) or "reexec" — in the vocabulary of span Mode fields and
// sys.pipelines.mode.
func (p *Pipeline) Strategy() string { return plan.Mode(p.feed.key) }

// ResumeAfter suppresses window closes at or before ts; used by recovery
// so an Active Table is not fed duplicate windows after restart. The feed's
// boundary clock will start no later than just past the resume point; when
// its subscribers resume from different high-water marks the earliest one
// wins, so no close any of them still needs is skipped (a fire mutes per
// subscriber).
func (p *Pipeline) ResumeAfter(ts int64) {
	p.resumeAfter = ts
	f := p.feed
	if f.win.Kind != sql.WindowTime {
		return
	}
	if nc := f.alignUp(ts + 1); !f.resumed || nc < f.nextClose {
		f.nextClose, f.resumed = nc, true
	}
}

// processBatch applies one prepared micro-batch: each row first proves
// every earlier window boundary complete, then lands in the window state —
// the same interleaving row-at-a-time delivery produced, amortized to one
// call per batch per feed.
func (f *feed) processBatch(batch []tsRow, tc trace.Ctx) error {
	f.noteBatch(tc)
	for _, tr := range batch {
		if err := f.advanceTo(tr.ts); err != nil {
			return err
		}
		if err := f.push(tr.row, tr.ts); err != nil {
			return err
		}
	}
	return nil
}

// noteBatch folds an arriving batch's trace context into the feed's
// next fire's attribution. The fire a batch triggers is the one its
// arrival proves complete, so the context is noted before any boundary
// closes.
func (f *feed) noteBatch(tc trace.Ctx) {
	if f.rt.tracer == nil {
		return
	}
	if f.oldestIngest == 0 && tc.Ingest != 0 {
		f.oldestIngest = tc.Ingest
	}
	if tc.ID != 0 {
		f.tc = tc
	}
}

// push puts one row (already proven in-order by the source) into the window
// state: a time window's at its timestamp; a ROWS window's at its ordinal,
// closing [n-VISIBLE, n) once the count n reaches a multiple of ADVANCE, with
// that row's timestamp as cq_close; a SLICES window's into the open
// emission, which endEmission seals.
func (f *feed) push(row types.Row, ts int64) error {
	f.rowsSeen.Inc()
	if f.win.Kind == sql.WindowTime {
		return f.store.Insert(row, ts)
	}
	if err := f.store.Insert(row, f.ord); err != nil || f.win.Kind != sql.WindowRows {
		return err
	}
	if f.ord++; f.ord%f.win.Advance == 0 {
		return f.fire(ts, f.ord)
	}
	return nil
}

// advanceTo fires every time-window boundary at or before ts.
func (f *feed) advanceTo(ts int64) error {
	if f.win.Kind != sql.WindowTime {
		return nil
	}
	if !f.started {
		// The clock starts at the first event: the first boundary is the
		// one after ts (there is nothing to report before data or a later
		// heartbeat) — or, after recovery, the one after the resume point
		// when that is earlier, so the quiet boundaries between the two
		// still close. History replayed from before the resume point starts
		// the clock there too; the closes it proves are muted per subscriber
		// by the fire, some of which may have no resume point.
		if nc := f.alignUp(ts + 1); !f.resumed || nc < f.nextClose {
			f.nextClose = nc
		}
		f.started = true
	}
	for f.nextClose <= ts {
		c := f.nextClose
		f.nextClose += f.win.Advance
		if err := f.fire(c, c); err != nil {
			return err
		}
	}
	return nil
}

// alignUp returns the smallest multiple of ADVANCE that is >= ts.
func (f *feed) alignUp(ts int64) int64 {
	return ivm.SliceStart(ts+f.win.Advance-1, f.win.Advance, 0)
}

// endEmission seals the open derived-stream emission at ts and, for SLICES
// windows, fires over the last n of them; an empty one is a number with
// no slice.
func (f *feed) endEmission(ts int64) error {
	if f.win.Kind != sql.WindowSlices {
		return nil
	}
	f.ord++
	return f.fire(ts, f.ord)
}

// fireTimer times one window close for the fire histogram, the
// window-fire and cq-deliver spans and the slow-fire detector: begin
// before anything is computed, evaluated once the result rows exist,
// delivered after the sinks return.
type fireTimer struct {
	start, execDone time.Time
	slow            bool
}

func (f *feed) beginFire() fireTimer {
	if f.fireHist != nil || f.rt.tracer != nil {
		return fireTimer{start: time.Now()}
	}
	return fireTimer{}
}

// takeFireCtx consumes the unfired trace attribution for the fires of one
// boundary. The returned context keeps the oldest unfired ingest time so
// downstream consumers (derived streams, channels) measure latency from
// original ingest.
func (f *feed) takeFireCtx() trace.Ctx {
	tc := trace.Ctx{ID: f.tc.ID, Ingest: f.oldestIngest}
	f.tc = trace.Ctx{}
	f.oldestIngest = 0
	return tc
}

// evaluated marks the end of a fire's computation. A fire whose
// push-to-fire latency is over the slow threshold gets a fresh trace ID
// when its batch was unsampled — slow fires bypass sampling.
func (f *feed) evaluated(ft *fireTimer, tc *trace.Ctx) {
	tr := f.rt.tracer
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
func (f *feed) delivered(ft *fireTimer, tc trace.Ctx, rows int) {
	tr := f.rt.tracer
	if tr == nil {
		if f.fireHist != nil {
			f.fireHist.ObserveSince(ft.start)
		}
		return
	}
	end := time.Now()
	if f.fireHist != nil {
		f.fireHist.Observe(end.Sub(ft.start).Seconds())
	}
	if tc.ID != 0 {
		tr.Record(trace.Span{Trace: tc.ID, Stage: trace.StageWindowFire, Stream: f.src.name,
			Pipe: f.id, Start: ft.start.UnixMicro(), Dur: ft.execDone.Sub(ft.start).Nanoseconds(),
			Rows: rows, Slow: ft.slow, Mode: plan.Mode(f.key)})
		tr.Record(trace.Span{Trace: tc.ID, Stage: trace.StageCQDeliver, Stream: f.src.name,
			Pipe: f.id, Start: ft.execDone.UnixMicro(), Dur: end.Sub(ft.execDone).Nanoseconds(),
			Rows: rows, Slow: ft.slow})
	}
	if ft.slow {
		tr.SlowFire(f.src.name, f.id, tc.ID, time.Duration(end.UnixNano()-tc.Ingest),
			ft.execDone.Sub(ft.start), end.Sub(ft.execDone), rows)
	}
}
