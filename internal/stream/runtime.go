// Package stream implements the continuous-query runtime: stream sources,
// window processing ("windows produce a sequence of tables", paper Fig. 1),
// derived streams, channels into Active Tables, and the attachment of
// continuous queries to shared slice-based window state (paper refs
// [4],[12]; the state itself is internal/ivm).
//
// Execution model: stream time is driven by data (CQTIME values) and by
// explicit heartbeats. Sources require non-decreasing timestamps; when
// time reaches a window boundary, the window's rows are materialized as a
// relation and the query plan — the same iterator operators used by
// snapshot queries — runs over it under a fresh MVCC snapshot (window
// consistency, paper §4).
//
// Concurrency: the runtime keeps a read-mostly source registry behind an
// RWMutex, and each source carries its own mutex, so pushes to distinct
// streams never contend. Within one source there is one delivery path:
// every feed (planshare.go) owns a mailbox of micro-batch tasks, the
// source enqueues each batch, heartbeat and emission on it, and at most one
// goroutine drains a mailbox at a time, in arrival order. Who drains is a
// scheduling policy. By default the enqueuing goroutine drains the
// mailboxes it just fed, in subscription order, before its call returns —
// no goroutine is created and whole-engine execution is deterministic.
// With SetParallel the mailboxes are bounded (blocking backpressure on
// producers) and drained by a fixed pool of GOMAXPROCS workers that take
// runnable feeds from one FIFO run queue (sched.go), so
// 10k mostly idle feeds cost 10k mailboxes, not 10k goroutines, per-CQ
// results are identical, and fan-out to N feeds uses up to GOMAXPROCS cores
// instead of one.
//
// A continuous query is in one state: subscribed to a feed, which holds the
// window in a slice-partial store and fires it. The feed is shared — one
// store per (stream, slice fingerprint, ADVANCE) for all the CQs on it,
// whatever their VISIBLE, residual filter or projection — when the plan is a
// sliceable aggregate, and the CQ's own otherwise, over a raw store whose
// slices hold the rows; re-executing the plan over them is then the post
// stage a close runs, not a second kind of pipeline.
package stream

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/exec"
	"streamrel/internal/metrics"
	"streamrel/internal/plan"
	"streamrel/internal/trace"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// Sink receives the rows produced by one window close of a continuous
// query, together with the trace context of the sampled batch that
// proved the window complete (the zero Ctx when none was sampled) — so
// downstream hops (channel WAL writes, derived-stream deliveries) join
// the same span chain. A sink runs on whichever goroutine is draining its
// feed's mailbox (the producer, or a scheduler worker under
// SetParallel); it must not call back into the pipeline's own stream.
type Sink func(tc trace.Ctx, closeTS int64, rows []types.Row) error

// Tap receives everything a stream's subscribers are sent — a base stream's
// accepted batch, a derived stream's emission — as a Sink does, and with a
// base stream's batch the replication observation it may take over (Ingest;
// nil for an emission or when nothing observes ingest). The rows come in a
// container the source reuses, and a wire append's rows are decoded into
// memory its reader reuses once delivery ends (deliver's kept): a tap copies
// what it keeps, as a channel's table does.
type Tap func(tc trace.Ctx, closeTS int64, rows []types.Row, in *Ingest) error

// Ingest is the OnIngest observation of one base-stream batch, handed to
// whoever archives that batch so that storing the very rows it was handed and
// the batch entering the stream can be reported as one event (replication's
// KindArchive) instead of two that carry the rows twice. While it is Owed,
// one of three things happens, each under the source lock: the archiver
// reports the batch itself and calls Settle; it will not — the rows it stores
// are not the stream's — and calls Publish, before reporting its own write;
// or it returns having done neither and deliver publishes. A stream with no
// tap, or with several, has its batch published before fan-out as ever, and
// the taps see an Ingest that is no longer owed. The Ingest is the source's,
// reused from batch to batch: it must not be kept past the call it came with.
type Ingest struct {
	r      *Runtime
	tc     trace.Ctx
	stream string
	batch  []tsRow
	owed   bool
}

// Owed reports whether the batch still has to be reported; false on nil.
func (in *Ingest) Owed() bool { return in != nil && in.owed }

// Stream names the stream the batch entered.
func (in *Ingest) Stream() string { return in.stream }

// Settle records that the caller reported the batch itself.
func (in *Ingest) Settle() { in.owed = false }

// Publish reports the batch through OnIngest if that is still owed. The rows
// are copied out of the pooled batch block: the observer may retain the slice,
// and copies the rows it keeps.
func (in *Ingest) Publish() {
	if !in.Owed() {
		return
	}
	in.owed = false
	accepted := make([]types.Row, len(in.batch))
	for i := range in.batch {
		accepted[i] = in.batch[i].row
	}
	in.r.OnIngest(in.tc, in.stream, accepted)
}

// LatePolicy decides what happens to a row whose timestamp precedes the
// stream's high-water mark. The paper's streams are "ordered on an
// attribute"; real feeds occasionally violate that, so deployments choose
// a policy.
type LatePolicy uint8

// Late-row policies.
const (
	// LateReject returns an error to the producer (default: disorder is a
	// bug in the feed).
	LateReject LatePolicy = iota
	// LateDrop silently discards late rows, counting them in Stats.
	LateDrop
	// LateClamp advances the row's timestamp to the high-water mark so it
	// lands in the current window.
	LateClamp
)

// Runtime owns every stream source and continuous query.
//
// Locking order: Runtime.mu (registry) is never held while a source mutex
// is taken for delivery; source mutexes are acquired one at a time except
// through derived-stream emission, where the producer-side lock of the
// derived source is taken while an upstream feed's mailbox is being
// drained (under the upstream source's lock, or on a pool worker).
// Derived streams form a DAG, so that ordering is acyclic.
type Runtime struct {
	mu      sync.RWMutex // guards sources map and closed flag
	sources map[string]*source
	closed  bool

	mgr *txn.Manager
	// override replaces plan.WindowState's automatic decision (ablations
	// and tests).
	override plan.StateOverride
	// parallel is the per-feed mailbox backpressure bound in
	// micro-batches; 0 means no pool: producers drain the mailboxes.
	parallel int
	// sched is the worker pool; nil when parallel == 0.
	sched *scheduler
	// now is the clock now() reads in a fire; nil means the wall clock.
	now func() time.Time
	// Late is the disorder policy applied to all sources. Set before
	// pushing begins.
	Late LatePolicy

	// OnIngest, when set, observes every batch accepted into a base stream
	// (after validation and late-policy filtering) along with its trace
	// context — unless whoever archived the batch reported it instead (see
	// Ingest) — and OnAdvance observes every effective heartbeat. Both run
	// under the source lock, so the observation order is exactly the
	// delivery order for that stream. OnIngest copies the rows it keeps, as a
	// Tap does. Replication ships these events to
	// replicas (carrying the trace ID across the wire); derived-stream
	// output is deliberately not reported, because a replica
	// re-derives it by running its own pipelines. Set both before
	// pushing begins.
	OnIngest  func(tc trace.Ctx, stream string, rows []types.Row)
	OnAdvance func(stream string, ts int64)

	// tracer samples batches into the end-to-end span pipeline; nil
	// disables tracing. Set before pushing begins.
	tracer *trace.Tracer

	// reg is the metrics registry; nil disables registration (standalone
	// handles keep counting for Stats). Set before sources register.
	reg *metrics.Registry
	// lateDropped counts rows discarded by LateDrop. It doubles as the
	// streamrel_stream_late_dropped_total series when a registry is set.
	lateDropped *metrics.Counter
	// nextPipeID labels pipelines in per-pipeline metric series.
	nextPipeID atomic.Int64
}

// NewRuntime creates a runtime bound to the transaction manager (window
// consistency takes its snapshots there). override is handed to
// plan.WindowState for every subscription; now is the clock a fire's
// now() calls read, nil meaning the wall clock.
func NewRuntime(mgr *txn.Manager, override plan.StateOverride, now func() time.Time) *Runtime {
	return &Runtime{
		sources:     make(map[string]*source),
		mgr:         mgr,
		override:    override,
		now:         now,
		lateDropped: &metrics.Counter{},
	}
}

// SetMetrics binds the runtime to a metrics registry so stream, pipeline
// and window-fire series register there. Call once, before sources are
// registered; a nil registry keeps instrumentation local (Stats still
// works, nothing is exported).
func (r *Runtime) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	r.reg = reg
	r.lateDropped = reg.Counter("streamrel_stream_late_dropped_total",
		"rows discarded by the LateDrop disorder policy")
	reg.GaugeFunc("streamrel_stream_sources", "registered stream sources", func() float64 {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return float64(len(r.sources))
	})
	// perSource registers a gauge summing per over every source, each read
	// under its lock.
	perSource := func(name, help string, per func(*source) int) {
		reg.GaugeFunc(name, help, func() float64 {
			n := 0
			for _, src := range r.snapshotSources() {
				src.mu.Lock()
				n += per(src)
				src.mu.Unlock()
			}
			return float64(n)
		})
	}
	perSource("streamrel_stream_pipelines", "live continuous-query pipelines",
		func(src *source) int { return len(src.cqs) })
	perSource("streamrel_plan_groups", "window-state stores (one feed each)",
		func(src *source) int { return len(src.stores) })
	perSource("streamrel_plan_subscribers", "continuous queries attached to window-state stores",
		func(src *source) int {
			n := 0
			for _, f := range src.stores {
				n += int(f.n.Load())
			}
			return n
		})
}

// SetTracer binds the runtime to a tracer: ingested batches get sampled
// trace contexts and every hop records spans. Call once, before pushing
// begins; nil keeps tracing disabled.
func (r *Runtime) SetTracer(t *trace.Tracer) { r.tracer = t }

// SetParallel hands mailbox draining to the shared worker pool: mailboxes
// are bounded at depth tasks on the producer path (blocking backpressure)
// and producers no longer wait for window fires.
// depth < 1 keeps the default, where the enqueuing goroutine drains.
// Call once, after SetMetrics and before subscribing.
func (r *Runtime) SetParallel(depth int) {
	if depth < 1 {
		return
	}
	r.parallel = depth
	r.sched = newScheduler(r.SchedWorkers(), r.reg)
}

// SchedWorkers reports the pool size for EXPLAIN: GOMAXPROCS.
func (r *Runtime) SchedWorkers() int { return runtime.GOMAXPROCS(0) }

// source is the fan-out point for one stream (base or derived). Its mutex
// serializes pushes, heartbeats, subscription changes and tap changes for
// this stream only.
type source struct {
	name      string
	schema    types.Schema
	cqtimeCol int // -1: timestamps supplied by the pusher (derived streams)

	mu     sync.Mutex
	lastTS int64
	hasTS  bool
	taps   []*Tap
	// ingest is the current delivery's Ingest (deliver).
	ingest Ingest
	// feeds is the delivery list, in the order the feeds were opened: only
	// they are fed rows, so delivery cost is O(feeds) no matter how many CQs
	// subscribe. stores indexes the feeds that keep a slice-partial store, by
	// its key. cqs lists every subscriber of every feed, in subscription
	// order. unswept counts the failures recorded since the last sweep,
	// letting sweepFailedLocked skip its scans on the common path. retired
	// holds feeds taken off the list under the source lock (a feed
	// must never be stopped while it is held); whoever drops the lock stops
	// them (unlock).
	feeds   []*feed
	stores  map[string]*feed
	cqs     []*Pipeline
	unswept atomic.Int64
	retired []*feed
	// claimed is enqueue's per-call scratch: the feeds whose mailboxes the
	// enqueuing goroutine claimed and must drain before releasing mu.
	claimed []*feed
	tapRows []types.Row // fanOut's container for the taps' rows, cleared after

	// rows counts validated rows accepted into this stream
	// (streamrel_stream_rows_total{stream=…}; nil without a registry).
	rows *metrics.Counter

	// internal marks engine-owned telemetry streams (the sys.* namespace):
	// their ingest is excluded from user-facing stream counters, the
	// tracer, and replication, so telemetry about the system never feeds
	// back into the signals it reports (no self-amplification).
	internal bool
}

// RegisterSource declares a stream. cqtimeCol is the index of the CQTIME
// column, or -1 when timestamps arrive out of band (derived streams).
func (r *Runtime) RegisterSource(name string, schema types.Schema, cqtimeCol int) error {
	return r.registerSource(name, schema, cqtimeCol, false)
}

// RegisterInternalSource declares an engine-owned telemetry stream. Its
// rows count under streamrel_sysmon_rows_total (not the user-facing
// streamrel_stream_rows_total), and its batches skip trace sampling and
// replication publish — see source.internal.
func (r *Runtime) RegisterInternalSource(name string, schema types.Schema, cqtimeCol int) error {
	return r.registerSource(name, schema, cqtimeCol, true)
}

func (r *Runtime) registerSource(name string, schema types.Schema, cqtimeCol int, internal bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sources[name]; ok {
		return fmt.Errorf("stream: source %q already registered", name)
	}
	rowsName, rowsHelp := "streamrel_stream_rows_total", "rows accepted into a stream after validation"
	if internal {
		rowsName, rowsHelp = "streamrel_sysmon_rows_total", "telemetry rows self-ingested into a sys.* stream"
	}
	r.sources[name] = &source{
		name:      name,
		schema:    schema,
		cqtimeCol: cqtimeCol,
		internal:  internal,
		stores:    make(map[string]*feed),
		rows:      r.reg.Counter(rowsName, rowsHelp, metrics.L("stream", name)),
	}
	return nil
}

// DropSource removes a stream, detaches its subscribers and stops their
// feeds.
func (r *Runtime) DropSource(name string) {
	r.mu.Lock()
	src := r.sources[name]
	delete(r.sources, name)
	r.mu.Unlock()
	if src == nil {
		return
	}
	feeds, _ := src.detachAll()
	for _, f := range feeds {
		f.stop()
	}
}

// detachAll empties the source's lists and returns every feed that was on
// them, for the caller to stop, and every CQ.
func (s *source) detachAll() ([]*feed, []*Pipeline) {
	s.mu.Lock()
	defer s.mu.Unlock()
	feeds, cqs := append(s.feeds, s.retired...), s.cqs
	s.feeds, s.cqs, s.retired = nil, nil, nil
	s.stores = make(map[string]*feed)
	return feeds, cqs
}

// unlock releases s.mu and then stops the feeds retired under it.
func (s *source) unlock() {
	retired := s.retired
	s.retired = nil
	s.mu.Unlock()
	for _, f := range retired {
		f.stop()
	}
}

// HasSource reports whether name is a registered stream.
func (r *Runtime) HasSource(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.sources[name]
	return ok
}

// lookup resolves a source name under the registry read lock.
func (r *Runtime) lookup(stream string) (*source, error) {
	r.mu.RLock()
	src, ok := r.sources[stream]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("stream: unknown stream %q", stream)
	}
	return src, nil
}

// snapshotSources copies the registry contents under the read lock.
func (r *Runtime) snapshotSources() []*source {
	r.mu.RLock()
	out := make([]*source, 0, len(r.sources))
	for _, s := range r.sources {
		out = append(out, s)
	}
	r.mu.RUnlock()
	return out
}

// Subscribe attaches a compiled continuous query to its stream and returns
// the pipeline handle. The plan must reference a stream.
//
// Subscription-time semantics: a new CQ starts observing from the next
// arriving event, and its earliest windows may be partial with respect to
// history. One rule says how partial: a CQ reads windows over whatever its
// feed still holds in its extent. On a store's feed (see plan.WindowState)
// that is the slices the store retains — nothing when it is the store's
// first member, up to the widest existing member's VISIBLE otherwise — and
// a feed opened for the CQ alone starts from an empty raw store. Queries
// needing exact history replay it from an archive table instead (INSERT
// INTO stream SELECT … ORDER BY ts).
func (r *Runtime) Subscribe(p *plan.Plan, sink Sink) (*Pipeline, error) {
	if p.Stream == nil {
		return nil, fmt.Errorf("stream: plan is not a continuous query")
	}
	r.mu.RLock()
	src, ok := r.sources[p.Stream.Name]
	closed := r.closed
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("stream: unknown stream %q", p.Stream.Name)
	}
	if closed {
		return nil, fmt.Errorf("stream: runtime is closed")
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	return subscribePipeline(r, src, p, sink)
}

// Unsubscribe detaches a pipeline from its feed. A feed goes with its last
// subscriber, discarding any queued but unprocessed input.
func (r *Runtime) Unsubscribe(pipe *Pipeline) {
	src := pipe.feed.src
	src.mu.Lock()
	src.detachLocked(pipe)
	src.unlock()
}

// detachLocked takes a CQ off its feed and off the subscriber list; a feed
// retires with its last subscriber. Detaching twice is harmless. Callers
// hold s.mu.
func (s *source) detachLocked(pipe *Pipeline) {
	s.dropCQ(pipe)
	if f := pipe.feed; f.detach(pipe) && f.n.Load() == 0 {
		s.retireLocked(f)
	}
}

// dropCQ takes a CQ off the subscriber list.
func (s *source) dropCQ(m *Pipeline) {
	for i, x := range s.cqs {
		if x == m {
			s.cqs = slices.Delete(s.cqs, i, i+1)
			return
		}
	}
}

// retireLocked takes a feed off the delivery list, for whoever releases
// s.mu to stop. Callers hold s.mu.
func (s *source) retireLocked(f *feed) {
	if s.stores[f.key] == f {
		delete(s.stores, f.key)
	}
	for i, x := range s.feeds {
		if x == f {
			s.feeds = slices.Delete(s.feeds, i, i+1)
			s.retired = append(s.retired, f)
			return
		}
	}
}

// sweepFailedLocked detaches everything that has recorded a failure and
// returns the errors joined — the one place delivery errors are collected.
// Producer-drained feeds fail inside the call that carried the offending
// row, so that call reports them; a pool worker's failure surfaces on the
// next PushBatch/Advance/Quiesce instead of poisoning the producer forever.
// A feed's failure is its window state's: its subscribers are orphaned and
// the one error surfaces once, through the feed. A CQ's failure — its post
// stage's or its sink's — detaches that CQ only, and what a feed was handed
// up from downstream (see emitDerived) detaches nothing here. Callers hold
// s.mu.
func (s *source) sweepFailedLocked() error {
	n := s.unswept.Load()
	if n == 0 {
		return nil
	}
	// Whatever is recorded from here on is either seen below or still
	// counted for the next sweep.
	s.unswept.Add(-n)
	var errs []error
	for i := 0; i < len(s.feeds); {
		f := s.feeds[i]
		errs = append(errs, f.takePassed())
		if !f.failed.Load() {
			i++
			continue
		}
		for _, m := range f.clearMembers() {
			s.dropCQ(m)
		}
		s.retireLocked(f)
		errs = append(errs, f.takeErr())
	}
	for i := 0; i < len(s.cqs); {
		m := s.cqs[i]
		if !m.failed.Load() {
			i++
			continue
		}
		s.detachLocked(m)
		errs = append(errs, m.takeErr())
	}
	return errors.Join(errs...)
}

// PushBatch appends rows to a base stream in order. Each row's CQTIME
// column supplies its timestamp; timestamps must be non-decreasing (the
// paper's streams are "ordered on an attribute"). Per-batch invariants —
// source resolution, schema arity, timestamp extraction and the late policy
// — are validated in one pre-pass, so an invalid row rejects the whole
// batch before anything is delivered; window advance and delivery then
// happen once per batch per feed instead of once per row.
//
// tc is an externally assigned trace context: a replica re-injects the
// primary's trace ID here so the local apply hops join the primary's span
// chain. A zero Ctx lets the runtime's own tracer make the sampling
// decision. A non-nil now marks a CQTIME SYSTEM stream: each row's CQTIME
// column is replaced, on a copy of the row, by its arrival time read from
// now under the source lock — so concurrent producers are stamped in the
// order they are delivered — and never earlier than the stream's clock.
// kept false says nothing the batch reached holds its rows (see deliver).
func (r *Runtime) PushBatch(tc trace.Ctx, stream string, rows []types.Row, now func() time.Time) (kept bool, err error) {
	src, err := r.lookup(stream)
	if err != nil {
		return false, err
	}
	src.mu.Lock()
	defer src.unlock()
	if now != nil {
		rows = src.stampArrival(rows, now)
	}
	return src.deliver(r, tc, rows, nil)
}

// PushArchived is PushBatch for rows the caller also stores in a table, as a
// replica applying a KindArchive event does: archive runs under the source
// lock once the batch is validated and before any of it is delivered — so a
// window the batch closes sees it archived, whoever drains the mailboxes —
// with the batch's Ingest, owed whatever taps the stream has (nil when
// nothing observes ingest). If archive fails the batch is not delivered.
// kept is PushBatch's.
func (r *Runtime) PushArchived(tc trace.Ctx, stream string, rows []types.Row, archive func(in *Ingest) error) (kept bool, err error) {
	src, err := r.lookup(stream)
	if err != nil {
		return false, err
	}
	src.mu.Lock()
	defer src.unlock()
	return src.deliver(r, tc, rows, archive)
}

// prepare validates a batch and stamps each row with its timestamp,
// applying the late policy against a running high-water mark. On success
// the source clock advances; on error nothing is delivered and the clock
// is untouched. The returned block is pooled and refcounted: the caller
// owns one reference (release when done) and takes more for each worker
// the batch is handed to. Callers hold s.mu.
func (s *source) prepare(r *Runtime, rows []types.Row, explicitTS int64, explicit bool) (*batchBlock, error) {
	block := getBatchBlock(len(rows))
	batch := block.rows
	fail := func(err error) (*batchBlock, error) {
		block.rows = batch
		block.release()
		return nil, err
	}
	arity := len(s.schema)
	hwm, has := s.lastTS, s.hasTS
	for _, row := range rows {
		if len(row) != arity {
			return fail(fmt.Errorf("stream: %s: row has %d columns, schema has %d",
				s.name, len(row), arity))
		}
		var ts int64
		switch {
		case explicit:
			ts = explicitTS
		case s.cqtimeCol >= 0:
			d := row[s.cqtimeCol]
			if d.Type() != types.TypeTimestamp {
				return fail(fmt.Errorf("stream: %s: CQTIME column is %s, want TIMESTAMP", s.name, d.Type()))
			}
			ts = d.TimestampMicros()
		default:
			return fail(fmt.Errorf("stream: %s: no CQTIME column and no explicit timestamp", s.name))
		}
		if has && ts < hwm {
			switch r.Late {
			case LateDrop:
				r.lateDropped.Inc()
				continue
			case LateClamp:
				ts = hwm
			default:
				return fail(fmt.Errorf("stream: %s: out-of-order timestamp %d < %d (streams are ordered on CQTIME)",
					s.name, ts, hwm))
			}
		}
		hwm, has = ts, true
		batch = append(batch, tsRow{ts, row})
	}
	s.lastTS, s.hasTS = hwm, has
	block.rows = batch
	return block, nil
}

// stampArrival returns the rows with each one's CQTIME column overwritten
// by its arrival time ("CQTIME SYSTEM"), never earlier than the stream's
// high-water mark — copies, in a slice of their own: the caller's rows and
// the slice holding them may be a CQ's delivered batch, which other
// subscribers share. Stamping under s.mu is what makes concurrent
// producers' stamps non-decreasing in delivery order. Callers hold s.mu.
func (s *source) stampArrival(rows []types.Row, now func() time.Time) []types.Row {
	hwm := int64(math.MinInt64)
	if s.hasTS {
		hwm = s.lastTS
	}
	stamped := make([]types.Row, len(rows))
	for i, row := range rows {
		if stamped[i] = row; s.cqtimeCol >= len(row) {
			continue // prepare rejects the batch for its arity
		}
		hwm = max(hwm, now().UnixMicro())
		stamped[i] = row.Clone()
		stamped[i][s.cqtimeCol] = types.NewTimestampMicros(hwm)
	}
	return stamped
}

// deliver validates one batch of a base stream and fans it out. A row at ts
// proves every window closing at or before ts complete, so each feed fires
// those closes before taking the row — per feed, rows and closes interleave
// exactly as in row-at-a-time delivery. archive is PushArchived's, or nil;
// kept says a store that KeepsRows or a mailbox yet to apply them may still
// hold the rows as delivery ends — taps and OnIngest copy what they keep.
// Callers hold s.mu.
func (s *source) deliver(r *Runtime, tc trace.Ctx, rows []types.Row, archive func(*Ingest) error) (kept bool, err error) {
	block, err := s.prepare(r, rows, 0, false)
	if err != nil {
		return false, err
	}
	defer func() {
		kept = block.refs.Load() > 1 || slices.ContainsFunc(s.feeds, (*feed).keepsRows) || slices.ContainsFunc(s.retired, (*feed).keepsRows)
		block.release()
	}()
	batch := block.rows
	if len(batch) == 0 {
		return
	}
	// Sampling decision at ingest: a batch without an externally assigned
	// context (replica re-injection) rolls the dice here. Unsampled batches
	// still get an ingest timestamp so slow-fire latency is measurable for
	// every fire.
	if r.tracer != nil && tc.ID == 0 && tc.Ingest == 0 && !s.internal {
		tc = r.tracer.Begin(s.name, len(batch))
	}
	var in *Ingest
	if r.OnIngest != nil && s.cqtimeCol >= 0 && !s.internal {
		s.ingest = Ingest{r: r, tc: tc, stream: s.name, batch: batch, owed: true}
		in = &s.ingest
	}
	if archive != nil {
		if err = archive(in); err != nil {
			return
		}
	} else if len(s.taps) != 1 {
		// Nobody archives the batch, or more than one channel does: it entered
		// the stream (the clock advanced) even if a subscriber sink fails
		// below, so it is published before fan-out. A stream's one tap gets
		// the chance to report it first; fanOut publishes what the tap left.
		in.Publish()
	}
	s.rows.Add(int64(len(batch)))
	return kept, errors.Join(s.fanOut(r, task{kind: taskBatch, batch: batch, block: block,
		ts: batch[len(batch)-1].ts, tc: tc}, true, in))
}

// fanOut hands one task to every subscriber of the source. Mailboxes are
// fed first, so pool workers chew on the batch while this goroutine runs
// the taps — one call per batch, so a channel's transaction, WAL append
// and fsync are per BATCH, and a window firing mid-batch sees the whole
// batch archived — then the mailboxes it claimed. Failures are swept
// last: a failing tap, feed or CQ never keeps the batch from its peers.
// The taps' errors — the task itself did not get where it should — come
// back apart from the swept ones, which are the subscribers' own. bounded
// applies the mailbox backpressure bound — true only on the external
// producer path, never for work originating inside the pool (see
// worker.go). in is a base-stream batch's Ingest (nil otherwise): what the
// taps leave owed is published before any mailbox is drained here, so what
// this goroutine derives from the batch is sequenced after it. Callers hold
// s.mu.
func (s *source) fanOut(r *Runtime, t task, bounded bool, in *Ingest) (tapErr, swept error) {
	s.enqueue(r, t, bounded)
	var errs []error
	if t.kind != taskAdvance && len(s.taps) > 0 {
		rows := s.tapRows[:0]
		for _, tr := range t.batch {
			rows = append(rows, tr.row)
		}
		for _, tap := range s.taps {
			if err := (*tap)(t.tc, t.ts, rows, in); err != nil {
				errs = append(errs, err)
			}
		}
		clear(rows)
		s.tapRows = rows[:0]
	}
	in.Publish()
	s.drainClaimedLocked()
	return errors.Join(errs...), s.sweepFailedLocked()
}

// enqueue puts one task on every mailbox of the source — the only way
// work reaches window state — recording an enqueue span
// (duration = backpressure wait) for sampled batches. Each enqueue takes
// one reference on the task's batch block, given back when the task is
// applied or dropped. The enqueuer claims the mailboxes it must drain
// itself (drainClaimedLocked): all of them without a pool, and under a
// pool the source's only feed when idle — the hand-off's wake-up latency
// would otherwise make one CQ slower with a pool than without. Callers
// hold s.mu.
func (s *source) enqueue(r *Runtime, t task, bounded bool) {
	claim := r.parallel == 0 || len(s.feeds) == 1
	for _, f := range s.feeds {
		if t.block != nil {
			t.block.retain()
		}
		var start time.Time
		if t.tc.ID != 0 {
			start = time.Now()
			t.enqNS = start.UnixNano()
		}
		if f.enqueue(t, bounded, claim) {
			s.claimed = append(s.claimed, f)
		}
		if t.tc.ID != 0 {
			r.tracer.Record(trace.Span{Trace: t.tc.ID, Stage: trace.StageEnqueue,
				Stream: s.name, Pipe: f.id, Start: start.UnixMicro(),
				Dur: time.Since(start).Nanoseconds(), Rows: len(t.batch)})
		}
	}
}

// drainClaimedLocked drains, in subscription order, the mailboxes the last
// enqueue claimed. A fire in here may emit into a derived stream, whose
// source is drained the same way before the emission returns.
func (s *source) drainClaimedLocked() {
	for i, f := range s.claimed {
		f.runMailbox(drainAll)
		s.claimed[i] = nil
	}
	s.claimed = s.claimed[:0]
}

// Advance moves a stream's clock to ts (a heartbeat), closing any windows
// whose boundary has been reached even if no data arrived.
func (r *Runtime) Advance(stream string, ts int64) error {
	src, err := r.lookup(stream)
	if err != nil {
		return err
	}
	src.mu.Lock()
	defer src.unlock()
	if src.hasTS && ts < src.lastTS {
		return nil // stale heartbeat: ignore
	}
	src.lastTS, src.hasTS = ts, true
	if r.OnAdvance != nil && src.cqtimeCol >= 0 {
		r.OnAdvance(src.name, ts)
	}
	return errors.Join(src.fanOut(r, task{kind: taskAdvance, ts: ts}, true, nil))
}

// Tap attaches a raw sink to a stream. On a derived stream the sink
// receives every emission (close timestamp + rows); on a base stream it
// receives each pushed batch. Channels use taps to copy stream contents into
// tables (paper §3.3); a base-stream channel archives the raw feed. The
// returned function detaches the tap.
func (r *Runtime) Tap(stream string, tap Tap) (func(), error) {
	src, err := r.lookup(stream)
	if err != nil {
		return nil, err
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	handle := &tap
	src.taps = append(src.taps, handle)
	return func() {
		src.mu.Lock()
		defer src.mu.Unlock()
		for i, t := range src.taps {
			if t == handle {
				src.taps = append(src.taps[:i], src.taps[i+1:]...)
				return
			}
		}
	}, nil
}

// DerivedSink returns the sink that feeds a derived stream's source. The
// engine wires it as the sink of the derived stream's always-on pipeline.
// Emission takes the derived source's own lock, so the sink may run on
// whichever goroutine is draining the upstream feed's mailbox.
func (r *Runtime) DerivedSink(stream string) Sink {
	return func(tc trace.Ctx, closeTS int64, rows []types.Row) error {
		return r.emitDerived(tc, stream, closeTS, rows)
	}
}

// emitDerived delivers one emission of a derived stream into its source:
// all rows share the emission timestamp closeTS, and the emission boundary
// itself is signalled for SLICES-window consumers. The upstream fire's
// trace context rides along, so a sampled base-stream batch's chain
// continues through every derived stream it cascades into. An emission that
// reached every tap has been delivered, whatever its consumers then did with
// it: their swept failures come back marked downstream, so the emitting CQ
// hands them up to the producer's call instead of failing for them.
func (r *Runtime) emitDerived(tc trace.Ctx, stream string, closeTS int64, rows []types.Row) error {
	src, err := r.lookup(stream)
	if err != nil {
		// The derived stream has been dropped; discard silently.
		return nil
	}
	src.mu.Lock()
	defer src.unlock()
	block, err := src.prepare(r, rows, closeTS, true)
	if err != nil {
		return err
	}
	defer block.release()
	src.rows.Add(int64(len(block.rows)))
	// Unbounded: an emission may originate on a pool worker, which must
	// never block on another feed's mailbox bound (deadlock).
	tapErr, swept := src.fanOut(r, task{kind: taskEmission, batch: block.rows, block: block,
		ts: closeTS, tc: tc}, false, nil)
	if tapErr == nil && swept != nil {
		return downstream{swept}
	}
	return errors.Join(tapErr, swept)
}

// downstream marks the failures of a derived stream's consumers on their way
// up through the sink of the CQ that emitted into it.
type downstream struct{ error }

// Quiesce blocks until every mailbox has drained all input enqueued before
// the call — including work that cascades through derived streams — then
// reports any failures not yet surfaced, detaching what failed. Taking each
// source's lock once waits out a goroutine that drains the mailboxes it
// claimed, cascades included, since it holds the lock until it is done;
// what it handed to the pool is queued by then, and the pool is waited on
// until it is idle. Quiesce does not prevent concurrent producers; callers
// wanting a true barrier stop pushing first.
func (r *Runtime) Quiesce() error {
	sources := r.snapshotSources()
	for _, src := range sources {
		src.mu.Lock()
		src.unlock()
	}
	if r.sched != nil {
		r.sched.waitIdle()
	}
	var errs []error
	for _, src := range sources {
		src.mu.Lock()
		errs = append(errs, src.sweepFailedLocked())
		src.unlock()
	}
	return errors.Join(errs...)
}

// Close drains every mailbox, stops the feeds, detaches everything and
// returns any failures that had not yet been surfaced. Producers must have
// stopped; pushing after Close returns an error for unknown streams only
// if the source registry was also torn down, so the engine gates Close
// behind its own writer lock.
func (r *Runtime) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()

	// Graceful drain first, so a cascaded emission still finds its
	// consumers attached.
	errs := []error{r.Quiesce()}
	for _, src := range r.snapshotSources() {
		feeds, cqs := src.detachAll()
		for _, f := range feeds {
			f.stop()
			errs = append(errs, f.takeErr())
		}
		for _, m := range cqs {
			errs = append(errs, m.takeErr())
		}
	}
	if r.sched != nil {
		r.sched.close()
	}
	return errors.Join(errs...)
}

// StoreMembers reports how many continuous queries are attached to the
// window-state store key of a stream right now; EXPLAIN renders it
// without subscribing anything.
func (r *Runtime) StoreMembers(stream, key string) int {
	src, err := r.lookup(stream)
	if err != nil {
		return 0
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	if f := src.stores[key]; f != nil {
		return int(f.n.Load())
	}
	return 0
}

// snapshotCtx builds the per-window execution context: a fresh snapshot at
// the window boundary (window consistency) plus the closing timestamp for
// cq_close(*).
func (r *Runtime) snapshotCtx(closeTS int64) exec.Ctx {
	return exec.Ctx{
		Snap:        r.mgr.SnapshotNow(),
		WindowClose: types.NewTimestampMicros(closeTS),
		Now:         r.now,
	}
}

// Stats is the per-pipeline snapshot behind sys.pipelines (PerPipeline) and
// sums over it, for sysmon, tests and the benchmark. The metrics registry,
// not this struct, is what the counter read surfaces render.
type Stats struct {
	Sources int
	// Pipelines counts continuous queries, whatever feed they are on.
	Pipelines int
	// PlanGroups counts the keyed window-state stores (one feed each; a raw
	// store's private feed is not one); PlanSubscribers counts the CQs on
	// them.
	PlanGroups      int
	PlanSubscribers int
	WindowsFired    int64
	RowsProcessed   int64
	LateDropped     int64
	// Scheduler counters (zero without a pool). SchedWorkers is the pool
	// size, SchedRunnable the feeds queued awaiting a worker, SchedParks the
	// lifetime park count — the streamrel_sched_* series. SchedSteals is
	// always 0: the pool has one run queue and nothing to steal from; it is
	// kept for the benchmark, which reads it.
	SchedWorkers  int
	SchedRunnable int64
	SchedSteals   int64
	SchedParks    int64
	// PerPipeline lists one consistent counter snapshot per live
	// pipeline; the totals above are sums over it.
	PerPipeline []PipelineStats
}

// PipelineStats is one pipeline's counter snapshot. The pair
// (WindowsFired, RowsSeen) is read in an order that preserves the
// producer-side invariant — rows are counted before the window fire they
// contribute to — so for a row window with ADVANCE a,
// WindowsFired*a <= RowsSeen holds in every snapshot.
type PipelineStats struct {
	Stream       string
	ID           int64
	WindowsFired int64
	RowsSeen     int64
	// RowsSeen is the row intake of the CQ's feed, and QueueDepth the number
	// of micro-batch tasks queued in that feed's mailbox — the backlog every
	// CQ on it waits behind; 0 between calls when producers drain.
	QueueDepth int
	// Strategy is Pipeline.Strategy: "incremental" or "reexec".
	Strategy string
	// PlanShared marks CQs on a keyed window-state store's feed.
	PlanShared bool
}

// statsSnapshot reads this CQ's counters as one consistent pass. Load order
// matters: the feed counts a row before any fire that row proves, and a
// fire counts before its sinks run, so loading windowsFired first
// guarantees the returned pair never shows more fires than its rows
// justify.
func (p *Pipeline) statsSnapshot() PipelineStats {
	f := p.feed
	ps := PipelineStats{Stream: f.src.name, ID: p.id, Strategy: p.Strategy(), PlanShared: f.key != ""}
	ps.WindowsFired = p.windowsFired.Value()
	ps.RowsSeen = f.rowsSeen.Value()
	ps.QueueDepth = f.mbox.depth()
	return ps
}

// Stats returns a snapshot of runtime counters. Per-pipeline counters are
// atomics, so this only takes each source's lock long enough to copy its
// subscriber list — it never stops delivery across the whole runtime.
func (r *Runtime) Stats() Stats {
	var s Stats
	s.LateDropped = r.lateDropped.Value()
	if r.sched != nil {
		s.SchedWorkers = r.sched.workers
		s.SchedRunnable = int64(r.sched.runnable())
		s.SchedParks = r.sched.parks.Value()
	}
	sources := r.snapshotSources()
	s.Sources = len(sources)
	for _, src := range sources {
		src.mu.Lock()
		s.PlanGroups += len(src.stores)
		cqs := append([]*Pipeline(nil), src.cqs...)
		src.mu.Unlock()
		s.Pipelines += len(cqs)
		for _, pipe := range cqs {
			ps := pipe.statsSnapshot()
			if ps.PlanShared {
				s.PlanSubscribers++
			}
			s.WindowsFired += ps.WindowsFired
			s.RowsProcessed += ps.RowsSeen
			s.PerPipeline = append(s.PerPipeline, ps)
		}
	}
	return s
}
