// Package trace is the engine's end-to-end event tracing layer. It
// stamps a sampled trace context (trace ID + ingest timestamp) onto
// batches as they enter a stream and follows them through every hop:
// pipeline enqueue, worker pickup, window fire, CQ delivery, WAL
// append/fsync, and — across the replication wire — replica apply.
// Completed spans land in a fixed-size ring buffer queryable via the
// "trace" protocol op, the REPL's \trace command, and /debug/traces.
//
// Cost model: the unsampled path pays one atomic increment and one
// time.Now() per ingested batch; only sampled batches (default 1 in
// 256) touch the ring mutex. Every Tracer method is safe on a nil
// receiver, so disabled tracing is a nil check, matching the metrics
// package's nil-safe handle idiom.
//
// Slow-fire detection is orthogonal to sampling: each pipeline tracks
// the earliest unfired ingest timestamp, and a window fire whose
// push-to-fire latency exceeds the configured threshold is
// force-recorded with a fresh trace ID and logged through a structured
// log/slog logger — so latency outliers are always visible even at low
// sample rates.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/metrics"
)

// Stage names one hop of a batch's journey through the engine.
type Stage string

// Span stages, in pipeline order.
const (
	// StageRouterIngest is a shard router accepting and splitting a keyed
	// batch before any engine sees it; the same trace ID then crosses the
	// router→shard hop in the append request.
	StageRouterIngest Stage = "router-ingest"
	// StageIngest is the batch's acceptance into a base stream.
	StageIngest Stage = "ingest"
	// StageEnqueue is the hand-off to one pipeline's mailbox (duration =
	// producer backpressure wait). Shared-slice members have no mailbox
	// and record neither this hop nor the next.
	StageEnqueue Stage = "enqueue"
	// StagePickup is the mailbox's drainer dequeuing the batch; its
	// duration is the time the batch sat in the pipeline's queue.
	StagePickup Stage = "pickup"
	// StageWindowFire is plan execution for one window close.
	StageWindowFire Stage = "window-fire"
	// StageCQDeliver is sink delivery of the window's result rows.
	StageCQDeliver Stage = "cq-deliver"
	// StageWALAppend is the WAL write of a channel's table transaction.
	StageWALAppend Stage = "wal-append"
	// StageWALFsync is the fsync after that write (SyncWAL only).
	StageWALFsync Stage = "wal-fsync"
	// StageReplicaApply closes the chain on a replica: the span carries
	// the primary's trace ID across the replication wire.
	StageReplicaApply Stage = "replica-apply"
)

// Ctx is the trace context that travels with one batch. The zero Ctx is
// "unsampled, unstamped". ID == 0 means the batch is not sampled; Ingest
// (wall-clock nanoseconds at ingest) is stamped on every batch when a
// tracer is active, because slow-fire detection needs it regardless of
// the sampling decision.
type Ctx struct {
	ID     uint64
	Ingest int64
}

// Sampled reports whether spans should be recorded for this batch.
func (c Ctx) Sampled() bool { return c.ID != 0 }

// Span is one completed hop. Start is wall-clock microseconds since the
// epoch (the engine's timestamp unit); Dur is nanoseconds. Mode tags
// window-fire spans with the fire strategy ("incremental", "reexec"); it
// is empty on other stages.
type Span struct {
	Trace  uint64
	Stage  Stage
	Stream string
	Pipe   int64
	Start  int64
	Dur    int64
	Rows   int
	Slow   bool
	Mode   string
}

// FormatID renders a trace ID the way every surface (REPL, wire, JSON)
// displays it.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseID reverses FormatID. It accepts any hex string up to 16 digits.
func ParseID(s string) (uint64, error) {
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("trace: bad trace ID %q", s)
	}
	id, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: bad trace ID %q", s)
	}
	return id, nil
}

// DefaultSampleEvery is the default sampling rate: one traced batch per
// this many ingested batches.
const DefaultSampleEvery = 256

// DefaultRingSpans is the default span ring capacity.
const DefaultRingSpans = 4096

// Options configures a Tracer.
type Options struct {
	// SampleEvery samples one in N ingested batches; 0 means
	// DefaultSampleEvery, 1 traces every batch.
	SampleEvery int
	// SlowFire force-records any window fire whose push-to-fire latency
	// exceeds it, bypassing sampling; 0 disables slow-fire detection.
	SlowFire time.Duration
	// RingSpans caps the span ring; 0 means DefaultRingSpans.
	RingSpans int
	// Metrics registers traces_sampled/slow_fires/ring-occupancy series;
	// nil keeps the tracer unexported.
	Metrics *metrics.Registry
	// Logger receives the structured slow-fire log; nil uses
	// slog.Default().
	Logger *slog.Logger
}

// Tracer makes sampling decisions, allocates trace IDs, and owns the
// span ring. All methods are nil-receiver-safe.
type Tracer struct {
	every     int64
	threshold time.Duration
	logger    *slog.Logger

	batches atomic.Int64
	// ids seeds trace IDs from a random 64-bit origin so IDs from
	// different engine runs (primary vs replica local traces) do not
	// collide on low integers.
	ids atomic.Uint64

	mu   sync.Mutex
	ring []Span
	next int // write cursor
	n    int // spans held (≤ cap)

	sampledCtr *metrics.Counter
	slowCtr    *metrics.Counter
}

// New creates a tracer. The returned tracer is always enabled; callers
// wanting tracing off keep a nil *Tracer instead.
func New(opts Options) *Tracer {
	every := opts.SampleEvery
	if every <= 0 {
		every = DefaultSampleEvery
	}
	ringCap := opts.RingSpans
	if ringCap <= 0 {
		ringCap = DefaultRingSpans
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	t := &Tracer{
		every:     int64(every),
		threshold: opts.SlowFire,
		logger:    logger,
		ring:      make([]Span, ringCap),
		sampledCtr: opts.Metrics.Counter("streamrel_traces_sampled_total",
			"ingested batches selected for end-to-end tracing"),
		slowCtr: opts.Metrics.Counter("streamrel_slow_fires_total",
			"window fires whose push-to-fire latency exceeded the slow-fire threshold"),
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		t.ids.Store(binary.LittleEndian.Uint64(seed[:]))
	}
	opts.Metrics.GaugeFunc("streamrel_trace_ring_spans",
		"completed spans currently held in the trace ring",
		func() float64 {
			t.mu.Lock()
			n := t.n
			t.mu.Unlock()
			return float64(n)
		})
	return t
}

// NewID allocates a fresh non-zero trace ID.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	for {
		if id := t.ids.Add(1); id != 0 {
			return id
		}
	}
}

// Begin makes the per-batch sampling decision at ingest. Every batch
// gets an ingest timestamp (for slow-fire latency); one in SampleEvery
// additionally gets a trace ID and an ingest span.
func (t *Tracer) Begin(stream string, rows int) Ctx {
	if t == nil {
		return Ctx{}
	}
	now := time.Now()
	c := Ctx{Ingest: now.UnixNano()}
	if t.batches.Add(1)%t.every != 0 {
		return c
	}
	c.ID = t.NewID()
	t.sampledCtr.Inc()
	t.Record(Span{Trace: c.ID, Stage: StageIngest, Stream: stream, Start: now.UnixMicro(), Rows: rows})
	return c
}

// Adopt builds a context for a batch whose trace ID was assigned
// elsewhere (a replica re-injecting the primary's ID); the ingest
// timestamp is local, so downstream slow-fire latency measures local
// apply-to-fire time. ID 0, or a nil tracer, is the untraced context.
func (t *Tracer) Adopt(id uint64) Ctx {
	if t == nil || id == 0 {
		return Ctx{}
	}
	return Ctx{ID: id, Ingest: time.Now().UnixNano()}
}

// Threshold returns the slow-fire threshold (0 = disabled).
func (t *Tracer) Threshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.threshold
}

// Record appends one completed span to the ring, evicting the oldest
// when full. Only sampled (or slow-forced) paths reach here, so the
// mutex is off the common ingest path.
func (t *Tracer) Record(s Span) {
	if t == nil || s.Trace == 0 {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = s
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
	t.mu.Unlock()
}

// Snapshot copies the ring's spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// SlowFire counts one threshold-exceeding window fire and emits the
// structured slow-fire log line.
func (t *Tracer) SlowFire(stream string, pipe int64, id uint64, pushToFire, exec, sink time.Duration, rows int) {
	if t == nil {
		return
	}
	t.slowCtr.Inc()
	t.logger.Warn("slow window fire",
		"stream", stream,
		"pipe", pipe,
		"trace", FormatID(id),
		"push_to_fire", pushToFire.String(),
		"exec", exec.String(),
		"deliver", sink.String(),
		"rows", rows,
		"threshold", t.threshold.String())
}
