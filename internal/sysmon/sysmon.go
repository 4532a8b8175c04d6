// Package sysmon turns the engine's telemetry into data: a Monitor
// periodically snapshots the metrics registry, the stream runtime's
// pipeline counters, slow-fire trace events, and replication position into
// reserved engine-created sys.* streams. The engine's own CQ machinery
// then aggregates, windows and alerts on them — "everything is a
// continuous query", including watching the system itself (paper §2).
//
// The Monitor never touches engine internals directly: every input is an
// injected closure (Config), and output rows leave through Config.Push —
// the engine's internal append path, which stamps CQTIME SYSTEM arrival
// time and skips the WAL, replication, tracing and user-facing row
// counters (see stream.RegisterInternalSource), so telemetry about the
// system never amplifies the signals it reports.
package sysmon

import (
	"log/slog"
	"sync"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/stream"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// Reserved stream names. The engine creates these at Open when sysmon is
// enabled; user DDL/DML against the sys.* namespace is rejected.
const (
	StreamMetrics   = "sys.metrics"
	StreamPipelines = "sys.pipelines"
	StreamSlowFires = "sys.slow_fires"
	StreamRepl      = "sys.repl"
)

// DefaultInterval is the snapshot period streamreld's -sysmon flag
// defaults to.
const DefaultInterval = time.Second

// StreamDef describes one reserved telemetry stream. CQTimeCol is always
// 0 (the leading ts column, CQTIME SYSTEM — the engine stamps arrival).
type StreamDef struct {
	Name      string
	Schema    types.Schema
	CQTimeCol int
}

// Streams returns the reserved sys.* stream definitions in creation order.
func Streams() []StreamDef {
	ts := types.Column{Name: "ts", Type: types.TypeTimestamp}
	return []StreamDef{
		{Name: StreamMetrics, Schema: types.Schema{
			ts,
			{Name: "name", Type: types.TypeString},
			{Name: "labels", Type: types.TypeString},
			{Name: "kind", Type: types.TypeString},
			{Name: "value", Type: types.TypeFloat},
		}},
		// Column names avoid SQL keywords (stream, rows) so alert rules can
		// reference them unquoted.
		{Name: StreamPipelines, Schema: types.Schema{
			ts,
			{Name: "source", Type: types.TypeString},
			{Name: "pipeline", Type: types.TypeInt},
			{Name: "windows_fired", Type: types.TypeInt},
			{Name: "rows_seen", Type: types.TypeInt},
			{Name: "queue_depth", Type: types.TypeInt},
			{Name: "mode", Type: types.TypeString},
		}},
		{Name: StreamSlowFires, Schema: types.Schema{
			ts,
			{Name: "trace", Type: types.TypeString},
			{Name: "stage", Type: types.TypeString},
			{Name: "source", Type: types.TypeString},
			{Name: "pipeline", Type: types.TypeInt},
			{Name: "start_us", Type: types.TypeInt},
			{Name: "dur_ns", Type: types.TypeInt},
			{Name: "row_count", Type: types.TypeInt},
		}},
		{Name: StreamRepl, Schema: types.Schema{
			ts,
			{Name: "role", Type: types.TypeString},
			{Name: "last_lsn", Type: types.TypeInt},
			{Name: "lag_lsn", Type: types.TypeFloat},
			{Name: "lag_seconds", Type: types.TypeFloat},
		}},
	}
}

// Config wires a Monitor to its engine without importing it.
type Config struct {
	// Gather snapshots the metrics registry (metrics.Registry.Gather).
	Gather func() []*metrics.Sample
	// Stats snapshots the stream runtime's counters.
	Stats func() stream.Stats
	// Spans returns the completed trace-span ring (nil or empty when
	// tracing is off); the Monitor extracts newly seen slow fires.
	Spans func() []trace.Span
	// ReplInfo reports this node's replication role ("primary",
	// "replica", or "" when replication is off) and last LSN.
	ReplInfo func() (role string, lsn uint64)
	// Push appends stamped rows to one sys.* stream. It must route
	// through the engine's internal append path (CQTIME SYSTEM stamping,
	// no WAL, no replication publish).
	Push func(stream string, rows []types.Row) error
	// Now overrides the wall clock (tests); nil uses time.Now.
	Now func() time.Time
	// Interval is the snapshot period for Start; <= 0 means ticks happen
	// only via explicit Tick calls.
	Interval time.Duration
	// Metrics registers the Monitor's own series (snapshot count and
	// latency); nil skips registration.
	Metrics *metrics.Registry
	// Logger receives snapshot errors; nil uses slog.Default.
	Logger *slog.Logger
}

// Monitor periodically snapshots engine telemetry into sys.* streams.
type Monitor struct {
	cfg Config

	snapshots *metrics.Counter
	errors    *metrics.Counter
	dur       *metrics.Histogram

	// mu serializes ticks (the ticker goroutine and explicit Tick calls).
	mu sync.Mutex
	// lastSlowStart is the high-water Start of slow spans already
	// emitted, so each slow fire reaches sys.slow_fires once.
	lastSlowStart int64

	// lifeMu guards the Start/Stop state machine.
	lifeMu  sync.Mutex
	started bool
	stopped bool
	stop    chan struct{}
	done    chan struct{}
}

// New builds a Monitor. Call Start for periodic snapshots, or Tick for
// explicit ones (tests, REPL helpers).
func New(cfg Config) *Monitor {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	m := &Monitor{
		cfg:       cfg,
		snapshots: &metrics.Counter{},
		errors:    &metrics.Counter{},
		// dur stays nil without a registry (Histogram is nil-safe; the
		// zero value is not, its bucket slices are unallocated).
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if reg := cfg.Metrics; reg != nil {
		m.snapshots = reg.Counter("streamrel_sysmon_snapshots_total",
			"telemetry snapshots taken into sys.* streams")
		m.errors = reg.Counter("streamrel_sysmon_errors_total",
			"telemetry snapshots that failed to append")
		m.dur = reg.Histogram("streamrel_sysmon_snapshot_seconds",
			"duration of one telemetry snapshot (gather + append)", metrics.DefLatencyBuckets)
		reg.Gauge("streamrel_sysmon_interval_seconds",
			"configured snapshot interval (0 = manual ticks only)").
			Set(cfg.Interval.Seconds())
	}
	return m
}

// Start launches the ticker goroutine. No-op when Interval <= 0 or after
// Stop.
func (m *Monitor) Start() {
	m.lifeMu.Lock()
	defer m.lifeMu.Unlock()
	if m.started || m.stopped || m.cfg.Interval <= 0 {
		return
	}
	m.started = true
	go func() {
		defer close(m.done)
		t := time.NewTicker(m.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if err := m.Tick(); err != nil {
					m.cfg.Logger.Warn("sysmon snapshot failed", "err", err)
				}
			}
		}
	}()
}

// Stop halts the ticker and waits for its in-flight snapshot. Safe to
// call multiple times, and before Start.
func (m *Monitor) Stop() {
	m.lifeMu.Lock()
	if m.stopped {
		m.lifeMu.Unlock()
		return
	}
	m.stopped = true
	started := m.started
	m.lifeMu.Unlock()
	close(m.stop)
	if started {
		<-m.done
	}
}

// Tick takes one snapshot: gathers every input and appends the resulting
// rows to the sys.* streams. The registry gather happens first, so a
// sys.metrics row never observes the effects of its own snapshot.
func (m *Monitor) Tick() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	start := time.Now()
	samples := m.cfg.Gather()

	var firstErr error
	push := func(stream string, rows []types.Row) {
		if len(rows) == 0 {
			return
		}
		if err := m.cfg.Push(stream, rows); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	push(StreamMetrics, metricRows(samples))
	if m.cfg.Stats != nil {
		push(StreamPipelines, pipelineRows(m.cfg.Stats()))
	}
	if m.cfg.Spans != nil {
		rows, hw := slowFireRows(m.cfg.Spans(), m.lastSlowStart)
		m.lastSlowStart = hw
		push(StreamSlowFires, rows)
	}
	if m.cfg.ReplInfo != nil {
		push(StreamRepl, replRows(m.cfg.ReplInfo, samples))
	}

	m.snapshots.Inc()
	m.dur.ObserveSince(start)
	if firstErr != nil {
		m.errors.Inc()
	}
	return firstErr
}

// tsPlaceholder fills the CQTIME SYSTEM column; the engine's append path
// overwrites it with the stamped arrival time.
func tsPlaceholder() types.Datum { return types.NewTimestampMicros(0) }

// metricRows renders metrics.Flatten's view of the gathered samples as
// sys.metrics rows.
func metricRows(samples []*metrics.Sample) []types.Row {
	points := metrics.Flatten(samples)
	rows := make([]types.Row, len(points))
	for i, p := range points {
		rows[i] = types.Row{
			tsPlaceholder(),
			types.NewString(p.Name),
			types.NewString(p.Labels),
			types.NewString(p.Kind.String()),
			types.NewFloat(p.Value),
		}
	}
	return rows
}

// pipelineRows converts one runtime stats snapshot into sys.pipelines rows.
func pipelineRows(st stream.Stats) []types.Row {
	rows := make([]types.Row, 0, len(st.PerPipeline))
	for _, ps := range st.PerPipeline {
		mode := ps.Strategy
		if ps.PlanShared {
			mode += "+plan"
		}
		rows = append(rows, types.Row{
			tsPlaceholder(),
			types.NewString(ps.Stream),
			types.NewInt(ps.ID),
			types.NewInt(ps.WindowsFired),
			types.NewInt(ps.RowsSeen),
			types.NewInt(int64(ps.QueueDepth)),
			types.NewString(mode),
		})
	}
	return rows
}

// slowFireRows extracts slow spans newer than sinceStart, returning the
// rows and the new high-water Start. The span ring is small and scanned
// whole; ties on Start are deduped conservatively (a second slow span with
// the same Start as the high water may be skipped — acceptable for an
// alerting feed).
func slowFireRows(spans []trace.Span, sinceStart int64) ([]types.Row, int64) {
	var rows []types.Row
	hw := sinceStart
	for _, sp := range spans {
		if !sp.Slow || sp.Start <= sinceStart {
			continue
		}
		if sp.Start > hw {
			hw = sp.Start
		}
		rows = append(rows, types.Row{
			tsPlaceholder(),
			types.NewString(trace.FormatID(sp.Trace)),
			types.NewString(string(sp.Stage)),
			types.NewString(sp.Stream),
			types.NewInt(sp.Pipe),
			types.NewInt(sp.Start),
			types.NewInt(sp.Dur),
			types.NewInt(int64(sp.Rows)),
		})
	}
	return rows, hw
}

// replRows builds the sys.repl row: the node's role and LSN position, with
// lag read from the replica runner's gauges when present in the same
// registry (streamrel_repl_lag_lsn / streamrel_repl_lag_seconds).
func replRows(info func() (string, uint64), samples []*metrics.Sample) []types.Row {
	role, lsn := info()
	if role == "" {
		return nil
	}
	lagLSN, lagSec := 0.0, 0.0
	for _, s := range samples {
		switch s.Name {
		case "streamrel_repl_lag_lsn":
			lagLSN = s.Value
		case "streamrel_repl_lag_seconds":
			lagSec = s.Value
		}
	}
	return []types.Row{{
		tsPlaceholder(),
		types.NewString(role),
		types.NewInt(int64(lsn)),
		types.NewFloat(lagLSN),
		types.NewFloat(lagSec),
	}}
}
