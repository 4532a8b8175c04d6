// Package streamrel is a stream-relational database engine: a from-scratch
// Go reproduction of the system described in "Continuous Analytics:
// Rethinking Query Processing in a Network-Effect World" (Franklin,
// Krishnamurthy, Conway, Li, Russakovsky, Thombre — CIDR 2009).
//
// The engine runs SQL over tables, streams, and combinations of the two.
// Streams are ordered unbounded relations declared with CREATE STREAM;
// window clauses (<VISIBLE '5 minutes' ADVANCE '1 minute'>) turn queries
// over them into continuous queries that evaluate incrementally as data
// arrives — before it is stored. Derived streams (CREATE STREAM … AS) run
// always-on; channels (CREATE CHANNEL … FROM … INTO …) archive their
// results into ordinary SQL tables, which become continuously maintained
// Active Tables that snapshot queries read with ordinary SELECTs.
//
// Quick start:
//
//	eng, _ := streamrel.Open(streamrel.Config{})
//	defer eng.Close()
//	eng.Exec(`CREATE STREAM url_stream (
//	            url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
//	cq, _ := eng.Subscribe(`SELECT url, count(*) FROM url_stream
//	                        <VISIBLE '5 minutes' ADVANCE '1 minute'>
//	                        GROUP BY url`)
//	eng.Exec(`INSERT INTO url_stream VALUES ('/home', timestamp '2009-01-04 09:00:30', '10.0.0.1')`)
//	eng.AdvanceTime("url_stream", mustTS("2009-01-04 09:06:00"))
//	batch, _ := cq.TryNext() // the first window's rows
package streamrel

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/catalog"
	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/metrics"
	"streamrel/internal/plan"
	"streamrel/internal/repl"
	"streamrel/internal/sql"
	"streamrel/internal/stream"
	"streamrel/internal/sysmon"
	"streamrel/internal/trace"
	"streamrel/internal/txn"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// Re-exported value types so callers never import internal packages.
type (
	// Value is a single SQL value.
	Value = types.Datum
	// Row is a tuple of values.
	Row = types.Row
	// Column describes one output or schema column.
	Column = types.Column
	// Schema is an ordered column list.
	Schema = types.Schema
)

// Value constructors.
var (
	// Null is the SQL NULL value.
	Null = types.Null
)

// Int returns an integer value.
func Int(v int64) Value { return types.NewInt(v) }

// Float returns a floating-point value.
func Float(v float64) Value { return types.NewFloat(v) }

// String returns a string value.
func String(v string) Value { return types.NewString(v) }

// Bool returns a boolean value.
func Bool(v bool) Value { return types.NewBool(v) }

// Timestamp returns a timestamp value.
func Timestamp(t time.Time) Value { return types.NewTimestamp(t) }

// Interval returns an interval value.
func Interval(d time.Duration) Value { return types.NewInterval(d) }

// LateRowPolicy mirrors the runtime's disorder policies.
type LateRowPolicy uint8

// Late-row policies for Config.LateRows.
const (
	// LateReject returns an error on out-of-order input (default).
	LateReject LateRowPolicy = iota
	// LateDrop silently discards late rows (counted in Stats).
	LateDrop
	// LateClamp advances late rows to the stream's high-water mark.
	LateClamp
)

// StateOverride is the type of Config.StateOverride.
type StateOverride = plan.StateOverride

// Values of Config.StateOverride.
const (
	StateAuto    = plan.StateAuto
	StateReexec  = plan.StateReexec
	StatePrivate = plan.StatePrivate
)

// Config controls engine behaviour.
type Config struct {
	// Dir is the data directory for the write-ahead log and checkpoints.
	// Empty means fully in-memory (no durability) — convenient for tests
	// and benchmarks.
	Dir string
	// SyncWAL fsyncs every committed batch. Off by default; crash-safety
	// tests and production deployments turn it on.
	SyncWAL bool
	// StateOverride replaces the engine's own choice of window state, for
	// ablations and tests; production configurations leave it zero.
	// Automatically, a continuous query that is a filter/group-by aggregate
	// over one time-windowed stream attaches to the materialized
	// slice-partial store of its (stream, fingerprint, ADVANCE, VISIBLE mod
	// ADVANCE), and anything else re-executes its plan over the rows a raw
	// store of its own keeps (DESIGN.md "Window state"). StateReexec makes
	// every CQ re-execute (the equivalence oracle; E3's baseline),
	// StatePrivate gives each CQ a store of its own (N independent
	// pipelines: the BenchmarkFanout*/BenchmarkIngest* loops).
	StateOverride StateOverride
	// LateRows chooses what happens to out-of-order stream input:
	// reject (default), drop, or clamp to the high-water mark.
	LateRows LateRowPolicy
	// ParallelCQ chooses who drains the continuous queries' mailboxes.
	// 0 (default): the goroutine that appended, before Append returns —
	// no goroutines, fully deterministic. n > 0: a pool of GOMAXPROCS
	// workers sharing one run queue, each mailbox bounded at n micro-batches
	// (blocking backpressure on producers), so fan-out to N CQs scales
	// across cores without N goroutines. Per-CQ results are identical
	// either way; see DESIGN.md "Execution model" for the cross-CQ
	// ordering a pool relaxes.
	ParallelCQ int
	// Replicate enables the replication hub: every committed WAL batch
	// and stream event gets a monotonic LSN and is retained in a bounded
	// in-memory ring for replicas (see internal/repl and DESIGN.md
	// §replication). Off by default — publishing costs a mutex per commit
	// even with no replicas connected.
	Replicate bool
	// Metrics is the registry engine subsystems (stream runtime, WAL,
	// checkpoints) register their series in. Nil creates a private
	// registry, reachable via Engine.Metrics() — share one registry
	// across engines (or with a server) by setting it here.
	Metrics *MetricsRegistry
	// TraceSampleEvery controls end-to-end event tracing: one in N
	// ingested batches gets a trace ID followed through every hop (see
	// internal/trace). 0 samples at the default rate (1/256), 1 traces
	// every batch, negative disables tracing entirely.
	TraceSampleEvery int
	// SlowFireThreshold force-records (and logs, via Logger) any window
	// fire whose push-to-fire latency exceeds it, regardless of sampling.
	// 0 disables slow-fire detection.
	SlowFireThreshold time.Duration
	// TraceRingSpans caps the completed-span ring; 0 uses the default
	// (4096 spans).
	TraceRingSpans int
	// SysMonInterval enables self-observability: the engine creates the
	// reserved sys.* telemetry streams (sys.metrics, sys.pipelines,
	// sys.slow_fires, sys.repl) and snapshots its metrics registry,
	// pipeline counters, slow-fire events and replication position into
	// them every interval — so a CQ over sys.metrics is a live alerting
	// rule. The streams are ephemeral (no WAL, no replication) and their
	// ingest is excluded from user-facing counters, tracing, and the
	// replication hub, so telemetry never feeds back into itself. 0
	// (default) disables sysmon entirely; a negative interval creates the
	// streams but snapshots only on explicit SysSnapshot calls (tests).
	SysMonInterval time.Duration
	// Logger receives structured engine logs (the slow-fire log). Nil
	// uses slog.Default().
	Logger *slog.Logger
	// Now overrides the wall clock (for now() and tests).
	Now func() time.Time
}

// MetricsRegistry aliases the engine's metrics registry so callers can
// gather snapshots or serve /metrics without importing internal packages.
type MetricsRegistry = metrics.Registry

// Engine is a stream-relational database instance.
type Engine struct {
	// mu serializes DDL against everything else, and with gate — which every
	// transaction's log-and-commit holds shared, pool workers' included — is
	// the exclusive section of Engine.cut; readers and writers take RLock.
	mu, gate sync.RWMutex

	cfg     Config
	cat     *catalog.Catalog
	mgr     *txn.Manager
	rt      *stream.Runtime
	planner *plan.Planner
	log     *wal.Log // nil when in-memory
	reg     *metrics.Registry
	tracer  *trace.Tracer // nil when tracing is disabled

	// hub publishes committed batches and stream events to replicas;
	// nil unless Config.Replicate.
	hub *repl.Primary
	// unfused counts, by reason, the base-stream channel batches that did not
	// travel as one KindArchive event (channelWrite); nil without a hub.
	unfused [3]*metrics.Counter
	// replicaMode rejects user writes while this engine applies a
	// primary's events; prevLate restores the late policy on Promote.
	replicaMode atomic.Bool
	prevLate    stream.LatePolicy
	// mark is this engine's resume point as a replica, a wal.RecMark record
	// (zero: none), written and read under mu; applying is the mark of the
	// event ApplyReplicatedAt is applying, that goroutine's alone.
	mark, applying wal.Record
	// applyScratch is the transaction ApplyReplicated* apply events in.
	applyScratch writeScratch
	// gen is the generation of the newest checkpoint (0: none), which the log
	// was begun after; under mu.
	gen uint64

	// checkpointHist observes Checkpoint durations.
	checkpointHist *metrics.Histogram

	// ddlLog records successful DDL statements in order; checkpoints
	// serialize it so objects are recreated in dependency order.
	ddlLog []string
	// derivedPipes maps derived stream name → its always-on pipeline.
	derivedPipes map[string]*stream.Pipeline
	// channelTaps maps channel name → detach function.
	channelTaps map[string]func()

	// sysmon snapshots telemetry into the sys.* streams; nil unless
	// Config.SysMonInterval is non-zero.
	sysmon *sysmon.Monitor

	// plans keeps snapshot queries planned, by statement text.
	plans planCache

	closed bool
}

// Open creates or recovers an engine.
func Open(cfg Config) (*Engine, error) {
	e := &Engine{
		cfg:          cfg,
		cat:          catalog.New(),
		mgr:          txn.NewManager(),
		derivedPipes: make(map[string]*stream.Pipeline),
		channelTaps:  make(map[string]func()),
	}
	e.reg = cfg.Metrics
	if e.reg == nil {
		e.reg = metrics.NewRegistry()
	}
	e.rt = stream.NewRuntime(e.mgr, cfg.StateOverride, cfg.Now)
	e.rt.SetMetrics(e.reg)
	e.rt.Late = stream.LatePolicy(cfg.LateRows)
	e.rt.SetParallel(cfg.ParallelCQ)
	if cfg.TraceSampleEvery >= 0 {
		e.tracer = trace.New(trace.Options{
			SampleEvery: cfg.TraceSampleEvery,
			SlowFire:    cfg.SlowFireThreshold,
			RingSpans:   cfg.TraceRingSpans,
			Metrics:     e.reg,
			Logger:      cfg.Logger,
		})
		e.rt.SetTracer(e.tracer)
	}
	e.planner = &plan.Planner{Cat: e.cat}
	e.checkpointHist = e.reg.Histogram("streamrel_checkpoint_seconds",
		"duration of checkpoints (state dump + WAL truncate inside the cut, then reclaiming dead versions)", nil)

	fail := func(err error) (*Engine, error) {
		e.rt.Close() // stops the scheduler pool and any recovered pipelines
		return nil, err
	}
	if cfg.Dir != "" {
		start := time.Now()
		stale, err := e.recover()
		if err != nil {
			return fail(err)
		}
		e.reg.Gauge("streamrel_recovery_replay_seconds",
			"duration of the last checkpoint+WAL replay and CQ resume").
			Set(time.Since(start).Seconds())
		log, err := wal.Open(e.walPath(), wal.Options{Sync: cfg.SyncWAL, Metrics: e.reg, Trace: e.tracer})
		if err != nil {
			return fail(err)
		}
		e.log = log
		if stale {
			if err := e.restartLog(); err != nil {
				log.Close()
				return fail(err)
			}
		}
	}
	if cfg.Replicate {
		e.initReplication()
	}
	if cfg.SysMonInterval != 0 {
		if err := e.initSysMon(); err != nil {
			return fail(err)
		}
	}
	return e, nil
}

// Metrics returns the engine's metrics registry: every subsystem's
// counters, gauges and latency histograms, gatherable as samples or
// renderable in the Prometheus text format.
func (e *Engine) Metrics() *MetricsRegistry { return e.reg }

// TraceSpan is one completed tracing hop; see internal/trace for the
// span model.
type TraceSpan = trace.Span

// TraceStage names one hop of a batch's journey; TraceSpan.Stage holds
// one of the Stage* constants below.
type TraceStage = trace.Stage

// Span stages, re-exported so embedders can match on TraceSpan.Stage
// without reaching into internal packages.
const (
	StageIngest       = trace.StageIngest
	StageEnqueue      = trace.StageEnqueue
	StagePickup       = trace.StagePickup
	StageWindowFire   = trace.StageWindowFire
	StageCQDeliver    = trace.StageCQDeliver
	StageWALAppend    = trace.StageWALAppend
	StageWALFsync     = trace.StageWALFsync
	StageReplicaApply = trace.StageReplicaApply
)

// Tracer returns the engine's event tracer, or nil when tracing is
// disabled (Config.TraceSampleEvery < 0).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// Traces returns the completed spans currently held in the trace ring,
// oldest first. Empty when tracing is disabled.
func (e *Engine) Traces() []TraceSpan { return e.tracer.Snapshot() }

func (e *Engine) walPath() string        { return filepath.Join(e.cfg.Dir, "wal.log") }
func (e *Engine) checkpointPath() string { return filepath.Join(e.cfg.Dir, "checkpoint") }

// Close shuts the engine down: pipeline mailboxes drain and stop (their
// channel writes still reach the WAL), then the log closes. In-flight
// continuous queries stop receiving batches. Close returns any
// asynchronous CQ failure that had not yet surfaced.
func (e *Engine) Close() error {
	// Stop the telemetry ticker before taking the engine lock: its ticks
	// push into the stream runtime under the read lock.
	if e.sysmon != nil {
		e.sysmon.Stop()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	rtErr := e.rt.Close()
	if e.log != nil {
		if err := e.log.Close(); err != nil {
			return err
		}
	}
	return rtErr
}

// Flush blocks until every CQ mailbox has drained all stream input
// appended before the call, then reports (and clears) any pipeline
// failures not yet surfaced. With ParallelCQ 0 each Append drains its own
// work and reports its own failures, so Flush returns at once. Call it
// before reading Active Tables or CQ queues that must reflect all pushed
// data.
func (e *Engine) Flush() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rt.Quiesce()
}

// Result reports the effect of Exec.
type Result struct {
	// RowsAffected counts rows inserted, updated or deleted.
	RowsAffected int
	// Rows holds output for statements that return data (SHOW, EXPLAIN).
	Rows *Rows
}

// Rows is a fully materialized query result. Columns is the cached plan's
// own and the rows may be shared with the engine: read them, do not modify
// them.
type Rows struct {
	Columns Schema
	Data    []Row
}

// Exec parses and executes one statement: DDL, INSERT/UPDATE/DELETE, SHOW
// or EXPLAIN. SELECT goes through Query (snapshot) or Subscribe
// (continuous) instead.
func (e *Engine) Exec(sqlText string) (*Result, error) { return e.ExecArgs(sqlText) }

// ExecScript executes a semicolon-separated script, stopping at the first
// error.
func (e *Engine) ExecScript(script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	for _, s := range stmts {
		if _, err := e.Exec(s.Text); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) execStmt(stmt sql.Statement, sqlText string) (*Result, error) {
	switch stmt.(type) {
	case *sql.Show, *sql.Explain, *sql.Select:
	default: // every other statement writes
		if err := e.writeGate(); err != nil {
			return nil, err
		}
	}
	switch s := stmt.(type) {
	case *sql.CreateTable, *sql.CreateStream, *sql.CreateDerivedStream,
		*sql.CreateView, *sql.CreateChannel, *sql.CreateIndex, *sql.Drop:
		if n := sysDDLTarget(stmt); n != "" {
			return nil, errSysReserved(n)
		}
		return e.execDDL(stmt, sqlText, wal.Record{})
	case *sql.Insert:
		if isSysName(s.Table) {
			return nil, errSysReserved(s.Table)
		}
		return e.execInsert(s)
	case *sql.Update:
		return e.execUpdate(s)
	case *sql.Delete:
		return e.execDelete(s)
	case *sql.Truncate:
		return e.execDelete(&sql.Delete{Table: s.Table})
	case *sql.Show:
		return textResult(s.What, e.cat.Names(s.What)), nil
	case *sql.Explain:
		return e.execExplain(s)
	case *sql.Select:
		return nil, fmt.Errorf("streamrel: use Query for snapshot queries or Subscribe for continuous queries")
	}
	return nil, fmt.Errorf("streamrel: unsupported statement %T", stmt)
}

// textResult is a result of one text column, named col, holding lines.
func textResult(col string, lines []string) *Result {
	rows := make([]Row, len(lines))
	for i, l := range lines {
		rows[i] = Row{types.NewString(l)}
	}
	return &Result{Rows: &Rows{Columns: Schema{{Name: col, Type: types.TypeString}}, Data: rows}}
}

// Query runs a snapshot query (SQ): a SELECT over tables and views only.
// It executes against a fresh MVCC snapshot and terminates (paper §3.1).
func (e *Engine) Query(sqlText string) (*Rows, error) { return e.QueryArgs(sqlText) }

// QueryArgs runs a snapshot query with $1, $2, … placeholders bound to
// args. A statement is planned once per text and argument types; later calls
// re-open a tree built from that plan (DESIGN §11 "The plan cache").
func (e *Engine) QueryArgs(sqlText string, args ...Value) (*Rows, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.query(e.execCtx(), sqlText, args)
}

// ExecArgs executes a DML statement with $1, $2, … placeholders bound to
// args. (DDL does not take parameters.)
func (e *Engine) ExecArgs(sqlText string, args ...Value) (*Result, error) {
	stmt, err := sql.ParseArgs(sqlText, args)
	if err != nil {
		return nil, err
	}
	return e.execStmt(stmt, sqlText)
}

// query runs a snapshot SELECT under ctx with args: a tree of its cached
// plan, opened with args, or — when planning reads an argument's value (a
// LIMIT, a select-list position) — a plan of this call's own, the arguments
// bound into it. Callers hold e.mu.
func (e *Engine) query(ctx *exec.Ctx, sqlText string, args []Value) (*Rows, error) {
	gen := e.cat.Gen()
	ent := e.plans.get(sqlText, gen, args)
	if ent == nil {
		stmt, err := sql.ParseGeneric(sqlText, args)
		if err != nil {
			return nil, err
		}
		p, err := e.snapshotPlan(stmt)
		if errors.Is(err, expr.ErrUnbound) {
			if stmt, err = sql.ParseArgs(sqlText, args); err == nil {
				p, err = e.snapshotPlan(stmt)
			}
			ent = &cachedPlan{plan: p} // kept by no one: no idle trees
		} else if err == nil {
			ent = e.plans.put(sqlText, gen, args, p)
		}
		if err != nil {
			return nil, err
		}
	}
	var tree exec.Operator
	select {
	case tree = <-ent.idle:
	default:
		tree = ent.plan.Build(&plan.Input{})
	}
	ctx.Args = args
	rows, err := exec.Drain(ctx, tree, 0)
	select {
	case ent.idle <- tree:
	default:
	}
	if err != nil {
		return nil, err
	}
	return &Rows{Columns: ent.plan.Columns, Data: rows}, nil
}

// snapshotPlan plans stmt as a snapshot query.
func (e *Engine) snapshotPlan(stmt sql.Statement) (*plan.Plan, error) {
	sel, ok := stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("streamrel: Query takes a SELECT")
	}
	p, err := e.planner.BuildSelect(sel)
	if err != nil {
		return nil, err
	}
	if p.Stream != nil {
		return nil, fmt.Errorf("streamrel: query over stream %q never terminates; use Subscribe", p.Stream.Name)
	}
	return p, nil
}

// AdvanceTime delivers a heartbeat: the stream's clock moves to ts,
// closing any due windows even without new data.
func (e *Engine) AdvanceTime(streamName string, ts time.Time) error {
	if err := e.writeGate(); err != nil {
		return err
	}
	if isSysName(streamName) {
		// sys.* clocks advance only with the monitor's own stamped rows;
		// an external heartbeat could strand them past real arrival time.
		return errSysReserved(streamName)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rt.Advance(streamName, ts.UnixMicro())
}

// Append pushes rows into a stream — the fast ingestion path equivalent to
// INSERT INTO stream VALUES …. Rows must match the stream schema with
// non-decreasing CQTIME; on CQTIME SYSTEM streams the engine stamps
// arrival time itself.
func (e *Engine) Append(streamName string, rows ...Row) error {
	return e.AppendTraced(0, streamName, rows...)
}

// AppendTraced is Append with an externally assigned trace ID: a shard
// router that sampled a batch forwards its trace ID so the shard-side
// hops (enqueue, window fire, WAL fsync, …) join the router's span
// chain. traceID 0 lets the engine's own tracer sample as usual.
func (e *Engine) AppendTraced(traceID uint64, streamName string, rows ...Row) error {
	_, err := e.AppendBorrowed(traceID, streamName, rows)
	return err
}

// AppendBorrowed is AppendTraced for a caller that would reuse the rows' memory:
// kept false means nothing holds a row of them now — no mailbox still to apply
// them and no CQ whose window state keeps rows. A channel's table and the
// replication ring copy what they keep, so they never make a batch kept.
func (e *Engine) AppendBorrowed(traceID uint64, streamName string, rows []Row) (kept bool, err error) {
	if err := e.writeGate(); err != nil {
		return false, err
	}
	if isSysName(streamName) {
		return false, errSysReserved(streamName)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.push(e.tracer.Adopt(traceID), streamName, rows)
}

// push hands locally produced rows to the stream runtime (kept: AppendBorrowed).
// On a CQTIME SYSTEM stream the runtime overwrites each row's CQTIME column
// with a non-decreasing arrival timestamp from the engine clock, under the
// stream's own lock so stamp order is delivery order. Callers hold e.mu.
func (e *Engine) push(tc trace.Ctx, streamName string, rows []Row) (kept bool, err error) {
	var now func() time.Time
	if st, ok := e.cat.Stream(streamName); ok && st.SystemTime {
		if now = e.cfg.Now; now == nil {
			now = time.Now
		}
	}
	return e.rt.PushBatch(tc, streamName, rows, now)
}

// Checkpoint writes a checkpoint file, truncates the WAL and reclaims dead
// row versions. No-op for in-memory engines.
func (e *Engine) Checkpoint() error {
	if e.log == nil {
		return nil
	}
	start := time.Now()
	if err := e.checkpoint(); err != nil {
		return err
	}
	e.checkpointHist.ObserveSince(start)
	return nil
}

// MustTimestamp parses a timestamp literal or panics; a convenience for
// examples and tests.
func MustTimestamp(s string) time.Time {
	d, err := types.ParseTimestamp(s)
	if err != nil {
		panic(err)
	}
	return d.Time()
}
