package streamrel

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"streamrel/internal/trace"
)

// openTrace opens an engine for the tracing tests, failing the test on error.
func openTrace(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// stagesByTrace groups the recorded span stages by trace ID.
func stagesByTrace(spans []TraceSpan) map[uint64]map[trace.Stage]bool {
	out := make(map[uint64]map[trace.Stage]bool)
	for _, s := range spans {
		m := out[s.Trace]
		if m == nil {
			m = make(map[trace.Stage]bool)
			out[s.Trace] = m
		}
		m[s.Stage] = true
	}
	return out
}

// traceWithStages returns a trace ID whose span set covers every want stage.
func traceWithStages(spans []TraceSpan, want ...trace.Stage) (uint64, bool) {
	for id, stages := range stagesByTrace(spans) {
		ok := true
		for _, st := range want {
			if !stages[st] {
				ok = false
				break
			}
		}
		if ok {
			return id, true
		}
	}
	return 0, false
}

// driveOneWindow creates a stream + CQ, pushes rows, and closes one window.
func driveOneWindow(t *testing.T, e *Engine, rows int) {
	t.Helper()
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, err := e.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	base := MustTimestamp("2009-01-04 00:00:00")
	for i := 0; i < rows; i++ {
		if err := e.Append("s", Row{Int(int64(i)), Timestamp(base.Add(time.Duration(i) * time.Second))}); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTime("s", base.Add(2*time.Minute))
	if _, ok := cq.Next(); !ok {
		t.Fatal("CQ produced no window")
	}
	cq.Close()
}

// TestTraceChain is the acceptance check: a sampled batch yields one
// queryable span chain ingest -> enqueue -> pickup -> window-fire ->
// cq-deliver, the same whoever drains the mailbox — the appending
// goroutine (ParallelCQ 0) or the scheduler pool.
func TestTraceChain(t *testing.T) {
	for name, cfg := range map[string]Config{
		"depth0": {TraceSampleEvery: 1},
		"depth2": {TraceSampleEvery: 1, ParallelCQ: 2, StateOverride: StatePrivate},
	} {
		t.Run(name, func(t *testing.T) {
			e := openTrace(t, cfg)
			defer e.Close()
			driveOneWindow(t, e, 3)

			spans := e.Traces()
			if len(spans) == 0 {
				t.Fatal("no spans recorded with TraceSampleEvery=1")
			}
			id, ok := traceWithStages(spans,
				trace.StageIngest, trace.StageEnqueue, trace.StagePickup,
				trace.StageWindowFire, trace.StageCQDeliver)
			if !ok {
				t.Fatalf("no trace covers ingest/enqueue/pickup/window-fire/cq-deliver; spans: %+v", spans)
			}
			for _, s := range spans {
				if s.Trace == id && s.Stage == trace.StageIngest && s.Start == 0 {
					t.Fatal("ingest span missing start timestamp")
				}
			}

			// Trace counters flow through the shared metrics registry.
			g := gatherMap(e)
			if smp := g["streamrel_traces_sampled_total"]; smp == nil || smp.Value < 1 {
				t.Fatalf("streamrel_traces_sampled_total missing or zero: %+v", smp)
			}
			if smp := g["streamrel_trace_ring_spans"]; smp == nil || smp.Value < 5 {
				t.Fatalf("streamrel_trace_ring_spans missing or < 5: %+v", smp)
			}
		})
	}
}

// TestTraceWALSpans checks channel writes carry the batch's trace into the
// WAL append + fsync spans.
func TestTraceWALSpans(t *testing.T) {
	e := openTrace(t, Config{Dir: t.TempDir(), SyncWAL: true, TraceSampleEvery: 1})
	defer e.Close()
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, e, `CREATE STREAM s_now AS
		SELECT count(*) AS n, cq_close(*) FROM s <ADVANCE '1 minute'>`)
	mustExec(t, e, `CREATE TABLE s_archive (n bigint, stime timestamp)`)
	mustExec(t, e, `CREATE CHANNEL s_ch FROM s_now INTO s_archive APPEND`)

	base := MustTimestamp("2009-01-04 00:00:00")
	for i := 0; i < 3; i++ {
		if err := e.Append("s", Row{Int(int64(i)), Timestamp(base.Add(time.Duration(i) * time.Second))}); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTime("s", base.Add(2*time.Minute))

	if _, ok := traceWithStages(e.Traces(),
		trace.StageIngest, trace.StageWindowFire, trace.StageWALAppend, trace.StageWALFsync); !ok {
		t.Fatalf("no trace covers ingest -> window-fire -> wal-append -> wal-fsync; spans: %+v", e.Traces())
	}

	// A batch is one record in the log; its spans still count its rows and
	// name its table.
	mustExec(t, e, `CREATE TABLE raw (v bigint, at timestamp)`)
	mustExec(t, e, `CREATE CHANNEL raw_ch FROM s INTO raw APPEND`)
	at := base.Add(3 * time.Minute)
	if err := e.Append("s", Row{Int(7), Timestamp(at)}, Row{Int(8), Timestamp(at)}, Row{Int(9), Timestamp(at)}); err != nil {
		t.Fatal(err)
	}
	stages := map[trace.Stage]bool{}
	for _, sp := range e.Traces() {
		if sp.Stream == "raw" && sp.Rows == 3 {
			stages[sp.Stage] = true
		}
	}
	if !stages[trace.StageWALAppend] || !stages[trace.StageWALFsync] {
		t.Fatalf("no wal-append and wal-fsync span of 3 rows into raw; spans: %+v", e.Traces())
	}
}

// TestSlowFireForcedTrace checks slow fires bypass sampling: with sampling
// effectively off, a fire over the threshold still gets a trace ID, Slow
// spans, a counter bump, and a structured log line.
func TestSlowFireForcedTrace(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&mu, &buf}, nil))
	e := openTrace(t, Config{
		TraceSampleEvery:  1 << 30, // never sample in this test
		SlowFireThreshold: time.Nanosecond,
		Logger:            logger,
	})
	defer e.Close()
	driveOneWindow(t, e, 2)

	slow := false
	for _, s := range e.Traces() {
		if s.Stage == trace.StageWindowFire && s.Slow && s.Trace != 0 {
			slow = true
		}
	}
	if !slow {
		t.Fatalf("no Slow window-fire span with a forced trace ID; spans: %+v", e.Traces())
	}
	if smp := gatherMap(e)["streamrel_slow_fires_total"]; smp == nil || smp.Value < 1 {
		t.Fatalf("streamrel_slow_fires_total missing or zero: %+v", smp)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "slow window fire") {
		t.Fatalf("slow-fire log line missing; got %q", logged)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestTracingDisabled checks a negative sample rate turns tracing off
// entirely without breaking the pipeline.
func TestTracingDisabled(t *testing.T) {
	e := openTrace(t, Config{TraceSampleEvery: -1})
	defer e.Close()
	if e.Tracer() != nil {
		t.Fatal("tracer built despite negative TraceSampleEvery")
	}
	driveOneWindow(t, e, 3)
	if spans := e.Traces(); len(spans) != 0 {
		t.Fatalf("disabled tracer recorded %d spans", len(spans))
	}
}

// TestTraceConcurrentReads races concurrent appends against Traces()
// snapshots (run under -race).
func TestTraceConcurrentReads(t *testing.T) {
	e := openTrace(t, Config{TraceSampleEvery: 1, ParallelCQ: 2, StateOverride: StatePrivate,
		LateRows: LateClamp, TraceRingSpans: 256})
	defer e.Close()
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, err := e.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 second'>`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	go func() {
		for {
			if _, ok := cq.Next(); !ok {
				return
			}
		}
	}()

	base := MustTimestamp("2009-01-04 00:00:00")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ts := base.Add(time.Duration(w*100+i) * 10 * time.Millisecond)
				if err := e.Append("s", Row{Int(int64(i)), Timestamp(ts)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			e.AdvanceTime("s", base.Add(time.Minute))
			if len(e.Traces()) == 0 {
				t.Fatal("no spans recorded during concurrent load")
			}
			return
		default:
			e.Traces()
		}
	}
}
