package sysmon

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/stream"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// capture collects pushed rows per stream.
type capture struct {
	mu   sync.Mutex
	rows map[string][]types.Row
}

func newCapture() *capture { return &capture{rows: map[string][]types.Row{}} }

func (c *capture) push(stream string, rows []types.Row) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rows[stream] = append(c.rows[stream], rows...)
	return nil
}

func (c *capture) count(stream string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.rows[stream])
}

func testConfig(cap *capture, reg *metrics.Registry) Config {
	return Config{
		Gather:   reg.Gather,
		Stats:    func() stream.Stats { return stream.Stats{} },
		Spans:    func() []trace.Span { return nil },
		ReplInfo: func() (string, uint64) { return "", 0 },
		Push:     cap.push,
		Metrics:  reg,
	}
}

func TestTickPushesMetricRows(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("streamrel_test_events_total", "events").Add(7)
	reg.Gauge("streamrel_test_depth", "depth").Set(3)
	h := reg.Histogram("streamrel_test_lat_seconds", "latency", nil)
	h.Observe(0.01)
	h.Observe(0.02)

	cap := newCapture()
	m := New(testConfig(cap, reg))
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	byName := map[string]types.Row{}
	for _, r := range cap.rows[StreamMetrics] {
		byName[r[1].Str()] = r
	}
	// Counter and gauge: one row each, kind tagged.
	if r, ok := byName["streamrel_test_events_total"]; !ok || r[3].Str() != "counter" || r[4].Float() != 7 {
		t.Errorf("counter row = %v", r)
	}
	if r, ok := byName["streamrel_test_depth"]; !ok || r[3].Str() != "gauge" || r[4].Float() != 3 {
		t.Errorf("gauge row = %v", r)
	}
	// Histogram: flattened to _count/_sum/_p50/_p95/_p99.
	for _, suffix := range []string{"_count", "_sum", "_p50", "_p95", "_p99"} {
		if _, ok := byName["streamrel_test_lat_seconds"+suffix]; !ok {
			t.Errorf("histogram row %s missing", suffix)
		}
	}
	if byName["streamrel_test_lat_seconds_count"][4].Float() != 2 {
		t.Errorf("histogram _count = %v", byName["streamrel_test_lat_seconds_count"][4])
	}
	// The monitor's own series are in the registry, hence in the feed next
	// tick — but this tick's rows must not include this tick's snapshot
	// counter increment (gather-before-push).
	if r, ok := byName["streamrel_sysmon_snapshots_total"]; ok && r[4].Float() != 0 {
		t.Errorf("sys.metrics row observed its own snapshot: %v", r)
	}
}

func TestTickLabelsColumn(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("streamrel_test_rows_total", "rows", metrics.L("stream", "s")).Add(4)
	cap := newCapture()
	m := New(testConfig(cap, reg))
	if err := m.Tick(); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range cap.rows[StreamMetrics] {
		if r[1].Str() == "streamrel_test_rows_total" {
			found = true
			if want := `{stream="s"}`; r[2].Str() != want {
				t.Errorf("labels column = %q, want %q", r[2].Str(), want)
			}
		}
	}
	if !found {
		t.Fatal("labeled counter not in sys.metrics rows")
	}
}

func TestPipelineRows(t *testing.T) {
	st := stream.Stats{PerPipeline: []stream.PipelineStats{
		{Stream: "a", ID: 1, Strategy: "reexec", WindowsFired: 3, RowsSeen: 30},
		{Stream: "b", ID: 2, Strategy: "incremental", QueueDepth: 5},
		{Stream: "c", ID: 3, Strategy: "incremental", PlanShared: true},
	}}
	rows := pipelineRows(st)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if mode := rows[0][6].Str(); mode != "reexec" {
		t.Errorf("mode[0] = %q", mode)
	}
	if mode := rows[1][6].Str(); mode != "incremental" {
		t.Errorf("mode[1] = %q", mode)
	}
	if mode := rows[2][6].Str(); mode != "incremental+plan" {
		t.Errorf("mode[2] = %q", mode)
	}
	if rows[1][5].Int() != 5 {
		t.Errorf("queue_depth = %v", rows[1][5])
	}
}

func TestSlowFireDedup(t *testing.T) {
	spans := []trace.Span{
		{Trace: 1, Stage: "window-fire", Start: 100, Slow: true},
		{Trace: 2, Stage: "window-fire", Start: 200, Slow: true},
		{Trace: 3, Stage: "window-fire", Start: 300, Slow: false}, // not slow
	}
	rows, hw := slowFireRows(spans, 0)
	if len(rows) != 2 || hw != 200 {
		t.Fatalf("first pass: rows=%d hw=%d", len(rows), hw)
	}
	// Second pass with one new slow span: only it is emitted.
	spans = append(spans, trace.Span{Trace: 4, Stage: "window-fire", Start: 400, Slow: true})
	rows, hw = slowFireRows(spans, hw)
	if len(rows) != 1 || hw != 400 {
		t.Fatalf("second pass: rows=%d hw=%d", len(rows), hw)
	}
	if rows[0][1].Str() != trace.FormatID(4) {
		t.Errorf("wrong span emitted: %v", rows[0])
	}
}

func TestReplRows(t *testing.T) {
	if rows := replRows(func() (string, uint64) { return "", 0 }, nil); rows != nil {
		t.Fatalf("role-less node should emit nothing, got %v", rows)
	}
	samples := []*metrics.Sample{
		{Name: "streamrel_repl_lag_lsn", Value: 12},
		{Name: "streamrel_repl_lag_seconds", Value: 0.25},
	}
	rows := replRows(func() (string, uint64) { return "replica", 90 }, samples)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r[1].Str() != "replica" || r[2].Int() != 90 || r[3].Float() != 12 || r[4].Float() != 0.25 {
		t.Errorf("repl row = %v", r)
	}
}

func TestTickErrorCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("streamrel_test_total", "x").Inc()
	cfg := testConfig(newCapture(), reg)
	cfg.Push = func(string, []types.Row) error { return fmt.Errorf("closed") }
	m := New(cfg)
	if err := m.Tick(); err == nil {
		t.Fatal("want push error")
	}
	var errs float64
	for _, s := range reg.Gather() {
		if s.Name == "streamrel_sysmon_errors_total" {
			errs = s.Value
		}
	}
	if errs != 1 {
		t.Fatalf("errors counter = %v", errs)
	}
}

func TestStartStopLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	cap := newCapture()
	cfg := testConfig(cap, reg)
	cfg.Interval = time.Millisecond
	m := New(cfg)
	m.Start()
	deadline := time.Now().Add(5 * time.Second)
	for cap.count(StreamMetrics) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if cap.count(StreamMetrics) == 0 {
		t.Fatal("ticker never pushed")
	}
	m.Stop()
	m.Stop() // idempotent
	n := cap.count(StreamMetrics)
	time.Sleep(10 * time.Millisecond)
	if cap.count(StreamMetrics) != n {
		t.Fatal("ticker still pushing after Stop")
	}

	// Stop before Start must not hang; Start after Stop is a no-op.
	m2 := New(cfg)
	m2.Stop()
	m2.Start()
}
