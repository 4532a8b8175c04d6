package streamrel

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/workload"
)

// sysClockAt returns a Config.Now closure backed by a settable fake
// clock, so tests advance CQTIME SYSTEM arrival time deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock(start time.Time) *fakeClock { return &fakeClock{t: start} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// TestSysMetricsCQMatchesScrape is the acceptance check for the sysmon
// tentpole: a continuous query over sys.metrics fires with values that
// match a simultaneous registry scrape — the engine's own CQ machinery
// is the alerting rule. Counters, gauges and histograms alike: the window
// carries exactly metrics.Flatten of the scrape, so every value is finite
// (an empty histogram's quantile rows are absent, not NaN).
func TestSysMetricsCQMatchesScrape(t *testing.T) {
	clock := newFakeClock(MustTimestamp("2009-01-04 00:00:01"))
	e, err := Open(Config{SysMonInterval: -1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	mustExec(t, e, `CREATE STREAM u (v bigint, at timestamp CQTIME USER)`)
	cq, err := e.Subscribe(`SELECT name, labels, max(value) AS v, count(*) AS n FROM sys.metrics <ADVANCE '5 seconds'> GROUP BY name, labels`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()

	base := MustTimestamp("2009-01-04 00:00:00")
	for i := 0; i < 10; i++ {
		if err := e.Append("u", Row{Int(int64(i)), Timestamp(base)}); err != nil {
			t.Fatal(err)
		}
	}

	// Scrape and snapshot back to back: Tick gathers the registry before
	// pushing, so both observe the same states.
	scrape := map[string]float64{}
	histRows, emptyHists := 0, 0
	samples := e.Metrics().Gather()
	for _, s := range samples {
		if s.Kind == metrics.KindHistogram && s.Count == 0 {
			emptyHists++
		}
	}
	for _, p := range metrics.Flatten(samples) {
		scrape[p.Name+p.Labels] = p.Value
		if p.Kind == metrics.KindHistogram {
			histRows++
		}
	}
	if histRows == 0 || emptyHists == 0 {
		t.Fatalf("scrape has %d histogram rows and %d empty histograms; the test needs both", histRows, emptyHists)
	}
	if err := e.SysSnapshot(); err != nil {
		t.Fatal(err)
	}
	// A second snapshot past the 5s boundary closes the first window.
	clock.Set(MustTimestamp("2009-01-04 00:00:07"))
	if err := e.SysSnapshot(); err != nil {
		t.Fatal(err)
	}

	b, ok := cq.Next()
	if !ok {
		t.Fatal("sys.metrics CQ closed without a batch")
	}
	got := map[string]float64{}
	for _, r := range b.Rows {
		id, v := r[0].Str()+r[1].Str(), r[2].Float()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: sys.metrics carries non-finite value %v", id, v)
		}
		if r[3].Int() != 1 {
			t.Errorf("%s: %d rows in one snapshot", id, r[3].Int())
		}
		got[id] = v
	}
	if len(got) != len(scrape) {
		t.Errorf("window carries %d series, flattened scrape %d", len(got), len(scrape))
	}
	for id, want := range scrape {
		if v, ok := got[id]; !ok || v != want {
			t.Errorf("%s: CQ value %v (present %v), scrape %v", id, v, ok, want)
		}
	}
	if got[`streamrel_stream_rows_total{stream="u"}`] != 10 {
		t.Errorf("streamrel_stream_rows_total through the CQ = %v, want 10", got[`streamrel_stream_rows_total{stream="u"}`])
	}
}

// TestSysmonNoFeedbackLoop is the anti-amplification regression: rows
// the monitor pushes into sys.* streams must not count in the
// user-facing ingest counters it snapshots, and successive snapshots
// must converge to a constant row count per tick instead of growing.
func TestSysmonNoFeedbackLoop(t *testing.T) {
	clock := newFakeClock(MustTimestamp("2009-01-04 00:00:00"))
	e, err := Open(Config{SysMonInterval: -1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	sysmonRows := func() float64 {
		total := 0.0
		for _, s := range e.Metrics().Gather() {
			switch s.Name {
			case "streamrel_stream_rows_total":
				for _, l := range s.Labels {
					if l.Key == "stream" && strings.HasPrefix(l.Value, "sys.") {
						t.Fatalf("sys stream %q counted in streamrel_stream_rows_total — telemetry feeds back into the signal it reports", l.Value)
					}
				}
			case "streamrel_sysmon_rows_total":
				total += s.Value
			}
		}
		return total
	}

	var deltas []float64
	prev := sysmonRows()
	for i := 0; i < 8; i++ {
		if err := e.SysSnapshot(); err != nil {
			t.Fatal(err)
		}
		cur := sysmonRows()
		deltas = append(deltas, cur-prev)
		prev = cur
	}
	if prev == 0 {
		t.Fatal("streamrel_sysmon_rows_total never moved; internal sources are not counted at all")
	}
	// The registry stops gaining series after the first snapshot, so the
	// per-tick row count must flatline: converging, not self-amplifying.
	for i := 2; i < len(deltas); i++ {
		if deltas[i] != deltas[1] {
			t.Fatalf("snapshot row counts did not converge: deltas=%v", deltas)
		}
	}
}

// TestSysNamespaceReserved locks down the sys.* namespace: user DDL, DML
// and time advancement are rejected, while reading (Subscribe, CHANNEL
// FROM) is allowed.
func TestSysNamespaceReserved(t *testing.T) {
	e, err := Open(Config{SysMonInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for _, stmt := range []string{
		`CREATE TABLE sys.notes (a bigint)`,
		`CREATE STREAM sys.custom (v bigint, at timestamp CQTIME USER)`,
		`CREATE STREAM sys.derived AS SELECT count(*) FROM sys.metrics <ADVANCE '1 minute'>`,
		`CREATE VIEW sys.v AS SELECT 1`,
		`DROP STREAM sys.metrics`,
		`INSERT INTO sys.metrics VALUES (now(), 'x', '', 'gauge', 1.0)`,
	} {
		if _, err := e.Exec(stmt); err == nil || !strings.Contains(err.Error(), "reserved sys namespace") {
			t.Errorf("%s: want reserved-namespace error, got %v", stmt, err)
		}
	}
	if err := e.Append("sys.metrics", Row{Timestamp(time.Now()), String("x"), String(""), String("gauge"), Float(1)}); err == nil {
		t.Error("Append to sys.metrics should be rejected")
	}
	if err := e.AdvanceTime("sys.metrics", time.Now()); err == nil {
		t.Error("AdvanceTime on sys.metrics should be rejected")
	}

	// Reading out is the supported direction: archive telemetry into a
	// user table through a channel.
	mustExec(t, e, `CREATE TABLE metrics_archive (n bigint, stime timestamp)`)
	mustExec(t, e, `CREATE STREAM agg AS SELECT count(*) AS n, cq_close(*) FROM sys.metrics <ADVANCE '1 minute'>`)
	mustExec(t, e, `CREATE CHANNEL arch FROM agg INTO metrics_archive APPEND`)
	if _, err := e.Subscribe(`SELECT count(*) FROM sys.pipelines <ADVANCE '1 minute'>`); err != nil {
		t.Errorf("Subscribe over sys.pipelines should work: %v", err)
	}

	// Channels must not write INTO the namespace.
	if _, err := e.Exec(`CREATE CHANNEL bad FROM agg INTO sys.metrics APPEND`); err == nil {
		t.Error("CREATE CHANNEL INTO sys.* should be rejected")
	}
}

// TestSysmonDisabledByDefault: a default engine has no sys.* streams and
// SysSnapshot reports the monitor is off.
func TestSysmonDisabledByDefault(t *testing.T) {
	e := openMem(t)
	if err := e.SysSnapshot(); err == nil || !strings.Contains(err.Error(), "disabled") {
		t.Fatalf("want disabled error, got %v", err)
	}
	if _, err := e.Subscribe(`SELECT count(*) FROM sys.metrics <ADVANCE '1 minute'>`); err == nil {
		t.Fatal("sys.metrics should not exist when sysmon is off")
	}
}

// TestSysSnapshotAllocs: a telemetry snapshot of an engine with four
// pipelines' series costs at most 400 allocations. A snapshot gathers the
// registry, the pipeline stats and the trace ring and appends a batch to
// each sys.* stream, so its cost follows the series, not the ingest rate;
// the ticker pays it once an interval.
func TestSysSnapshotAllocs(t *testing.T) {
	e, err := Open(Config{StateOverride: StatePrivate, SysMonInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
	for i := 0; i < 4; i++ {
		cq, err := e.Subscribe(fmt.Sprintf(`SELECT client_ip, count(*)
			FROM url_stream <VISIBLE 2000 ROWS ADVANCE 500 ROWS>
			WHERE url <> '/none%d' GROUP BY client_ip`, i))
		if err != nil {
			t.Fatal(err)
		}
		defer cq.Close()
	}
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 16, EventsPerSec: 400}).Take(4096)
	if err := e.Append("url_stream", rows...); err != nil {
		t.Fatal(err)
	}
	perSnapshot := testing.AllocsPerRun(50, func() {
		if err := e.SysSnapshot(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations a snapshot", perSnapshot)
	if perSnapshot > 400 && !racing {
		t.Fatalf("%.0f allocations a snapshot, want at most 400", perSnapshot)
	}
}

// TestSysStreamsEphemeral: sys.* rows never reach the WAL, so a durable
// engine restarts with empty telemetry streams but intact user data.
func TestSysStreamsEphemeral(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock(MustTimestamp("2009-01-04 00:00:00"))
	e, err := Open(Config{Dir: dir, SysMonInterval: -1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	mustExec(t, e, `INSERT INTO t VALUES (1)`)
	for i := 0; i < 3; i++ {
		if err := e.SysSnapshot(); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	e2, err := Open(Config{Dir: dir, SysMonInterval: -1, Now: clock.Now})
	if err != nil {
		t.Fatalf("reopen after sysmon snapshots: %v", err)
	}
	defer e2.Close()
	rows, err := e2.Query(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Data[0][0].Int(); n != 1 {
		t.Fatalf("user data lost across restart: count=%d", n)
	}
	// The streams exist again (recreated, not recovered) and accept
	// snapshots immediately.
	if err := e2.SysSnapshot(); err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeAlert: a CQ over sys.metrics delivers window results to a
// webhook — the paper's "monitoring is just another continuous query",
// with the sink as the pager.
func TestSubscribeAlert(t *testing.T) {
	type payload struct {
		Rule    string   `json:"rule"`
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
	}
	got := make(chan payload, 4)
	ws := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var p payload
		if err := json.NewDecoder(r.Body).Decode(&p); err != nil {
			t.Errorf("webhook payload: %v", err)
		}
		got <- p
	}))
	defer ws.Close()

	clock := newFakeClock(MustTimestamp("2009-01-04 00:00:01"))
	e, err := Open(Config{SysMonInterval: -1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rule := `SELECT name, max(value) AS v FROM sys.metrics <ADVANCE '5 seconds'> GROUP BY name`
	stop, err := e.SubscribeAlert(rule, ws.URL, ws.Client())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	if err := e.SysSnapshot(); err != nil {
		t.Fatal(err)
	}
	clock.Set(MustTimestamp("2009-01-04 00:00:07"))
	if err := e.SysSnapshot(); err != nil {
		t.Fatal(err)
	}

	select {
	case p := <-got:
		if p.Rule != rule {
			t.Errorf("alert rule = %q, want %q", p.Rule, rule)
		}
		if len(p.Rows) == 0 {
			t.Error("alert fired with no rows")
		}
		if len(p.Columns) != 2 || p.Columns[0] != "name" {
			t.Errorf("alert columns = %v", p.Columns)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no alert delivered")
	}

	// Delivery is counted.
	found := false
	for _, s := range e.Metrics().Gather() {
		if s.Name == "streamrel_sysmon_alerts_total" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Error("streamrel_sysmon_alerts_total did not count the delivery")
	}
}

// TestSysPipelinesSnapshot: sys.pipelines carries one row per live CQ
// with its fire mode.
func TestSysPipelinesSnapshot(t *testing.T) {
	clock := newFakeClock(MustTimestamp("2009-01-04 00:00:01"))
	e, err := Open(Config{SysMonInterval: -1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	mustExec(t, e, `CREATE STREAM u (v bigint, at timestamp CQTIME USER)`)
	ucq, err := e.Subscribe(`SELECT count(*) FROM u <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	defer ucq.Close()

	pcq, err := e.Subscribe(`SELECT source, count(*) AS n FROM sys.pipelines <ADVANCE '5 seconds'> GROUP BY source`)
	if err != nil {
		t.Fatal(err)
	}
	defer pcq.Close()

	if err := e.SysSnapshot(); err != nil {
		t.Fatal(err)
	}
	clock.Set(MustTimestamp("2009-01-04 00:00:07"))
	if err := e.SysSnapshot(); err != nil {
		t.Fatal(err)
	}

	b, ok := pcq.Next()
	if !ok {
		t.Fatal("sys.pipelines CQ closed")
	}
	seen := map[string]int64{}
	for _, r := range b.Rows {
		seen[r[0].Str()] = r[1].Int()
	}
	if seen["u"] == 0 {
		t.Fatalf("sys.pipelines window missing the CQ over u: %v", seen)
	}
}

// TestSysmonTickerLive exercises the background ticker end to end with a
// real (fast) interval — the streams fill without any manual ticks.
func TestSysmonTickerLive(t *testing.T) {
	e, err := Open(Config{SysMonInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var snaps float64
		for _, s := range e.Metrics().Gather() {
			if s.Name == "streamrel_sysmon_snapshots_total" {
				snaps = s.Value
			}
		}
		if snaps >= 3 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background sysmon ticker took no snapshots")
}
