package streamrel

import (
	"testing"
	"time"

	"streamrel/internal/metrics/metricstest"
)

// TestMetricNamingConventions audits every metric a fully wired engine
// registers against the repo-wide naming rules (metricstest.Audit) — across
// the stream runtime, WAL, replication hub, scheduler, tracer and the
// sysmon self-observability series.
func TestMetricNamingConventions(t *testing.T) {
	e := openTrace(t, Config{
		Dir:               t.TempDir(),
		SyncWAL:           true,
		Replicate:         true,
		ParallelCQ:        2,
		TraceSampleEvery:  1,
		SlowFireThreshold: time.Hour,
		SysMonInterval:    -1, // sys.* streams + sysmon series, no ticker
	})
	defer e.Close()
	// Exercise stream, CQ, channel and WAL paths so lazily registered
	// series exist before the audit.
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, e, `CREATE STREAM s_now AS
		SELECT count(*) AS n, cq_close(*) FROM s <ADVANCE '1 minute'>`)
	mustExec(t, e, `CREATE TABLE s_archive (n bigint, stime timestamp)`)
	mustExec(t, e, `CREATE CHANNEL s_ch FROM s_now INTO s_archive APPEND`)
	base := MustTimestamp("2009-01-04 00:00:00")
	for i := 0; i < 5; i++ {
		if err := e.Append("s", Row{Int(int64(i)), Timestamp(base.Add(time.Duration(i) * time.Second))}); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTime("s", base.Add(2*time.Minute))
	if err := e.SysSnapshot(); err != nil {
		t.Fatal(err)
	}

	samples := e.Metrics().Gather()
	if len(samples) == 0 {
		t.Fatal("engine registered no metrics")
	}
	byName := metricstest.Audit(t, samples)

	// The pre-rename gauge aliases are gone: only the canonical
	// streamrel_stream_* names remain.
	for alias, canonical := range map[string]string{
		"streamrel_sources":   "streamrel_stream_sources",
		"streamrel_pipelines": "streamrel_stream_pipelines",
	} {
		if byName[alias] != nil {
			t.Errorf("deprecated alias %s is still registered; it was dropped in favor of %s", alias, canonical)
		}
		if byName[canonical] == nil {
			t.Errorf("canonical series %s not registered", canonical)
		}
	}

	// Spot-check each namespace: tracing, the scheduler pool,
	// plan-level sharing, the window-state store (s_now's scalar count fires
	// from one), the replication hub, and the sysmon
	// self-observability series (including the internal-source row counter
	// that keeps sys.* ingest out of streamrel_stream_rows_total).
	for _, name := range []string{
		"streamrel_traces_sampled_total",
		"streamrel_slow_fires_total",
		"streamrel_trace_ring_spans",
		"streamrel_sched_parks_total",
		"streamrel_sched_workers",
		"streamrel_sched_runnable",
		"streamrel_plan_groups",
		"streamrel_plan_subscribers",
		"streamrel_ivm_groups_touched_total",
		"streamrel_ivm_rows_carved_total",
		"streamrel_ivm_frames_made_total",
		"streamrel_repl_lsn",
		"streamrel_repl_connected_replicas",
		"streamrel_repl_events_total",
		"streamrel_repl_ring_events",
		"streamrel_repl_ring_bytes",
		"streamrel_repl_unfused_batches_total",
		"streamrel_sysmon_snapshots_total",
		"streamrel_sysmon_errors_total",
		"streamrel_sysmon_snapshot_seconds",
		"streamrel_sysmon_interval_seconds",
		"streamrel_sysmon_rows_total",
	} {
		if byName[name] == nil {
			t.Errorf("expected series %s not registered", name)
		}
	}
}
