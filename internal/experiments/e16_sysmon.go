package experiments

import (
	"fmt"
	"runtime"
	"time"

	"streamrel"
	"streamrel/internal/workload"
)

// E16 measures self-observability overhead: the same k-CQ ingest workload
// with sysmon off, at the production default 1-second snapshot interval,
// and at an aggressive 10ms interval (100 snapshots/s — two orders of
// magnitude denser than production, bounding the worst case). A snapshot
// gathers the whole metrics registry, the per-pipeline stats and the trace
// ring, then appends the rows through the internal sys.* path, so its cost
// scales with series count, not ingest rate; the default interval must
// stay within the ≤3% overhead claim. A second measurement pins
// allocations per snapshot (budget-gated in BENCH_budget.json).
func E16(s Scale) (*Table, error) {
	n := s.n(120_000)
	const k = 4
	const reps = 5
	t := &Table{
		ID:     "E16",
		Title:  "sysmon overhead: ingest throughput vs telemetry snapshot interval",
		Header: []string{"sysmon", "ingest", "rate", "vs off"},
	}
	t.Metrics = map[string]float64{}

	run := func(interval time.Duration) (time.Duration, error) {
		eng, err := streamrel.Open(streamrel.Config{
			StateOverride:  streamrel.StatePrivate,
			SysMonInterval: interval,
		})
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		if _, err := eng.Exec(`CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`); err != nil {
			return 0, err
		}
		var cqs []*streamrel.CQ
		for i := 0; i < k; i++ {
			cq, err := eng.Subscribe(fmt.Sprintf(`SELECT client_ip, count(*)
				FROM url_stream <VISIBLE 2000 ROWS ADVANCE 500 ROWS>
				WHERE url <> '/none%d' GROUP BY client_ip`, i))
			if err != nil {
				return 0, err
			}
			cqs = append(cqs, cq)
		}
		rows := workload.NewClickstream(workload.ClickConfig{Seed: 16, EventsPerSec: 400}).Take(n)
		start := time.Now()
		for off := 0; off < len(rows); off += 256 {
			end := off + 256
			if end > len(rows) {
				end = len(rows)
			}
			if err := eng.Append("url_stream", rows[off:end]...); err != nil {
				return 0, err
			}
		}
		if err := eng.Flush(); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		for _, cq := range cqs {
			cq.Close()
		}
		return elapsed, nil
	}

	configs := []struct {
		label    string
		metric   string
		interval time.Duration
	}{
		{"off", "off", 0},
		{"1s (default)", "default", time.Second},
		{"10ms (aggressive)", "aggressive", 10 * time.Millisecond},
	}
	// Interleave the configs round-robin and keep each config's best rep:
	// overhead this small is easily swamped by one GC pause, and
	// interleaving exposes every config to the same machine conditions
	// instead of measuring drift between phases.
	mins := make([]time.Duration, len(configs))
	for r := 0; r < reps; r++ {
		for i, c := range configs {
			d, err := run(c.interval)
			if err != nil {
				return nil, err
			}
			if mins[i] == 0 || d < mins[i] {
				mins[i] = d
			}
		}
	}
	off := mins[0]
	for i, c := range configs {
		d := mins[i]
		overhead := float64(d-off) / float64(off) * 100
		t.Metrics[fmt.Sprintf("sysmon_%s_ingest_s", c.metric)] = d.Seconds()
		t.Metrics[fmt.Sprintf("sysmon_%s_rate_rows_per_s", c.metric)] = float64(n) / d.Seconds()
		vs := "—"
		if c.interval > 0 {
			t.Metrics[fmt.Sprintf("sysmon_%s_overhead_pct", c.metric)] = overhead
			vs = fmt.Sprintf("%+.1f%%", overhead)
		}
		t.Rows = append(t.Rows, []string{c.label, fmtDur(d), fmtRate(n, d), vs})
	}

	// Allocations per snapshot, measured on a manual-tick engine with the
	// same schema and CQ fan-out so the registry holds a realistic series
	// population. Deterministic, hence budget-gateable where the overhead
	// percentage is noise-bound.
	allocs, err := sysmonAllocsPerSnapshot(k)
	if err != nil {
		return nil, err
	}
	t.Metrics["sysmon_allocs_per_snapshot"] = allocs
	t.Rows = append(t.Rows, []string{"allocs/snapshot", fmt.Sprintf("%.0f", allocs), "—", "—"})

	t.Notes = append(t.Notes,
		fmt.Sprintf("%d rows, %d unshared CQs, batches of 256, best of %d interleaved runs per config", n, k, reps),
		"a snapshot's cost scales with registry series count, not ingest rate; sys.* appends skip WAL, replication and tracing",
		"true overhead sits at or below the run-to-run noise floor, so small negative percentages are expected")
	return t, nil
}

// sysmonAllocsPerSnapshot measures heap allocations of one explicit
// SysSnapshot on an engine with k pipelines' worth of telemetry.
func sysmonAllocsPerSnapshot(k int) (float64, error) {
	eng, err := streamrel.Open(streamrel.Config{
		StateOverride:  streamrel.StatePrivate,
		SysMonInterval: -1, // sys.* streams live, ticks manual
	})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	if _, err := eng.Exec(`CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`); err != nil {
		return 0, err
	}
	for i := 0; i < k; i++ {
		cq, err := eng.Subscribe(fmt.Sprintf(`SELECT client_ip, count(*)
			FROM url_stream <VISIBLE 2000 ROWS ADVANCE 500 ROWS>
			WHERE url <> '/none%d' GROUP BY client_ip`, i))
		if err != nil {
			return 0, err
		}
		defer cq.Close()
	}
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 16, EventsPerSec: 400}).Take(4096)
	if err := eng.Append("url_stream", rows...); err != nil {
		return 0, err
	}
	// Warm the snapshot path, then measure the steady state: the
	// whole-process Mallocs delta over N snapshots.
	const warm, measured = 5, 50
	for i := 0; i < warm; i++ {
		if err := eng.SysSnapshot(); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < measured; i++ {
		if err := eng.SysSnapshot(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / measured, nil
}
