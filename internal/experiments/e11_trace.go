package experiments

import (
	"fmt"
	"time"

	"streamrel"
	"streamrel/internal/workload"
)

// E11 measures end-to-end tracing overhead: the same k-CQ ingest workload
// with tracing disabled, at the default 1/256 batch sampling, and tracing
// every batch. The span pipeline is designed to be lock-cheap on the hot
// path (one atomic add per batch when unsampled), so the default rate
// should cost well under 5% of ingest throughput; tracing every batch
// bounds the worst case.
func E11(s Scale) (*Table, error) {
	n := s.n(120_000)
	const k = 4
	const reps = 5
	t := &Table{
		ID:     "E11",
		Title:  "tracing overhead: ingest throughput vs span sample rate",
		Header: []string{"sampling", "ingest", "rate", "vs off"},
	}
	t.Metrics = map[string]float64{}

	run := func(sampleEvery int) (time.Duration, error) {
		eng, err := streamrel.Open(streamrel.Config{
			StateOverride:    streamrel.StatePrivate,
			TraceSampleEvery: sampleEvery,
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
		rows := workload.NewClickstream(workload.ClickConfig{Seed: 11, EventsPerSec: 400}).Take(n)
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
		label  string
		metric string
		every  int
	}{
		{"off", "off", -1},
		{"1/256 (default)", "default", 0},
		{"1/1 (every batch)", "every", 1},
	}
	// Interleave the configs round-robin and keep each config's best
	// rep: overhead this small is easily swamped by a single GC pause or
	// background load, and interleaving exposes every config to the same
	// machine conditions instead of measuring drift between phases.
	mins := make([]time.Duration, len(configs))
	for r := 0; r < reps; r++ {
		for i, c := range configs {
			d, err := run(c.every)
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
		t.Metrics[fmt.Sprintf("trace_%s_ingest_s", c.metric)] = d.Seconds()
		t.Metrics[fmt.Sprintf("trace_%s_rate_rows_per_s", c.metric)] = float64(n) / d.Seconds()
		if c.every >= 0 {
			t.Metrics[fmt.Sprintf("trace_%s_overhead_pct", c.metric)] = overhead
		}
		vs := "—"
		if c.every >= 0 {
			vs = fmt.Sprintf("%+.1f%%", overhead)
		}
		t.Rows = append(t.Rows, []string{c.label, fmtDur(d), fmtRate(n, d), vs})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d rows, %d unshared CQs, batches of 256, best of %d interleaved runs per config", n, k, reps),
		"unsampled batches still pay one atomic counter add and a timestamp; sampled batches record spans into a mutex-guarded ring",
		"true overhead sits at or below the run-to-run noise floor, so small negative percentages are expected")
	return t, nil
}
