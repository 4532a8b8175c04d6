package experiments

import (
	"fmt"
	"runtime"
	"time"

	"streamrel"
	"streamrel/internal/metrics"
	"streamrel/internal/workload"
)

// fireQuantiles pulls the streamrel_window_fire_seconds histogram out of
// a run's registry and returns its p50/p95/p99 in seconds. These measure
// push-to-fire latency: the clock starts when a window-close task begins
// on the pushing (or worker) goroutine and stops when the batch reaches
// the subscriber.
func fireQuantiles(reg *metrics.Registry) (p50, p95, p99 float64, ok bool) {
	for _, s := range reg.Gather() {
		if s.Name == "streamrel_window_fire_seconds" && s.Count > 0 {
			return s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99), true
		}
	}
	return 0, 0, 0, false
}

// E9 measures parallel CQ fan-out: k distinct continuous queries over one
// stream, ingested by the synchronous engine (every pipeline runs on the
// producer) versus the parallel engine (each pipeline on its own worker
// goroutine, Config.ParallelCQ). Expected shape: serial ingest cost grows
// linearly in k; with enough cores, parallel ingest cost stays near the
// single-CQ cost until k exceeds the core count. The speedup column is
// therefore bounded by min(k, GOMAXPROCS) — on a single-core host both
// modes are equal and the experiment only demonstrates that worker
// execution costs nothing it shouldn't.
func E9(s Scale) (*Table, error) {
	n := s.n(120_000)
	ks := []int{1, 4, 8}
	t := &Table{
		ID:    "E9",
		Title: "parallel fan-out: k distinct CQs, synchronous vs per-pipeline workers",
		Header: []string{"k CQs", "serial ingest", "serial rate", "parallel ingest",
			"parallel rate", "speedup"},
	}
	t.Metrics = map[string]float64{}
	run := func(k, parallel int, mode string) (time.Duration, error) {
		reg := metrics.NewRegistry()
		eng, err := streamrel.Open(streamrel.Config{StateOverride: streamrel.StatePrivate, ParallelCQ: parallel, Metrics: reg})
		if err != nil {
			return 0, err
		}
		defer eng.Close()
		if _, err := eng.Exec(`CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`); err != nil {
			return 0, err
		}
		var cqs []*streamrel.CQ
		for i := 0; i < k; i++ {
			// Distinct predicates keep the k plans unshareable.
			cq, err := eng.Subscribe(fmt.Sprintf(`SELECT client_ip, count(*)
				FROM url_stream <VISIBLE 2000 ROWS ADVANCE 500 ROWS>
				WHERE url <> '/none%d' GROUP BY client_ip`, i))
			if err != nil {
				return 0, err
			}
			cqs = append(cqs, cq)
		}
		rows := workload.NewClickstream(workload.ClickConfig{Seed: 9, EventsPerSec: 400}).Take(n)
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
		if p50, p95, p99, ok := fireQuantiles(reg); ok {
			t.Metrics[fmt.Sprintf("%s_k%d_push_to_fire_p50_s", mode, k)] = p50
			t.Metrics[fmt.Sprintf("%s_k%d_push_to_fire_p95_s", mode, k)] = p95
			t.Metrics[fmt.Sprintf("%s_k%d_push_to_fire_p99_s", mode, k)] = p99
		}
		return elapsed, nil
	}
	for _, k := range ks {
		serial, err := run(k, 0, "serial")
		if err != nil {
			return nil, err
		}
		parallel, err := run(k, 4, "parallel")
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			fmtDur(serial), fmtRate(n, serial),
			fmtDur(parallel), fmtRate(n, parallel),
			fmtX(float64(serial) / float64(parallel)),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; speedup is bounded by min(k, cores), so single-core hosts report ≈1.0×",
			runtime.GOMAXPROCS(0)),
		"per-CQ results are byte-identical across modes (see TestFanoutParallelMatchesSerial)")
	return t, nil
}
