package experiments

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"streamrel"
	"streamrel/internal/metrics"
	"streamrel/internal/workload"
)

// E12 is the canonical ingest ladder: one table, two rungs, every cell a
// number future PRs are held to (cmd/srbench -budget).
//
// The memory rung measures the pure hot path — PushBatch through window
// buffering and firing for k ∈ {1,4,16} continuous queries, serial vs
// per-pipeline workers, no durability — reporting rows/s and steady-state
// heap allocations per ingested row (runtime.MemStats.Mallocs delta).
//
// The durable rung adds the write-ahead log: a base stream archived to a
// table via an APPEND channel, so every ingested batch commits a txn and
// appends to the WAL. Sync off isolates commit-path CPU; Sync on measures
// fsync amortization (batched channel writes + WAL group commit).
func E12(s Scale) (*Table, error) {
	t := &Table{
		ID:    "E12",
		Title: "ingest hot path: rows/s and allocs/row across fan-out, workers, durability",
		Header: []string{"rung", "k CQs", "mode", "sync", "ingest", "rate",
			"allocs/row"},
		Metrics: map[string]float64{},
	}

	memN := s.n(100_000)
	for _, k := range []int{1, 4, 16} {
		for _, mode := range []string{"serial", "parallel"} {
			elapsed, allocs, _, err := ingestRun(ingestConfig{
				n: memN, k: k, parallel: mode == "parallel",
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				"memory", fmt.Sprintf("%d", k), mode, "-",
				fmtDur(elapsed), fmtRate(memN, elapsed), fmtAllocs(allocs),
			})
			t.Metrics[fmt.Sprintf("mem_k%d_%s_rows_per_s", k, mode)] = rate(memN, elapsed)
			t.Metrics[fmt.Sprintf("mem_k%d_%s_allocs_per_row", k, mode)] = allocs
		}
	}

	for _, sync := range []bool{false, true} {
		n := s.n(40_000)
		if sync {
			n = s.n(4_000)
		}
		syncLabel := "off"
		if sync {
			syncLabel = "on"
		}
		for _, mode := range []string{"serial", "parallel"} {
			elapsed, allocs, reg, err := ingestRun(ingestConfig{
				n: n, k: 1, parallel: mode == "parallel",
				durable: true, sync: sync,
			})
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				"durable", "1", mode, syncLabel,
				fmtDur(elapsed), fmtRate(n, elapsed), fmtAllocs(allocs),
			})
			t.Metrics[fmt.Sprintf("durable_sync%s_%s_rows_per_s", syncLabel, mode)] = rate(n, elapsed)
			t.Metrics[fmt.Sprintf("durable_sync%s_%s_allocs_per_row", syncLabel, mode)] = allocs
			if sync {
				if mean, ok := histMean(reg, "streamrel_wal_group_commit_batches"); ok {
					t.Metrics[fmt.Sprintf("durable_syncon_%s_group_batches_mean", mode)] = mean
				}
			}
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; batches of %d rows per Append", runtime.GOMAXPROCS(0), ingestBatch),
		"memory rung: in-memory engine, tracing disabled, sharing disabled (k distinct plans)",
		"durable rung: base stream archived via APPEND channel, so every batch commits a txn + WAL append",
		"allocs/row is the whole-process Mallocs delta over the append loop, including worker goroutines")
	return t, nil
}

// ingestBatch is the rows-per-Append micro-batch size used across the
// ladder (matches E9 and the replication experiments).
const ingestBatch = 256

type ingestConfig struct {
	n        int
	k        int  // number of subscribed CQs
	parallel bool // Config.ParallelCQ
	durable  bool // Dir + raw archive channel
	sync     bool // Config.SyncWAL
}

// ingestRun opens a fresh engine per the config, ingests n clickstream
// rows in micro-batches, and returns elapsed wall time (append loop +
// Flush) and heap allocations per row.
func ingestRun(c ingestConfig) (time.Duration, float64, *metrics.Registry, error) {
	reg := metrics.NewRegistry()
	cfg := streamrel.Config{
		StateOverride:    streamrel.StatePrivate,
		Metrics:          reg,
		TraceSampleEvery: -1,
	}
	if c.parallel {
		cfg.ParallelCQ = 4
	}
	var dir string
	if c.durable {
		var err error
		dir, err = os.MkdirTemp("", "srbench-e12-")
		if err != nil {
			return 0, 0, nil, err
		}
		defer os.RemoveAll(dir)
		cfg.Dir = dir
		cfg.SyncWAL = c.sync
	}
	eng, err := streamrel.Open(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	defer eng.Close()
	if _, err := eng.Exec(`CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`); err != nil {
		return 0, 0, nil, err
	}
	if c.durable {
		if err := eng.ExecScript(`
			CREATE TABLE raw_archive (url varchar, atime timestamp, client_ip varchar);
			CREATE CHANNEL raw_ch FROM url_stream INTO raw_archive APPEND;
		`); err != nil {
			return 0, 0, nil, err
		}
	}
	var cqs []*streamrel.CQ
	for i := 0; i < c.k; i++ {
		cq, err := eng.Subscribe(fmt.Sprintf(`SELECT client_ip, count(*)
			FROM url_stream <VISIBLE 2000 ROWS ADVANCE 500 ROWS>
			WHERE url <> '/none%d' GROUP BY client_ip`, i))
		if err != nil {
			return 0, 0, nil, err
		}
		cqs = append(cqs, cq)
	}
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 12, EventsPerSec: 400}).Take(c.n)

	// Warm up pools and lazy init outside the measured window, then
	// settle the heap so the Mallocs delta reflects steady state.
	warm := rows[:min(ingestBatch, len(rows))]
	if err := eng.Append("url_stream", warm...); err != nil {
		return 0, 0, nil, err
	}
	if err := eng.Flush(); err != nil {
		return 0, 0, nil, err
	}
	rows = rows[len(warm):]
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	start := time.Now()
	for off := 0; off < len(rows); off += ingestBatch {
		end := off + ingestBatch
		if end > len(rows) {
			end = len(rows)
		}
		if err := eng.Append("url_stream", rows[off:end]...); err != nil {
			return 0, 0, nil, err
		}
	}
	if err := eng.Flush(); err != nil {
		return 0, 0, nil, err
	}
	elapsed := time.Since(start)

	runtime.ReadMemStats(&after)
	allocsPerRow := float64(after.Mallocs-before.Mallocs) / float64(max(len(rows), 1))
	for _, cq := range cqs {
		cq.Close()
	}
	return elapsed, allocsPerRow, reg, nil
}

// histMean returns the mean observation of a named histogram, if present.
func histMean(reg *metrics.Registry, name string) (float64, bool) {
	for _, s := range reg.Gather() {
		if s.Name == name && s.Count > 0 {
			return s.Sum / float64(s.Count), true
		}
	}
	return 0, false
}

func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func fmtAllocs(a float64) string {
	return fmt.Sprintf("%.1f", a)
}
