package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"streamrel"
	"streamrel/internal/metrics"
	"streamrel/internal/workload"
)

// E15 measures the multi-tenancy tentpole: the work-stealing CQ scheduler
// plus plan-level sharing, at CQ counts the one-goroutine-per-pipeline
// engine could not reach. The ladder crosses CQ count (100 / 1k / 10k)
// with plan population (shared: all k CQs are the same dashboard query;
// unique: k distinct plans), and reports for each rung the time to
// register all k CQs, the time the LAST registration alone took (it must
// stay O(ms) — registration cost may not grow with existing membership),
// ingest throughput, and window-fire latency quantiles.
//
// Every rung runs twice — synchronous engine and work-stealing scheduler —
// and each subscriber's full fire transcript is hashed and compared
// byte-for-byte across the two runs BEFORE any speedup is reported: the
// scheduler must be a pure performance change.
//
// Expected shape: with plan sharing, the shared column's ingest rate is
// nearly flat in k (the source delivers to ONE feed; per-CQ cost
// is one sink call per fire), so 10k identical dashboards ingest at ≥50%
// of the 100-CQ rate. Unique plans pay O(k) per row — that is the floor
// sharing removes — so the unique rungs stop at 1k.
func E15(s Scale) (*Table, error) {
	// Shared rungs amortize the per-fire fan-out (k sink calls) over the
	// rows between fires, so they get the full row count; unique rungs pay
	// k pipeline visits PER ROW (the floor sharing removes), so they run a
	// smaller ingest to keep the ladder minutes, not hours.
	nShared := s.n(240_000)
	nUnique := s.n(16_000)
	type rung struct {
		k      int
		shared bool
		n      int
	}
	rungs := []rung{
		{100, true, nShared}, {1000, true, nShared}, {10000, true, nShared},
		{100, false, nUnique}, {1000, false, nUnique},
	}

	t := &Table{
		ID:    "E15",
		Title: "work-stealing scheduler + plan sharing: k CQs, registration / ingest / fire latency",
		Header: []string{"k CQs", "plans", "reg all", "last reg", "serial rate",
			"stealing rate", "speedup", "fire p50", "fire p99"},
	}
	t.Metrics = map[string]float64{}

	type runOut struct {
		regAll, regLast, ingest time.Duration
		p50, p99                float64
		fires                   int64
		allocsPerFire           float64
		hashes                  []uint64
	}
	run := func(k int, shared bool, parallel, n int) (*runOut, error) {
		reg := metrics.NewRegistry()
		eng, err := streamrel.Open(streamrel.Config{ParallelCQ: parallel, Metrics: reg})
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		if _, err := eng.Exec(`CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`); err != nil {
			return nil, err
		}
		cqs := make([]*streamrel.CQ, k)
		regStart := time.Now()
		var lastReg time.Duration
		for i := 0; i < k; i++ {
			q := `SELECT url, count(*) AS hits
				FROM url_stream <VISIBLE '60 seconds' ADVANCE '20 seconds'> GROUP BY url`
			if !shared {
				// A distinct predicate over a NON-grouped column defeats both
				// sharing layers: a url predicate would be hoisted into a
				// per-subscriber residual and the "unique" rung would secretly
				// collapse into one subsumption group.
				q = fmt.Sprintf(`SELECT url, count(*) AS hits
					FROM url_stream <VISIBLE '60 seconds' ADVANCE '20 seconds'>
					WHERE client_ip <> '10.9.9.%d' GROUP BY url`, i)
			}
			t0 := time.Now()
			if cqs[i], err = eng.Subscribe(q); err != nil {
				return nil, err
			}
			lastReg = time.Since(t0)
		}
		regAll := time.Since(regStart)
		rows := workload.NewClickstream(workload.ClickConfig{Seed: 15, EventsPerSec: 2000}).Take(n)
		// Collect registration garbage (k pipelines' worth) before the timed
		// region so the ingest clock doesn't pay k-proportional GC debt.
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for off := 0; off < len(rows); off += 256 {
			end := off + 256
			if end > len(rows) {
				end = len(rows)
			}
			if err := eng.Append("url_stream", rows[off:end]...); err != nil {
				return nil, err
			}
		}
		// Heartbeat past the last event so every trailing window closes
		// deterministically before transcripts are taken.
		last := time.UnixMicro(rows[len(rows)-1][1].TimestampMicros())
		if err := eng.AdvanceTime("url_stream", last.Add(30*time.Second)); err != nil {
			return nil, err
		}
		if err := eng.Flush(); err != nil {
			return nil, err
		}
		ingest := time.Since(start)
		runtime.ReadMemStats(&ms1)

		out := &runOut{regAll: regAll, regLast: lastReg, ingest: ingest,
			hashes: make([]uint64, k)}
		for i, cq := range cqs {
			h := fnv.New64a()
			for {
				b, ok := cq.TryNext()
				if !ok {
					break
				}
				fmt.Fprintf(h, "c=%d\n", b.Close.UnixMicro())
				for _, r := range b.Rows {
					fmt.Fprintln(h, r.String())
				}
				out.fires++
			}
			out.hashes[i] = h.Sum64()
			cq.Close()
		}
		if out.fires > 0 {
			out.allocsPerFire = float64(ms1.Mallocs-ms0.Mallocs) / float64(out.fires)
		}
		out.p50, _, out.p99, _ = fireQuantiles(reg)
		return out, nil
	}

	for _, r := range rungs {
		// Shared rungs finish in ~100ms, where a single GC cycle can swing
		// the rate tens of percent; report best-of-2 so the k100 vs k10000
		// ratio reflects capability, not collection timing. Unique rungs are
		// the expensive ones and carry no acceptance ratio: one attempt.
		attempts := 1
		if r.shared {
			attempts = 2
		}
		best := func(parallel int) (*runOut, error) {
			var b *runOut
			for a := 0; a < attempts; a++ {
				o, err := run(r.k, r.shared, parallel, r.n)
				if err != nil {
					return nil, err
				}
				if b == nil || o.ingest < b.ingest {
					b = o
				}
			}
			return b, nil
		}
		serial, err := best(0)
		if err != nil {
			return nil, err
		}
		stealing, err := best(8)
		if err != nil {
			return nil, err
		}
		// Equivalence gate: every subscriber's transcript must match
		// byte-for-byte (via its hash) before the speedup means anything.
		if serial.fires != stealing.fires {
			return nil, fmt.Errorf("E15 k=%d shared=%v: serial fired %d batches, stealing %d",
				r.k, r.shared, serial.fires, stealing.fires)
		}
		for i := range serial.hashes {
			if serial.hashes[i] != stealing.hashes[i] {
				return nil, fmt.Errorf("E15 k=%d shared=%v: subscriber %d transcript diverges between serial and stealing",
					r.k, r.shared, i)
			}
		}
		plans := "unique"
		if r.shared {
			plans = "shared"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r.k), plans,
			fmtDur(serial.regAll), fmtDur(serial.regLast),
			fmtRate(r.n, serial.ingest), fmtRate(r.n, stealing.ingest),
			fmtX(float64(serial.ingest) / float64(stealing.ingest)),
			fmtDur(time.Duration(stealing.p50 * float64(time.Second))),
			fmtDur(time.Duration(stealing.p99 * float64(time.Second))),
		})
		key := fmt.Sprintf("sched_%s_k%d", plans, r.k)
		t.Metrics[key+"_rows_per_s"] = float64(r.n) / stealing.ingest.Seconds()
		t.Metrics[key+"_serial_rows_per_s"] = float64(r.n) / serial.ingest.Seconds()
		t.Metrics[key+"_last_subscribe_ms"] = float64(serial.regLast.Nanoseconds()) / 1e6
		t.Metrics[key+"_fire_p50_s"] = stealing.p50
		t.Metrics[key+"_fire_p99_s"] = stealing.p99
		t.Metrics[key+"_allocs_per_fire"] = stealing.allocsPerFire
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; stealing speedup is bounded by min(pipelines, cores), so single-core hosts report ≈1.0×",
			runtime.GOMAXPROCS(0)),
		"serial and stealing runs are transcript-compared per subscriber (hash of every fire) before speedups are reported",
		fmt.Sprintf("unique-plan rungs stop at 1k and ingest %d rows (shared rungs: %d): without sharing each row visits all k pipelines, the O(k) floor plan sharing removes", nUnique, nShared),
		"acceptance: shared_k10000 rate ≥ 0.5 × shared_k100 rate; shared_k10000_last_subscribe_ms stays single-digit")
	return t, nil
}

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
