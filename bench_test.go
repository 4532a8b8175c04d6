// Benchmarks mirroring the experiment suite (DESIGN.md §4). Each
// experiment table produced by cmd/srbench has a testing.B counterpart
// here exercising the same code path, so `go test -bench=.` regenerates
// the evaluation's per-operation numbers.
package streamrel

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"streamrel/internal/baseline"
	"streamrel/internal/types"
	"streamrel/internal/workload"
)

// mustOpen opens an in-memory engine for benchmarks.
func mustOpen(b *testing.B, cfg Config) *Engine {
	b.Helper()
	e, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

func mustScript(b *testing.B, e *Engine, script string) {
	b.Helper()
	if err := e.ExecScript(script); err != nil {
		b.Fatal(err)
	}
}

// ------------------------------------------------------------------ F1

// benchWindowIngest measures per-event cost through one CQ with the given
// window clause (Figure 1's window kinds).
func benchWindowIngest(b *testing.B, windowClause string) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
	cq, err := e.Subscribe(`SELECT url, count(*) FROM url_stream ` + windowClause + ` GROUP BY url`)
	if err != nil {
		b.Fatal(err)
	}
	defer cq.Close()
	gen := workload.NewClickstream(workload.ClickConfig{Seed: 1, EventsPerSec: 5000})
	rows := gen.Take(b.N)
	b.ResetTimer()
	if err := e.Append("url_stream", rows...); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	cq.Drain()
}

func BenchmarkF1WindowTumbling(b *testing.B) {
	benchWindowIngest(b, `<ADVANCE '1 minute'>`)
}

func BenchmarkF1WindowSliding(b *testing.B) {
	benchWindowIngest(b, `<VISIBLE '5 minutes' ADVANCE '1 minute'>`)
}

func BenchmarkF1WindowRows(b *testing.B) {
	benchWindowIngest(b, `<VISIBLE 10000 ROWS ADVANCE 1000 ROWS>`)
}

// ------------------------------------------------------------------ E1

// e1Batch prepares a store-first engine with n raw security events over a
// fixed 10-minute horizon.
func e1Batch(b *testing.B, n int) *Engine {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE TABLE sec_events (
		etime timestamp, src_ip varchar, dst_port bigint, action varchar, bytes bigint)`)
	events := workload.NewSecurityEvents(workload.SecurityConfig{Seed: 11, EventsPerSec: float64(n) / 600}).Take(n)
	if err := e.BulkInsert("sec_events", events); err != nil {
		b.Fatal(err)
	}
	return e
}

// e1Active prepares a continuous engine whose Active Table has absorbed n
// events.
func e1Active(b *testing.B, n int) *Engine {
	e := mustOpen(b, Config{})
	mustScript(b, e, `
		CREATE STREAM sec_stream (etime timestamp CQTIME USER, src_ip varchar, dst_port bigint, action varchar, bytes bigint);
		CREATE STREAM deny_now AS
			SELECT src_ip, count(*) AS denials, cq_close(*)
			FROM sec_stream <ADVANCE '1 minute'>
			WHERE action = 'deny' GROUP BY src_ip;
		CREATE TABLE deny_archive (src_ip varchar, denials bigint, stime timestamp);
		CREATE CHANNEL deny_ch FROM deny_now INTO deny_archive APPEND;
	`)
	gen := workload.NewSecurityEvents(workload.SecurityConfig{Seed: 11, EventsPerSec: float64(n) / 600})
	if err := e.Append("sec_stream", gen.Take(n)...); err != nil {
		b.Fatal(err)
	}
	e.AdvanceTime("sec_stream", time.UnixMicro(gen.Now()+60_000_000).UTC())
	return e
}

const e1BatchReport = `SELECT src_ip, count(*) AS denials FROM sec_events
	WHERE action = 'deny' GROUP BY src_ip ORDER BY denials DESC, src_ip LIMIT 10`

const e1ActiveReport = `SELECT src_ip, sum(denials) AS denials FROM deny_archive
	GROUP BY src_ip ORDER BY denials DESC, src_ip LIMIT 10`

// BenchmarkE1SecurityReportBatch: the store-first report latency.
func BenchmarkE1SecurityReportBatch(b *testing.B) {
	e := e1Batch(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(e1BatchReport); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1SecurityReportActive: the same report from the Active Table.
func BenchmarkE1SecurityReportActive(b *testing.B) {
	e := e1Active(b, 200_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(e1ActiveReport); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------ E2

// BenchmarkE2GrowthBatch: report latency vs raw volume (grows linearly).
func BenchmarkE2GrowthBatch(b *testing.B) {
	for _, n := range []int{25_000, 50_000, 100_000, 200_000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			e := e1Batch(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(e1BatchReport); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE2GrowthActive: report latency vs volume (stays near-flat).
func BenchmarkE2GrowthActive(b *testing.B) {
	for _, n := range []int{25_000, 50_000, 100_000, 200_000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			e := e1Active(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(e1ActiveReport); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------------------ E3

// mergeOrReexec is E3's pair of window-state overrides: one store for all
// CQs, or no store at all.
func mergeOrReexec(share bool) StateOverride {
	if share {
		return StateAuto
	}
	return StateReexec
}

// benchSharing measures per-event ingest cost with k identical CQs.
func benchSharing(b *testing.B, k int, share bool) {
	e := mustOpen(b, Config{StateOverride: mergeOrReexec(share)})
	mustScript(b, e, `CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
	for i := 0; i < k; i++ {
		cq, err := e.Subscribe(`SELECT url, count(*), sum(length(client_ip))
			FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url`)
		if err != nil {
			b.Fatal(err)
		}
		defer cq.Close()
	}
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 2, EventsPerSec: 5000}).Take(b.N)
	b.ResetTimer()
	if err := e.Append("url_stream", rows...); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkE3SharingShared(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { benchSharing(b, k, true) })
	}
}

func BenchmarkE3SharingUnshared(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) { benchSharing(b, k, false) })
	}
}

// BenchmarkFanoutPool: 200 distinct plans, a feed apiece, over 20 000
// clickstream rows appended in batches of 256, advanced past the last close
// and flushed — the distinct-plan fan-out the scheduler's pool spreads over
// its workers — drained by the appender ("serial") and by the pool at
// ParallelCQ 8 ("pool"). Reports ns per row ingested.
func BenchmarkFanoutPool(b *testing.B) {
	queries := make([]string, 200)
	for i := range queries {
		queries[i] = uniqueClickQuery(i)
	}
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 15, EventsPerSec: 100}).Take(20_000)
	last := time.UnixMicro(rows[len(rows)-1][1].TimestampMicros())
	for _, arm := range []struct {
		name     string
		parallel int
	}{{"serial", 0}, {"pool", 8}} {
		b.Run(arm.name, func(b *testing.B) {
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				e, err := Open(Config{ParallelCQ: arm.parallel})
				if err != nil {
					b.Fatal(err)
				}
				mustScript(b, e, `CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
				for _, q := range queries {
					if _, err := e.Subscribe(q); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for off := 0; off < len(rows); off += 256 {
					if err := e.Append("url_stream", rows[off:min(off+256, len(rows))]...); err != nil {
						b.Fatal(err)
					}
				}
				if err := e.AdvanceTime("url_stream", last.Add(30*time.Second)); err != nil {
					b.Fatal(err)
				}
				if err := e.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				e.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
		})
	}
}

// ------------------------------------------------------------------ E4

// BenchmarkE4MVRefresh: one full periodic-MV recomputation over 100k raw
// events.
func BenchmarkE4MVRefresh(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `
		CREATE TABLE impressions (itime timestamp, campaign bigint, publisher bigint, cost bigint);
		CREATE TABLE mv_rev (campaign bigint, minute timestamp, revenue bigint);
	`)
	rows := workload.NewImpressions(workload.ImpressionConfig{Seed: 4}).Take(100_000)
	if err := e.BulkInsert("impressions", rows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(`TRUNCATE TABLE mv_rev`); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Exec(`INSERT INTO mv_rev
			SELECT campaign, date_trunc('minute', itime), sum(cost)
			FROM impressions GROUP BY campaign, date_trunc('minute', itime)`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4ActiveTableMaintain: the continuous equivalent, per event.
func BenchmarkE4ActiveTableMaintain(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `
		CREATE STREAM imp_stream (itime timestamp CQTIME USER, campaign bigint, publisher bigint, cost bigint);
		CREATE STREAM rev_now AS
			SELECT campaign, sum(cost) AS revenue, cq_close(*)
			FROM imp_stream <ADVANCE '1 minute'> GROUP BY campaign;
		CREATE TABLE rev_active (campaign bigint, revenue bigint, stime timestamp);
		CREATE CHANNEL rev_ch FROM rev_now INTO rev_active APPEND;
	`)
	rows := workload.NewImpressions(workload.ImpressionConfig{Seed: 4, EventsPerSec: 5000}).Take(b.N)
	b.ResetTimer()
	if err := e.Append("imp_stream", rows...); err != nil {
		b.Fatal(err)
	}
}

// ------------------------------------------------------------------ E5

// BenchmarkE5JoinEnrichment: stream ⋈ dimension table per-event cost.
func BenchmarkE5JoinEnrichment(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `
		CREATE TABLE campaigns (id bigint, advertiser varchar, daily_budget bigint);
		CREATE STREAM imp_stream (itime timestamp CQTIME USER, campaign bigint, publisher bigint, cost bigint);
	`)
	var dim []Row
	for i := int64(0); i < 50; i++ {
		dim = append(dim, Row{Int(i), String(fmt.Sprintf("adv-%d", i%10)), Int(1000)})
	}
	if err := e.BulkInsert("campaigns", dim); err != nil {
		b.Fatal(err)
	}
	cq, err := e.Subscribe(`SELECT c.advertiser, sum(i.cost)
		FROM imp_stream <ADVANCE '1 minute'> i
		JOIN campaigns c ON i.campaign = c.id GROUP BY c.advertiser`)
	if err != nil {
		b.Fatal(err)
	}
	defer cq.Close()
	rows := workload.NewImpressions(workload.ImpressionConfig{Seed: 6, EventsPerSec: 5000}).Take(b.N)
	b.ResetTimer()
	if err := e.Append("imp_stream", rows...); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkE5HistoricalComparison: the Example 5 current-vs-past join,
// per event.
func BenchmarkE5HistoricalComparison(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `
		CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar);
		CREATE STREAM urls_now AS
			SELECT url, count(*) AS scnt, cq_close(*) AS stime
			FROM url_stream <ADVANCE '1 minute'> GROUP BY url;
		CREATE TABLE urls_archive (url varchar, scnt bigint, stime timestamp);
		CREATE CHANNEL urls_ch FROM urls_now INTO urls_archive APPEND;
	`)
	cq, err := e.Subscribe(`
		select c.scnt, h.scnt, c.stime
		from (select sum(scnt) as scnt, cq_close(*) as stime
		      from urls_now <slices 1 windows>) c, urls_archive h
		where c.stime - '1 minute'::interval = h.stime AND h.url = '/page/0001'`)
	if err != nil {
		b.Fatal(err)
	}
	defer cq.Close()
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 6, EventsPerSec: 5000}).Take(b.N)
	b.ResetTimer()
	if err := e.Append("url_stream", rows...); err != nil {
		b.Fatal(err)
	}
}

// ------------------------------------------------------------------ E6

// BenchmarkE6RecoveryRestart: WAL replay + CQ resume for a state with an
// Active Table.
func BenchmarkE6RecoveryRestart(b *testing.B) {
	dir := b.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	mustScript(b, e, `
		CREATE STREAM sec_stream (etime timestamp CQTIME USER, src_ip varchar, dst_port bigint, action varchar, bytes bigint);
		CREATE STREAM deny_now AS
			SELECT src_ip, count(*) AS denials, cq_close(*)
			FROM sec_stream <ADVANCE '1 minute'>
			WHERE action = 'deny' GROUP BY src_ip;
		CREATE TABLE deny_archive (src_ip varchar, denials bigint, stime timestamp);
		CREATE CHANNEL deny_ch FROM deny_now INTO deny_archive APPEND;
	`)
	gen := workload.NewSecurityEvents(workload.SecurityConfig{Seed: 9})
	if err := e.Append("sec_stream", gen.Take(100_000)...); err != nil {
		b.Fatal(err)
	}
	e.AdvanceTime("sec_stream", time.UnixMicro(gen.Now()+60_000_000).UTC())
	e.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e2, err := Open(Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e2.Query(e1ActiveReport); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e2.Close()
		b.StartTimer()
	}
}

// BenchmarkE6ColdRecompute: the alternative — recomputing the report from
// the raw archive after restart.
func BenchmarkE6ColdRecompute(b *testing.B) {
	e := e1Batch(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(e1BatchReport); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------ E7

// BenchmarkE7MapReduceRefresh: one MR job over a 100k-event log.
func BenchmarkE7MapReduceRefresh(b *testing.B) {
	mr := &baseline.MapReduce{Dir: b.TempDir(), Partitions: 4}
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 12}).Take(100_000)
	if err := mr.WriteInput("clicks", rows); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := mr.Run("clicks",
			func(row types.Row, emit func(string, types.Row)) {
				emit(row[0].Str(), types.Row{types.NewInt(1)})
			},
			func(key string, values []types.Row, emit func(types.Row)) {
				emit(types.Row{types.NewString(key), types.NewInt(int64(len(values)))})
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7ContinuousRefresh: the continuous equivalent — the metric is
// already maintained; a refresh is reading the Active Table.
func BenchmarkE7ContinuousRefresh(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `
		CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar);
		CREATE STREAM hits_now AS
			SELECT url, count(*) AS hits, cq_close(*)
			FROM url_stream <ADVANCE '1 minute'> GROUP BY url;
		CREATE TABLE hits_archive (url varchar, hits bigint, stime timestamp);
		CREATE CHANNEL hits_ch FROM hits_now INTO hits_archive APPEND;
	`)
	gen := workload.NewClickstream(workload.ClickConfig{Seed: 12, EventsPerSec: 600})
	if err := e.Append("url_stream", gen.Take(100_000)...); err != nil {
		b.Fatal(err)
	}
	e.AdvanceTime("url_stream", time.UnixMicro(gen.Now()+60_000_000).UTC())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(`SELECT url, sum(hits) FROM hits_archive GROUP BY url`); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------------ E8

// BenchmarkE8WindowCloseLatency: the cost of making one minute's results
// available (the continuous side of the availability-delay table).
func BenchmarkE8WindowCloseLatency(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, err := e.Subscribe(`SELECT count(*), sum(v) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		b.Fatal(err)
	}
	defer cq.Close()
	base := MustTimestamp("2009-01-04 00:00:00")
	// Prime the clock.
	if err := e.Append("s", Row{Int(0), Timestamp(base)}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One heartbeat = one window close + result delivery.
		if err := e.AdvanceTime("s", base.Add(time.Duration(i+1)*time.Minute)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if cq.Pending() < b.N {
		b.Fatalf("expected ≥%d windows, got %d", b.N, cq.Pending())
	}
}

// BenchmarkE8BatchLoadAndReport: the batch side — load a minute's events
// and run the report (what must happen before results are available).
func BenchmarkE8BatchLoadAndReport(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE TABLE ev (url varchar, atime timestamp, client_ip varchar)`)
	gen := workload.NewClickstream(workload.ClickConfig{Seed: 13, EventsPerSec: 5000})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		minute := gen.Take(2000)
		b.StartTimer()
		if err := e.BulkInsert("ev", minute); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Query(`SELECT url, count(*) FROM ev GROUP BY url ORDER BY 2 DESC LIMIT 10`); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------- core microbench

// BenchmarkIngestNoCQ: raw stream push cost with no subscribers.
func BenchmarkIngestNoCQ(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	rows := make([]Row, b.N)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Timestamp(time.UnixMicro(int64(i) * 1000))}
	}
	b.ResetTimer()
	if err := e.Append("s", rows...); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSnapshotQueryPoint: indexed point lookup.
func BenchmarkSnapshotQueryPoint(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE TABLE t (k bigint, v varchar)`)
	var rows []Row
	for i := int64(0); i < 10_000; i++ {
		rows = append(rows, Row{Int(i), String("value")})
	}
	if err := e.BulkInsert("t", rows); err != nil {
		b.Fatal(err)
	}
	mustScript(b, e, `CREATE INDEX t_k ON t (k)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(`SELECT v FROM t WHERE k = 5000`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableInsert: single-row SQL insert path.
func BenchmarkTableInsert(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE TABLE t (a bigint, s varchar)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(`INSERT INTO t VALUES (1, 'x')`); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------- parallel fan-out

// benchFanout measures aggregate ingest throughput with k continuous
// queries subscribed to one stream: b.N events flow through every CQ.
// Serial mode runs all k pipelines on the producer; parallel mode runs
// each on its own worker, so on a multicore machine the parallel/serial
// ratio approaches min(k, cores).
func benchFanout(b *testing.B, cqs, parallel int) {
	e := mustOpen(b, Config{StateOverride: StatePrivate, ParallelCQ: parallel})
	mustScript(b, e, `CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
	for i := 0; i < cqs; i++ {
		// Distinct predicates keep the plans unshareable and the per-CQ
		// work honest.
		cq, err := e.Subscribe(fmt.Sprintf(
			`SELECT client_ip, count(*) FROM hits <VISIBLE 2000 ROWS ADVANCE 500 ROWS> WHERE url <> '/none%d' GROUP BY client_ip`, i))
		if err != nil {
			b.Fatal(err)
		}
		defer cq.Close()
	}
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 3, EventsPerSec: 5000}).Take(b.N)
	b.ResetTimer()
	for off := 0; off < len(rows); off += 256 {
		end := off + 256
		if end > len(rows) {
			end = len(rows)
		}
		if err := e.Append("hits", rows[off:end]...); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

// BenchmarkFanoutSerial: k CQs on one stream, synchronous engine.
func BenchmarkFanoutSerial(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("cqs=%d", k), func(b *testing.B) { benchFanout(b, k, 0) })
	}
}

// BenchmarkFanoutParallel: the same fan-out with per-pipeline workers.
// Compare against BenchmarkFanoutSerial at GOMAXPROCS ≥ 4.
func BenchmarkFanoutParallel(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("cqs=%d", k), func(b *testing.B) { benchFanout(b, k, 4) })
	}
}

// benchFanoutMultiProducer drives b.RunParallel producers, each feeding
// its own stream+CQ: with sharded source locking, producers to distinct
// streams never contend on a global mutex.
func benchFanoutMultiProducer(b *testing.B, parallel int) {
	const streams = 8
	e := mustOpen(b, Config{StateOverride: StatePrivate, ParallelCQ: parallel, LateRows: LateClamp})
	for i := 0; i < streams; i++ {
		mustScript(b, e, fmt.Sprintf(
			`CREATE STREAM p%d (url varchar, atime timestamp CQTIME USER, client_ip varchar)`, i))
		cq, err := e.Subscribe(fmt.Sprintf(
			`SELECT url, count(*) FROM p%d <VISIBLE 2000 ROWS ADVANCE 500 ROWS> GROUP BY url`, i))
		if err != nil {
			b.Fatal(err)
		}
		defer cq.Close()
	}
	var nextID atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		name := fmt.Sprintf("p%d", int(nextID.Add(1)-1)%streams)
		buf := make([]Row, 0, 256)
		ts := int64(0)
		flush := func() {
			if len(buf) == 0 {
				return
			}
			if err := e.Append(name, buf...); err != nil {
				b.Error(err)
			}
			buf = buf[:0]
		}
		for pb.Next() {
			ts += 1000
			buf = append(buf, Row{String("/a"), Timestamp(time.UnixMicro(ts)), String("ip")})
			if len(buf) == cap(buf) {
				flush()
			}
		}
		flush()
	})
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
}

func BenchmarkFanoutMultiProducerSerial(b *testing.B)   { benchFanoutMultiProducer(b, 0) }
func BenchmarkFanoutMultiProducerParallel(b *testing.B) { benchFanoutMultiProducer(b, 4) }

// BenchmarkAppendBatch: PushBatch cost by batch size with no subscribers —
// the regression benchmark for hoisting per-batch invariants (source
// resolution, schema arity, timestamp validation) out of the row loop.
func BenchmarkAppendBatch(b *testing.B) {
	for _, size := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("rows=%d", size), func(b *testing.B) {
			e := mustOpen(b, Config{})
			mustScript(b, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
			rows := make([]Row, b.N)
			for i := range rows {
				rows[i] = Row{Int(int64(i)), Timestamp(time.UnixMicro(int64(i) * 1000))}
			}
			b.ResetTimer()
			for off := 0; off < len(rows); off += size {
				end := off + size
				if end > len(rows) {
					end = len(rows)
				}
				if err := e.Append("s", rows[off:end]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
