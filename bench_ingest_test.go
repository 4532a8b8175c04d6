// The ingest microbenchmark loop (DESIGN.md "Ingest hot path"): k CQs ×
// serial/parallel × memory/durable × Sync off/on under the standard testing
// harness, `go test -bench=BenchmarkIngest -benchmem`. rows/op is 1 (b.N
// rows total), so ns/op is ns/row and allocs/op is allocs/row. The numbers
// of record are bench/'s wire_durable and mem_fanout workloads; the
// allocation pins are ingest_alloc_test.go.
package streamrel

import (
	"fmt"
	"testing"

	"streamrel/internal/workload"
)

const ingestBenchBatch = 256

// benchIngest ingests b.N clickstream rows in 256-row micro-batches into
// k CQs with a store apiece (StatePrivate) and tracing off.
func benchIngest(b *testing.B, k int, parallel, durable, sync bool) {
	cfg := Config{StateOverride: StatePrivate, TraceSampleEvery: -1}
	if parallel {
		cfg.ParallelCQ = 4
	}
	if durable {
		cfg.Dir = b.TempDir()
		cfg.SyncWAL = sync
	}
	e := mustOpen(b, cfg)
	mustScript(b, e, `CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
	if durable {
		mustScript(b, e, `
			CREATE TABLE raw_archive (url varchar, atime timestamp, client_ip varchar);
			CREATE CHANNEL raw_ch FROM url_stream INTO raw_archive APPEND;
		`)
	}
	var cqs []*CQ
	for i := 0; i < k; i++ {
		cq, err := e.Subscribe(fmt.Sprintf(`SELECT client_ip, count(*)
			FROM url_stream <VISIBLE 2000 ROWS ADVANCE 500 ROWS>
			WHERE url <> '/none%d' GROUP BY client_ip`, i))
		if err != nil {
			b.Fatal(err)
		}
		defer cq.Close()
		cqs = append(cqs, cq)
	}
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 12, EventsPerSec: 400}).Take(b.N + ingestBenchBatch)
	// Warm pools and lazy init outside the timer.
	if err := e.Append("url_stream", rows[:ingestBenchBatch]...); err != nil {
		b.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	rows = rows[ingestBenchBatch : ingestBenchBatch+b.N]
	b.ReportAllocs()
	b.ResetTimer()
	for off := 0; off < len(rows); off += ingestBenchBatch {
		end := off + ingestBenchBatch
		if end > len(rows) {
			end = len(rows)
		}
		if err := e.Append("url_stream", rows[off:end]...); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	for _, cq := range cqs {
		cq.Drain()
	}
}

// Memory rung: pure hot path, no durability.

func BenchmarkIngestK1Serial(b *testing.B)    { benchIngest(b, 1, false, false, false) }
func BenchmarkIngestK1Parallel(b *testing.B)  { benchIngest(b, 1, true, false, false) }
func BenchmarkIngestK4Serial(b *testing.B)    { benchIngest(b, 4, false, false, false) }
func BenchmarkIngestK4Parallel(b *testing.B)  { benchIngest(b, 4, true, false, false) }
func BenchmarkIngestK16Serial(b *testing.B)   { benchIngest(b, 16, false, false, false) }
func BenchmarkIngestK16Parallel(b *testing.B) { benchIngest(b, 16, true, false, false) }

// Durable rung: base stream archived via APPEND channel, so each batch
// commits a transaction and appends to the WAL.

func BenchmarkIngestDurableSyncOffSerial(b *testing.B)   { benchIngest(b, 1, false, true, false) }
func BenchmarkIngestDurableSyncOffParallel(b *testing.B) { benchIngest(b, 1, true, true, false) }
func BenchmarkIngestDurableSyncOnSerial(b *testing.B)    { benchIngest(b, 1, false, true, true) }
func BenchmarkIngestDurableSyncOnParallel(b *testing.B)  { benchIngest(b, 1, true, true, true) }
