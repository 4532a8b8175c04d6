package streamrel

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkReportOverHistory is the cost of report_mixed's two reports
// against the size of the Active Table they read: its schema, 512 sources
// drawn zipf(1.1) and 20 000, 80 000 or 320 000 rows of history. Between two
// calls 1 000 rows are appended, outside the ms/call figure, so every call has
// a delta to read; the table grows by that much a call, so run it at a fixed
// count (go test -run '^$' -bench ReportOverHistory -benchtime 30x). A report
// that folds what was appended into what it kept costs about the same at every
// size; one that re-aggregates the table grows with it.
func BenchmarkReportOverHistory(b *testing.B) {
	reports := []struct{ name, sql string }{
		{"top_sources", "SELECT src_ip, sum(denials) AS d FROM deny_archive GROUP BY src_ip ORDER BY d DESC, src_ip LIMIT 5"},
		{"top_sites", "SELECT h.site, sum(a.denials) AS d FROM deny_archive a, hosts h WHERE a.src_ip = h.src_ip " +
			"GROUP BY h.site ORDER BY d DESC, h.site LIMIT 5"},
	}
	ip := func(i int) Value { return String(fmt.Sprintf("172.16.%d.%d", i>>8&255, i&255)) }
	for _, size := range []int{20000, 80000, 320000} {
		e := mustOpen(b, Config{})
		mustScript(b, e, `
			CREATE TABLE deny_archive (src_ip varchar, denials bigint, vol bigint, stime timestamp);
			CREATE INDEX deny_archive_ip ON deny_archive (src_ip);
			CREATE TABLE hosts (src_ip varchar, site varchar);
			CREATE INDEX hosts_ip ON hosts (src_ip);`)
		hosts := make([]Row, 512)
		for i := range hosts {
			hosts[i] = Row{ip(i), String(fmt.Sprintf("site-%02d", i%24))}
		}
		if err := e.BulkInsert("hosts", hosts); err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		z := rand.NewZipf(rng, 1.1, 1, 511)
		at := time.UnixMicro(ivmBase)
		appendRows := func(n int) {
			rows := make([]Row, n)
			for i := range rows {
				at = at.Add(time.Second)
				rows[i] = Row{ip(int(z.Uint64())), Int(int64(1 + rng.Intn(20))), Int(int64(40 + rng.Intn(20000))), Timestamp(at)}
			}
			if err := e.BulkInsert("deny_archive", rows); err != nil {
				b.Fatal(err)
			}
		}
		for done := 0; done < size; done += 4000 {
			appendRows(4000)
		}
		for _, rep := range reports {
			b.Run(fmt.Sprintf("%s/rows=%dk", rep.name, size/1000), func(b *testing.B) {
				if _, err := e.Query(rep.sql); err != nil { // planned and cached
					b.Fatal(err)
				}
				b.ResetTimer()
				var spent time.Duration
				for range b.N {
					appendRows(1000)
					start := time.Now()
					if _, err := e.Query(rep.sql); err != nil {
						b.Fatal(err)
					}
					spent += time.Since(start)
				}
				b.ReportMetric(float64(spent.Microseconds())/1e3/float64(b.N), "ms/call")
			})
		}
	}
}
