// Ablation benchmarks for the design choices DESIGN.md calls out: each
// pair isolates one mechanism by running the same workload with the
// mechanism on and off.
package streamrel

import (
	"fmt"
	"runtime"
	"testing"
)

// --- Ablation 1: B-tree index vs sequential scan for selective lookups.

func ablationLookupEngine(b *testing.B, withIndex bool) *Engine {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE TABLE t (k bigint, v varchar)`)
	var rows []Row
	for i := int64(0); i < 50_000; i++ {
		rows = append(rows, Row{Int(i), String("payload")})
	}
	if err := e.BulkInsert("t", rows); err != nil {
		b.Fatal(err)
	}
	if withIndex {
		mustScript(b, e, `CREATE INDEX t_k ON t (k)`)
	}
	return e
}

func BenchmarkAblationPointLookupIndexed(b *testing.B) {
	e := ablationLookupEngine(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(`SELECT v FROM t WHERE k = 25000`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPointLookupSeqScan(b *testing.B) {
	e := ablationLookupEngine(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(`SELECT v FROM t WHERE k = 25000`); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation 2: WAL durability levels on the insert path.

func benchInsertWAL(b *testing.B, dir string, sync bool) {
	cfg := Config{Dir: dir, SyncWAL: sync}
	e, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.ExecScript(`CREATE TABLE t (a bigint, s varchar)`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(`INSERT INTO t VALUES (1, 'x')`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInsertNoWAL(b *testing.B)   { benchInsertWAL(b, "", false) }
func BenchmarkAblationInsertWAL(b *testing.B)     { benchInsertWAL(b, b.TempDir(), false) }
func BenchmarkAblationInsertWALSync(b *testing.B) { benchInsertWAL(b, b.TempDir(), true) }

// --- Ablation 3: hash join vs nested-loop join on the same equi-join.
// The nested-loop variant expresses equality as `<= AND >=`, which the
// planner cannot turn into hash keys. Both ON clauses read $1, so neither
// plan keeps its build side or maintains its aggregate between calls: every
// call executes the join.

// benchJoin runs q, a count over the join of two 800-row tables whose keys
// match one to one, once an iteration.
func benchJoin(b *testing.B, q string) {
	const rows = 800
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE TABLE l (k bigint); CREATE TABLE r (k bigint, v bigint)`)
	var lr, rr []Row
	for i := int64(0); i < rows; i++ {
		lr = append(lr, Row{Int(i)})
		rr = append(rr, Row{Int(i), Int(i * 10)})
	}
	if err := e.BulkInsert("l", lr); err != nil {
		b.Fatal(err)
	}
	if err := e.BulkInsert("r", rr); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.QueryArgs(q, Int(0))
		if err != nil {
			b.Fatal(err)
		}
		if n := res.Data[0][0].Int(); n != rows {
			b.Fatalf("%d rows joined, want %d", n, rows)
		}
	}
}

func BenchmarkAblationJoinHash(b *testing.B) {
	benchJoin(b, `SELECT count(*) FROM l JOIN r ON l.k = r.k + $1`)
}

func BenchmarkAblationJoinNestedLoop(b *testing.B) {
	benchJoin(b, `SELECT count(*) FROM l JOIN r ON l.k <= r.k + $1 AND l.k >= r.k + $1`)
}

// --- Ablation 4: SQL text path vs prepared bulk path for ingestion.

func BenchmarkAblationIngestSQLText(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE TABLE t (a bigint, s varchar)`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'x')`, i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationIngestBulk(b *testing.B) {
	e := mustOpen(b, Config{})
	mustScript(b, e, `CREATE TABLE t (a bigint, s varchar)`)
	rows := make([]Row, b.N)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), String("x")}
	}
	b.ResetTimer()
	if err := e.BulkInsert("t", rows); err != nil {
		b.Fatal(err)
	}
}

// --- Ablation 5: window-close cost for raw-buffer recompute vs shared
// slices, isolating the slice mechanism from fan-out (k=1).

// windowCloseQueries are the CQs the window-close ablation fires: a count,
// which a store retracts by subtraction, and two shapes with no inverse,
// which a slice leaving the window re-merges from the slices still in it.
var windowCloseQueries = []struct{ name, q string }{
	{"count", `SELECT k, count(*) FROM s <VISIBLE '10 minutes' ADVANCE '1 minute'> GROUP BY k`},
	{"distinct_first_last", `SELECT k, count(DISTINCT v), first(v), last(v) FROM s <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY k`},
	{"stddev", `SELECT k, stddev(v) FROM s <VISIBLE '5 minutes' ADVANCE '10 seconds'> GROUP BY k`},
}

// benchWindowClose reports, beside ns/op and B/op, the heap in use with the
// CQ's window state live after the last close (heap-MB).
func benchWindowClose(b *testing.B, share bool, q string) {
	e := mustOpen(b, Config{StateOverride: mergeOrReexec(share)})
	mustScript(b, e, `CREATE STREAM s (k bigint, at timestamp CQTIME USER, v bigint)`)
	cq, err := e.Subscribe(q)
	if err != nil {
		b.Fatal(err)
	}
	defer cq.Close()
	base := MustTimestamp("2009-01-04 00:00:00").UnixMicro()
	// Prime ten minutes of data so the sliding extent is full, then per
	// iteration stream one more minute (5,000 rows) and close its windows:
	// the unshared path re-reads the whole extent per close, the shared path
	// moves the store's view by the slices that entered and left.
	const perMinute = 5000
	const gap = 60_000_000 / perMinute
	mint := func(minute int64) []Row {
		rows := make([]Row, perMinute)
		for i := int64(0); i < perMinute; i++ {
			rows[i] = Row{Int(i % 500), Timestamp(usToTime(base + minute*60_000_000 + i*gap)), Int((i + minute) % 37)}
		}
		return rows
	}
	for m := int64(0); m < 10; m++ {
		if err := e.Append("s", mint(m)...); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := int64(10 + i)
		if err := e.Append("s", mint(m)...); err != nil {
			b.Fatal(err)
		}
		if err := e.AdvanceTime("s", usToTime(base+(m+1)*60_000_000)); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cq.Drain()
		b.StartTimer()
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapInuse)/1e6, "heap-MB")
}

func BenchmarkAblationWindowCloseShared(b *testing.B)   { benchWindowCloses(b, true) }
func BenchmarkAblationWindowCloseUnshared(b *testing.B) { benchWindowCloses(b, false) }

func benchWindowCloses(b *testing.B, share bool) {
	for _, c := range windowCloseQueries {
		b.Run(c.name, func(b *testing.B) { benchWindowClose(b, share, c.q) })
	}
}
