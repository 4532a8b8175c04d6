package types

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// benchRows are n rows of the shape the workloads' streams have — a VARCHAR
// of a few hundred distinct values, a recent TIMESTAMP, a small BIGINT and a
// DOUBLE — carved from blocks of the given rows, as a decoder (4 096) or a
// window close carves them, or one row an allocation.
func benchRows(n, block int) []Row {
	r := rand.New(rand.NewSource(1))
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("/page/%d", i)
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()
	rows := make([]Row, n)
	var vals []Datum
	for i := range rows {
		if len(vals) == 0 {
			vals = make([]Datum, 4*min(block, n-i))
		}
		row := Row(vals[:4:4])
		vals = vals[4:]
		row[0] = NewString(keys[r.Intn(len(keys))])
		row[1] = NewTimestampMicros(base + int64(i)*1000)
		row[2] = NewInt(r.Int63n(1 << 20))
		row[3] = NewFloat(r.Float64() * 100)
		rows[i] = row
	}
	return rows
}

var benchSink int64

// BenchmarkDatumOps times what every layer does with a value, per row of
// benchRows: Compare of each column with the next row's, the row's grouping
// key, Equal against a twin whose string is a copy, and the typed
// reads a window store makes (IsNull, Int, TimestampMicros).
func BenchmarkDatumOps(b *testing.B) {
	const n = 4096
	rows := benchRows(n, n)
	twins := make([]Row, n)
	for i, r := range rows {
		twins[i] = r.Clone()
		twins[i][0] = NewString(string([]byte(r[0].Str())))
	}
	var sink int64
	b.Run("Compare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, c := rows[i%n], rows[(i+1)%n]
			for j := range a {
				sink += int64(Compare(a[j], c[j]))
			}
		}
	})
	b.Run("AppendKey", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = rows[i%n].AppendKey(buf[:0])
		}
		sink += int64(len(buf))
	})
	b.Run("Equal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rows[i%n].Equal(twins[i%n]) {
				sink++
			}
		}
	})
	b.Run("Access", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if r := rows[i%n]; !r[2].IsNull() {
				sink += r[2].Int() + r[1].TimestampMicros()
			}
		}
	})
	benchSink = sink
}

// BenchmarkGCMarkRows times a forced collection over a million resident rows
// of benchRows' shape — what the collector pays for the rows a window, a heap
// or a queue keeps — and reports it per live row, with the live heap: rows
// carved from 4 096-row blocks, and rows allocated one by one.
func BenchmarkGCMarkRows(b *testing.B) {
	for _, c := range []struct {
		name  string
		block int
	}{{"Blocks", 4096}, {"Rows", 1}} {
		b.Run(c.name, func(b *testing.B) {
			rows := benchRows(1<<20, c.block)
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.GC()
			}
			b.StopTimer()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/live-row")
			b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MB")
			runtime.KeepAlive(rows)
		})
	}
}
