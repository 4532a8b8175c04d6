package ivm

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"streamrel/internal/types"
)

// BenchmarkStoreSliding is the store's CPU guard: one store under three
// sliding views (VISIBLE 10, 30 and 60 s, ADVANCE 1 s) over cubic-skewed keys,
// each op a second of rows inserted, every view fired and the store expired,
// reported per row, and the live heap after a collection at the end.
// "inverse" aggregates retract by Sub; "remerge" ones have no inverse, so
// every close rebuilds them for the groups the leaving slice held.
func BenchmarkStoreSliding(b *testing.B) {
	const perSlice = 1000
	for _, aggs := range []struct{ name, sel string }{{"inverse", "count(*), sum(v)"}, {"remerge", "min(v), max(v)"}} {
		for _, keys := range []int{1000, 10000, 100000} {
			b.Run(fmt.Sprintf("%s/%dk", aggs.name, keys/1000), func(b *testing.B) {
				s := newStore(b, `SELECT url, `+aggs.sel+` FROM s <VISIBLE '60 seconds' ADVANCE '1 second'> GROUP BY url`)
				views := []*View{s.Attach(10 * second), s.Attach(30 * second), s.Attach(60 * second)}
				urls := make([]types.Datum, keys)
				for i := range urls {
					urls[i] = types.NewString("/page/" + strconv.Itoa(i))
				}
				rng := rand.New(rand.NewSource(1))
				k, row := int64(0), make(types.Row, 3) // Insert keeps no row
				op := func() {
					for j := 0; j < perSlice; j++ {
						u := rng.Float64()
						row[0], row[1], row[2] = urls[int(u*u*u*float64(keys))], types.NewTimestampMicros(k*second+int64(j)), types.NewInt(int64(j))
						if err := s.Insert(row, k*second+int64(j)); err != nil {
							b.Fatal(err)
						}
					}
					k++
					for _, v := range views {
						if _, _, _, err := v.Fire(k*second, true); err != nil {
							b.Fatal(err)
						}
					}
					s.Expire(k * second)
				}
				for k < 70 { // past the widest window
					op()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perSlice), "ns/row")
				b.ReportMetric(heapMB(), "heap-MB")
				runtime.KeepAlive(s)
			})
		}
	}
}

// heapMB is the live heap after a collection.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// BenchmarkGCMarkStore is what the window state costs the collector: a forced
// collection over a store of count(*), sum(v) with 10k and 100k keys and 60
// slices, each slice holding a tenth of the keys, and a 60-slice view fired
// over all of them, reported per live partial, as internal/types'
// BenchmarkGCMarkRows reports per live row, and the live heap, whole and per
// live partial (B/live-partial: what a partial's lanes and its share of the
// view, the keys and the ids cost).
func BenchmarkGCMarkStore(b *testing.B) {
	const slices = 60
	for _, keys := range []int{10000, 100000} {
		b.Run(fmt.Sprintf("%dk", keys/1000), func(b *testing.B) {
			s := newStore(b, `SELECT url, count(*), sum(v) FROM s <VISIBLE '60 seconds' ADVANCE '1 second'> GROUP BY url`)
			v := s.Attach(slices * second)
			row := make(types.Row, 3) // Insert keeps no row
			for k := int64(0); k < slices; k++ {
				for j := 0; j < keys/10; j++ {
					row[0] = types.NewString("/page/" + strconv.Itoa((int(k)*keys/10+j)%keys))
					row[1], row[2] = types.NewTimestampMicros(k*second+int64(j)), types.NewInt(int64(j))
					if err := s.Insert(row, k*second+int64(j)); err != nil {
						b.Fatal(err)
					}
				}
			}
			if _, _, _, err := v.Fire(slices*second, true); err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runtime.GC()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slices*keys/10), "ns/live-partial")
			heap := heapMB()
			b.ReportMetric(heap, "heap-MB")
			b.ReportMetric(heap*(1<<20)/float64(slices*keys/10), "B/live-partial")
			runtime.KeepAlive(s)
		})
	}
}

// BenchmarkStoreNewKeys is the store's CPU guard under key churn: a tumbling
// view fired in place, 40 % of each window's keys new to the store, so every
// window drops groups and recycles them for new keys, carves their key strings
// and now and then rehomes the keys. Each op is a window, a row a key, its
// close and Expire, reported per row.
func BenchmarkStoreNewKeys(b *testing.B) {
	for _, groups := range []int{100, 10000} {
		b.Run(strconv.Itoa(groups), func(b *testing.B) {
			s := newStore(b, `SELECT url, count(*), sum(v) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
			v := s.Attach(10 * second)
			urls := make([]types.Datum, 5*groups) // a key comes back 12.5 windows after it first came
			for i := range urls {
				urls[i] = types.NewString("/page/" + strconv.Itoa(i))
			}
			k, row := int64(0), make(types.Row, 3)
			op := func() {
				first := int(k) * groups * 2 / 5
				for i := 0; i < groups; i++ {
					ts := k*10*second + int64(i)
					row[0], row[1], row[2] = urls[(first+i)%len(urls)], types.NewTimestampMicros(ts), types.NewInt(int64(i))
					if err := s.Insert(row, ts); err != nil {
						b.Fatal(err)
					}
				}
				k++
				if _, _, _, err := v.Fire(k*10*second, true); err != nil {
					b.Fatal(err)
				}
				s.Expire(k * 10 * second)
			}
			for k < 20 {
				op()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groups), "ns/row")
		})
	}
}
