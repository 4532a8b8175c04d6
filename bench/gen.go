package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"streamrel"
	"streamrel/internal/types"
)

// baseUs is event time zero for every stream: 2009-01-04 00:00:00 UTC, a
// multiple of every ADVANCE the workloads use, so the first window closes
// one ADVANCE after the first row.
var baseUs = time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC).UnixMicro()

// batchRows is the append size every producer uses.
const batchRows = 256

// poolRows is the size of a stream's seeded row pool; keyPoolRows is
// wide_window's, larger than its widest window so that all of its groups
// occur. Both are multiples of batchRows, so a batch never wraps the pool.
const (
	poolRows    = 1 << 15
	keyPoolRows = 1 << 18
)

// streamSpec is one CQTIME USER stream and its seeded input: a pool of rows
// whose timestamp column is stamped per use. Row g of the stream is
// pool[g % len(pool)] at event time tsOf(g); the input is therefore a pure
// function of (seed, g) and window contents do not depend on wall speed.
type streamSpec struct {
	name    string
	ddl     string
	tsCol   int
	density int64 // rows per event-second
	pool    []streamrel.Row
}

// tsOf returns the event time of row g in microseconds.
func (s *streamSpec) tsOf(g int64) int64 { return baseUs + g*1_000_000/s.density }

// firstAtOrAfter returns the smallest g whose event time is >= ts.
func (s *streamSpec) firstAtOrAfter(ts int64) int64 {
	if ts <= baseUs {
		return 0
	}
	g := (ts - baseUs) * s.density / 1_000_000
	for s.tsOf(g) < ts {
		g++
	}
	for g > 0 && s.tsOf(g-1) >= ts {
		g--
	}
	return g
}

// fill stamps rows g … g+len(dst)-1 into dst. Every call carves the rows
// from one fresh block: the engine retains appended rows in window state,
// so a block is never reused.
func (s *streamSpec) fill(dst []streamrel.Row, g int64) {
	w := len(s.pool[0])
	block := make([]streamrel.Value, len(dst)*w)
	n := int64(len(s.pool))
	for i := range dst {
		row := block[i*w : (i+1)*w : (i+1)*w]
		copy(row, s.pool[(g+int64(i))%n])
		row[s.tsCol] = types.NewTimestampMicros(s.tsOf(g + int64(i)))
		dst[i] = row
	}
}

// hitStream is the url-hit stream of wire_durable and mem_fanout:
// (url, atime, client_ip, bytes) with Zipf-1.2 urls.
func hitStream(name string, rng *rand.Rand, urls, clients int, density int64) *streamSpec {
	z := rand.NewZipf(rng, 1.2, 1, uint64(urls-1))
	pool := make([]streamrel.Row, poolRows)
	for i := range pool {
		c := rng.Intn(clients)
		pool[i] = streamrel.Row{
			streamrel.String(fmt.Sprintf("/page/%04d", z.Uint64())),
			streamrel.Null,
			streamrel.String(fmt.Sprintf("10.%d.%d.%d", c>>16&255, c>>8&255, c&255)),
			streamrel.Int(int64(200 + rng.Intn(4000))),
		}
	}
	return &streamSpec{
		name:    name,
		ddl:     "CREATE STREAM " + name + " (url varchar, atime timestamp CQTIME USER, client_ip varchar, bytes bigint)",
		tsCol:   1,
		density: density,
		pool:    pool,
	}
}

// keyStream is wide_window's stream: (k, at, v) with cubed-uniform keys —
// a few hot groups and a long tail (E14's shape).
func keyStream(name string, rng *rand.Rand, groups int, density int64) *streamSpec {
	return keyStreamN(name, rng, groups, density, keyPoolRows)
}

func keyStreamN(name string, rng *rand.Rand, groups int, density int64, n int) *streamSpec {
	pool := make([]streamrel.Row, n)
	for i := range pool {
		k := int64(float64(groups) * math.Pow(rng.Float64(), 3))
		pool[i] = streamrel.Row{streamrel.Int(k), streamrel.Null, streamrel.Int(int64(rng.Intn(100)))}
	}
	return &streamSpec{
		name:    name,
		ddl:     "CREATE STREAM " + name + " (k bigint, at timestamp CQTIME USER, v bigint)",
		tsCol:   1,
		density: density,
		pool:    pool,
	}
}

// secStream is report_mixed's security-event stream:
// (etime, src_ip, dst_port, action, bytes), one event in four a deny.
func secStream(name string, rng *rand.Rand, ips int, density int64) *streamSpec {
	z := rand.NewZipf(rng, 1.1, 1, uint64(ips-1))
	pool := make([]streamrel.Row, poolRows)
	for i := range pool {
		action := "allow"
		if rng.Intn(4) == 0 {
			action = "deny"
		}
		pool[i] = streamrel.Row{
			streamrel.Null,
			streamrel.String(srcIP(int(z.Uint64()))),
			streamrel.Int(int64(1 + rng.Intn(1024))),
			streamrel.String(action),
			streamrel.Int(int64(40 + rng.Intn(1400))),
		}
	}
	return &streamSpec{
		name:    name,
		ddl:     "CREATE STREAM " + name + " (etime timestamp CQTIME USER, src_ip varchar, dst_port bigint, action varchar, bytes bigint)",
		tsCol:   0,
		density: density,
		pool:    pool,
	}
}

func srcIP(i int) string { return fmt.Sprintf("172.16.%d.%d", i>>8&255, i&255) }
