package streamrel

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"streamrel/internal/workload"
)

// fanoutQueries are eight CQs of varying shape over one stream — the
// fan-out workload the parallel mode targets.
func fanoutQueries() []string {
	return []string{
		`SELECT url, count(*) FROM hits <ADVANCE '1 minute'> GROUP BY url`,
		`SELECT count(*) FROM hits <VISIBLE '3 minutes' ADVANCE '1 minute'>`,
		`SELECT client_ip, count(*) FROM hits <VISIBLE '2 minutes' ADVANCE '2 minutes'> GROUP BY client_ip`,
		`SELECT count(*) FROM hits <VISIBLE '5 minutes' ADVANCE '1 minute'> WHERE url = '/a'`,
		`SELECT url FROM hits <VISIBLE 5 ROWS ADVANCE 5 ROWS>`,
		`SELECT count(*) FROM hits <VISIBLE 16 ROWS ADVANCE 4 ROWS>`,
		`SELECT url, count(*) FROM hits <ADVANCE '2 minutes'> GROUP BY url`,
		`SELECT client_ip FROM hits <VISIBLE 3 ROWS ADVANCE 3 ROWS> WHERE url = '/b'`,
	}
}

// runFanout feeds a deterministic workload to eight CQs and returns each
// CQ's batches rendered as strings.
func runFanout(t *testing.T, cfg Config) [][]string {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
	queries := fanoutQueries()
	cqs := make([]*CQ, len(queries))
	for i, q := range queries {
		cq, err := e.Subscribe(q)
		if err != nil {
			t.Fatalf("Subscribe(%q): %v", q, err)
		}
		cqs[i] = cq
		defer cq.Close()
	}
	rng := rand.New(rand.NewSource(42))
	urls := []string{"/a", "/b", "/c"}
	ts := int64(60_000_000 * 100)
	for step := 0; step < 30; step++ {
		rows := make([]Row, 1+rng.Intn(6))
		for i := range rows {
			ts += int64(rng.Intn(15_000_000))
			rows[i] = Row{
				String(urls[rng.Intn(len(urls))]),
				Timestamp(time.UnixMicro(ts).UTC()),
				String(fmt.Sprintf("10.0.0.%d", rng.Intn(4))),
			}
		}
		if err := e.Append("hits", rows...); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AdvanceTime("hits", time.UnixMicro(ts+600_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(cqs))
	for i, cq := range cqs {
		for _, b := range cq.Drain() {
			for _, r := range b.Rows {
				out[i] = append(out[i], fmt.Sprintf("%s|%s", b.Close.Format("15:04:05"), r.String()))
			}
		}
	}
	return out
}

// TestFanoutParallelMatchesSerial is the acceptance equivalence test: with
// ParallelCQ enabled, every CQ's output — batch boundaries, row contents,
// row order — is byte-identical to the synchronous engine, with CQs
// attaching to common stores and with a store apiece (StatePrivate).
func TestFanoutParallelMatchesSerial(t *testing.T) {
	for _, sharing := range []bool{false, true} {
		override := StatePrivate
		if sharing {
			override = StateAuto
		}
		serial := runFanout(t, Config{StateOverride: override})
		parallel := runFanout(t, Config{StateOverride: override, ParallelCQ: 4})
		for i := range serial {
			if len(serial[i]) == 0 {
				t.Fatalf("CQ %d produced no output; workload too small", i)
			}
			for j := range serial[i] {
				if j >= len(parallel[i]) || serial[i][j] != parallel[i][j] {
					t.Fatalf("CQ %d diverges at %d (sharing=%v):\nserial:   %v\nparallel: %v",
						i, j, sharing, serial[i], parallel[i])
				}
			}
			if len(parallel[i]) != len(serial[i]) {
				t.Fatalf("CQ %d: parallel produced %d results, serial %d",
					i, len(parallel[i]), len(serial[i]))
			}
		}
	}
}

// sharedClickQuery is one dashboard query that many subscribers watch; they
// all attach to one feed. uniqueClickQuery(i) is a distinct plan per i: its
// predicate is on a column it does not group by, so it cannot become a
// residual over a shared store, and each CQ gets a feed of its own.
const sharedClickQuery = `SELECT url, count(*) AS hits
	FROM url_stream <VISIBLE '60 seconds' ADVANCE '20 seconds'> GROUP BY url`

func uniqueClickQuery(i int) string {
	return fmt.Sprintf(`SELECT url, count(*) AS hits
		FROM url_stream <VISIBLE '60 seconds' ADVANCE '20 seconds'>
		WHERE client_ip <> '10.9.9.%d' GROUP BY url`, i)
}

// runClickCQs subscribes one CQ per query to a clickstream on an engine
// opened with cfg, appends rows in batches of 256, advances the stream past
// the last row by tail and flushes. It returns each CQ's transcript (every
// batch's close and rows, a line each), the batches delivered, and the heap
// allocations the whole process made from the first append to the flush.
func runClickCQs(t *testing.T, cfg Config, queries []string, rows []Row, tail time.Duration) (transcripts []string, fires int, mallocs uint64) {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`)
	cqs := make([]*CQ, len(queries))
	for i, q := range queries {
		if cqs[i], err = e.Subscribe(q); err != nil {
			t.Fatalf("Subscribe(%q): %v", q, err)
		}
	}
	// Registration garbage is not the ingest's.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for off := 0; off < len(rows); off += 256 {
		if err := e.Append("url_stream", rows[off:min(off+256, len(rows))]...); err != nil {
			t.Fatal(err)
		}
	}
	last := time.UnixMicro(rows[len(rows)-1][1].TimestampMicros())
	if err := e.AdvanceTime("url_stream", last.Add(tail)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	transcripts = make([]string, len(cqs))
	for i, cq := range cqs {
		var b strings.Builder
		for _, batch := range cq.Drain() {
			fmt.Fprintf(&b, "c=%d\n", batch.Close.UnixMicro())
			for _, r := range batch.Rows {
				b.WriteString(r.String())
				b.WriteByte('\n')
			}
			fires++
		}
		transcripts[i] = b.String()
		cq.Close()
	}
	return transcripts, fires, after.Mallocs - before.Mallocs
}

// TestFanoutStealingMatchesSerialAtScale runs the work-stealing scheduler at
// a thousand subscribers: a thousand copies of one query on one feed, then a
// thousand distinct plans with a feed apiece. At ParallelCQ 8 every CQ's
// transcript — closes, rows, row order — is byte-identical to the synchronous
// engine's, and none is empty. At 100 events a second the stream crosses two
// closes while it ingests and a third after.
func TestFanoutStealingMatchesSerialAtScale(t *testing.T) {
	const k = 1000
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 15, EventsPerSec: 100}).Take(4000)
	shared := make([]string, k)
	unique := make([]string, k)
	for i := range shared {
		shared[i] = sharedClickQuery
		unique[i] = uniqueClickQuery(i)
	}
	for name, queries := range map[string][]string{"shared": shared, "unique": unique} {
		serial, _, _ := runClickCQs(t, Config{}, queries, rows, 30*time.Second)
		stealing, _, _ := runClickCQs(t, Config{ParallelCQ: 8}, queries, rows, 30*time.Second)
		for i := range serial {
			if serial[i] == "" {
				t.Fatalf("%s CQ %d delivered nothing; workload too small", name, i)
			}
			if stealing[i] != serial[i] {
				t.Fatalf("%s CQ %d diverges:\nserial:\n%s\nstealing:\n%s", name, i, serial[i], stealing[i])
			}
		}
	}
}

// TestSharedFireAllocs: a hundred subscribers of one query under the
// scheduler cost at most 10.24 allocations per batch delivered, counting
// the whole ingest — 12 000 rows at 2 000 events a second — and the closes
// the clock's advance fires. The subscribers share the feed's store, its
// fire and the rows it emits, so a fire's cost to each is a queue slot.
func TestSharedFireAllocs(t *testing.T) {
	queries := make([]string, 100)
	for i := range queries {
		queries[i] = sharedClickQuery
	}
	rows := workload.NewClickstream(workload.ClickConfig{Seed: 15, EventsPerSec: 2000}).Take(12_000)
	_, fires, mallocs := runClickCQs(t, Config{ParallelCQ: 8}, queries, rows, 30*time.Second)
	if fires < len(queries) {
		t.Fatalf("%d CQs delivered %d batches", len(queries), fires)
	}
	perFire := float64(mallocs) / float64(fires)
	t.Logf("%d batches delivered, %.2f allocations a batch", fires, perFire)
	if perFire > 10.24 && !racing {
		t.Fatalf("%.2f allocations per delivered batch, want at most 10.24", perFire)
	}
}

// TestParallelProducerStress is the -race stress test: goroutines push to
// distinct streams (no contention expected) while several more hammer one
// shared stream under LateClamp (timestamps collide and clamp). Per-CQ
// window contents on the distinct streams must match a serial engine fed
// the same rows; the shared stream's CQ must see every row exactly once
// across monotonically ordered windows.
func TestParallelProducerStress(t *testing.T) {
	const (
		producers   = 4
		sharedProds = 3
		batches     = 25
		batchRows   = 8
	)
	e, err := Open(Config{ParallelCQ: 4, LateRows: LateClamp})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	serial, err := Open(Config{LateRows: LateClamp})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()

	cqText := func(s string) string {
		return fmt.Sprintf(`SELECT url, count(*) FROM %s <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url`, s)
	}
	mkStream := func(eng *Engine, name string) *CQ {
		t.Helper()
		mustExec(t, eng, fmt.Sprintf(
			`CREATE STREAM %s (url varchar, atime timestamp CQTIME USER, client_ip varchar)`, name))
		cq, err := eng.Subscribe(cqText(name))
		if err != nil {
			t.Fatal(err)
		}
		return cq
	}

	parCQs := make([]*CQ, producers)
	serCQs := make([]*CQ, producers)
	for i := 0; i < producers; i++ {
		name := fmt.Sprintf("s%d", i)
		parCQs[i] = mkStream(e, name)
		serCQs[i] = mkStream(serial, name)
	}
	sharedCQ := mkStream(e, "shared")

	// genBatch is deterministic per (producer, batch), so the serial engine
	// can replay the identical feed.
	genBatch := func(prod, step int) []Row {
		rng := rand.New(rand.NewSource(int64(prod*1000 + step)))
		rows := make([]Row, batchRows)
		base := int64(60_000_000) * int64(100+step*2)
		for i := range rows {
			rows[i] = Row{
				String(fmt.Sprintf("/p%d", rng.Intn(3))),
				Timestamp(time.UnixMicro(base + int64(rng.Intn(90_000_000))).UTC()),
				String("ip"),
			}
		}
		return rows
	}

	var wg sync.WaitGroup
	errs := make(chan error, producers+sharedProds)
	for prod := 0; prod < producers; prod++ {
		wg.Add(1)
		go func(prod int) {
			defer wg.Done()
			name := fmt.Sprintf("s%d", prod)
			for step := 0; step < batches; step++ {
				if err := e.Append(name, genBatch(prod, step)...); err != nil {
					errs <- fmt.Errorf("producer %d: %w", prod, err)
					return
				}
			}
		}(prod)
	}
	var sharedPushed int64
	var sharedMu sync.Mutex
	for prod := 0; prod < sharedProds; prod++ {
		wg.Add(1)
		go func(prod int) {
			defer wg.Done()
			for step := 0; step < batches; step++ {
				rows := genBatch(100+prod, step)
				if err := e.Append("shared", rows...); err != nil {
					errs <- fmt.Errorf("shared producer %d: %w", prod, err)
					return
				}
				sharedMu.Lock()
				sharedPushed += int64(len(rows))
				sharedMu.Unlock()
			}
		}(prod)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Close all windows and drain the workers.
	endTS := time.UnixMicro(60_000_000 * 1000)
	for i := 0; i < producers; i++ {
		if err := e.AdvanceTime(fmt.Sprintf("s%d", i), endTS); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AdvanceTime("shared", endTS); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	// Distinct streams: replay each feed serially and compare exactly.
	render := func(cq *CQ) []string {
		var out []string
		for _, b := range cq.Drain() {
			for _, r := range b.Rows {
				out = append(out, fmt.Sprintf("%d|%s", b.Close.UnixMicro(), r.String()))
			}
		}
		return out
	}
	for prod := 0; prod < producers; prod++ {
		name := fmt.Sprintf("s%d", prod)
		for step := 0; step < batches; step++ {
			if err := serial.Append(name, genBatch(prod, step)...); err != nil {
				t.Fatal(err)
			}
		}
		if err := serial.AdvanceTime(name, endTS); err != nil {
			t.Fatal(err)
		}
		got, want := render(parCQs[prod]), render(serCQs[prod])
		if len(got) == 0 {
			t.Fatalf("stream %s produced no windows", name)
		}
		for j := range want {
			if j >= len(got) || got[j] != want[j] {
				t.Fatalf("stream %s diverges at %d:\nparallel: %v\nserial:   %v", name, j, got, want)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("stream %s: parallel %d results, serial %d", name, len(got), len(want))
		}
	}

	// Shared stream: interleaving is nondeterministic, but LateClamp keeps
	// every row, window closes must be monotone, and with VISIBLE = 2 ×
	// ADVANCE every retained row is counted exactly twice.
	var lastClose int64 = -1 << 62
	var counted int64
	for _, b := range sharedCQ.Drain() {
		if b.Close.UnixMicro() <= lastClose {
			t.Fatalf("shared CQ close %d not after %d", b.Close.UnixMicro(), lastClose)
		}
		lastClose = b.Close.UnixMicro()
		for _, r := range b.Rows {
			counted += r[1].Int()
		}
	}
	if counted != 2*sharedPushed {
		t.Fatalf("shared CQ counted %d row-appearances, want %d (2 × %d pushed)",
			counted, 2*sharedPushed, sharedPushed)
	}
	if dropped := e.Stats().LateDropped; dropped != 0 {
		t.Fatalf("LateClamp dropped %d rows", dropped)
	}
}
