package streamrel

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// Steady-state allocation regression tests for the ingest hot path:
// Append → source.prepare (pooled batch block) → the slice of the window's
// raw store (a ROWS window re-executes, so its store keeps the rows). The CQ
// window is sized so it never fires during the measurement, which isolates
// the per-row cost of keeping a row from fire-time work. Budgets are
// deliberately loose (the measured steady state is well under 1
// alloc/row; the pre-overhaul code sat near 3) so the tests catch a
// reintroduced per-row allocation, not scheduler noise.

const allocBatch = 256

// measureIngestAllocs returns steady-state allocations per row appending
// pre-built 256-row batches into one never-firing CQ.
func measureIngestAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	cfg.TraceSampleEvery = -1
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, err := e.Subscribe(`SELECT v, count(*) FROM s
		<VISIBLE 100000000 ROWS ADVANCE 100000000 ROWS> GROUP BY v`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()

	const runs = 50
	// Pre-build every batch: row construction must not count against the
	// engine. AllocsPerRun invokes f runs+1 times; add warmup batches.
	batches := make([][]Row, runs+4)
	ts := MustTimestamp("2009-01-04 00:00:00")
	for i := range batches {
		rows := make([]Row, allocBatch)
		for j := range rows {
			ts = ts.Add(time.Millisecond)
			rows[j] = Row{Int(int64(j)), Timestamp(ts)}
		}
		batches[i] = rows
	}
	idx := 0
	push := func() {
		if err := e.Append("s", batches[idx]...); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	// Warm the batch pools and grow the open slice's rows past their first
	// doublings before measuring.
	push()
	push()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	perRun := testing.AllocsPerRun(runs, push)
	return perRun / allocBatch
}

func TestIngestAllocsPerRowSerial(t *testing.T) {
	perRow := measureIngestAllocs(t, Config{})
	t.Logf("serial steady-state: %.3f allocs/row", perRow)
	if perRow > 1.5 {
		t.Fatalf("serial ingest allocates %.3f/row, budget 1.5", perRow)
	}
}

func TestIngestAllocsPerRowWorker(t *testing.T) {
	perRow := measureIngestAllocs(t, Config{ParallelCQ: 2})
	t.Logf("worker-mode steady-state: %.3f allocs/row", perRow)
	if perRow > 1.5 {
		t.Fatalf("worker-mode ingest allocates %.3f/row, budget 1.5", perRow)
	}
}

// TestIngestAllocsReport is a convenience: -run TestIngestAllocsReport -v
// prints both modes side by side for DESIGN.md / README refreshes.
func TestIngestAllocsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("reporting only")
	}
	for _, m := range []struct {
		name string
		cfg  Config
	}{{"serial", Config{}}, {"worker", Config{ParallelCQ: 2}}} {
		fmt.Println(m.name, "allocs/row:", measureIngestAllocs(t, m.cfg))
	}
}

// enrichFire measures one close of an enrichment CQ over windowRows window
// rows of hits joined to a 100-row urls table in 8 categories, after running
// write (if any) against the table, and returns the close's allocations and
// the groups it fired. AdvanceTime closes the boundary without appending, so
// the measured call is the fire alone; the closes before it were fired by
// the append, so a post stage that keeps its build side has kept it.
func enrichFire(t *testing.T, windowRows int, write string) (allocs float64, groups int) {
	t.Helper()
	e, err := Open(Config{TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
	mustExec(t, e, `CREATE TABLE urls (url varchar, category varchar)`)
	dim := make([]Row, 100)
	for i := range dim {
		dim[i] = Row{String(fmt.Sprintf("/page/%03d", i)), String(fmt.Sprintf("cat-%d", i%8))}
	}
	if err := e.BulkInsert("urls", dim); err != nil {
		t.Fatal(err)
	}
	cq, err := e.Subscribe(`SELECT u.category, count(*) AS n, sum(h.bytes) AS total
		FROM hits h <VISIBLE '10 seconds' ADVANCE '1 second'>, urls u
		WHERE h.url = u.url AND h.bytes > 10 GROUP BY u.category`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	if cq.Strategy != "incremental" {
		t.Fatalf("the enrichment CQ keeps no materialized store: %s", cq.Strategy)
	}
	// Twelve seconds of traffic, windowRows of them in any ten: the
	// window is full and sliding when the measured boundary closes.
	base := MustTimestamp("2009-01-04 00:00:00")
	rows := make([]Row, windowRows*12/10)
	for i := range rows {
		at := base.Add(time.Duration(i) * 10 * time.Second / time.Duration(windowRows))
		rows[i] = Row{dim[i%len(dim)][0], Timestamp(at), Int(int64(11 + i%50))}
	}
	if err := e.Append("hits", rows...); err != nil {
		t.Fatal(err)
	}
	cq.Drain()
	if write != "" {
		mustExec(t, e, write)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.AdvanceTime("hits", base.Add(12*time.Second))
	runtime.ReadMemStats(&after)
	b := cq.Drain()
	if len(b) != 1 {
		t.Fatalf("the heartbeat fired %d windows", len(b))
	}
	return float64(after.Mallocs - before.Mallocs), len(b[0].Rows)
}

// TestEnrichFireAllocsIndependentOfWindowRows pins what aggregating below
// the join buys at the close: an enrichment CQ joins one partial row per
// url to the dimension table, so a fire over 10 000 window rows allocates
// what a fire over 1 000 does (re-executing the join carved a joined row
// per window row).
func TestEnrichFireAllocsIndependentOfWindowRows(t *testing.T) {
	// With the collector off: a cycle starting inside the fire counts the
	// runtime's own objects.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The least of three fires: the runtime's own objects (a thread it
	// starts, the cache it grows at a type assertion now and then) land in
	// about one fire in forty.
	small, large, groups := math.Inf(1), math.Inf(1), 0
	for range 3 {
		n, g := enrichFire(t, 1000, "")
		m, _ := enrichFire(t, 10000, "")
		small, large, groups = min(small, n), min(large, m), g
	}
	t.Logf("enrichment fire: %.0f allocations over 1000 window rows, %.0f over 10000", small, large)
	if groups != 8 {
		t.Fatalf("the fire emitted %d groups, want 8", groups)
	}
	// 3: what the post stage, built at the first close and opened again at
	// every close after, makes fresh for the rows it delivers — its
	// projection's block and the result — over the build side of the 100
	// table rows and the groups it kept from the close before; and one slot
	// in the CQ's queue. The view, read by that tree alone, writes its rows
	// in place (5 when it carved a block and a slice at every close, 22 when
	// every close built the post stage's operators, 38 when it scanned and
	// hashed the table again too, 91 at six objects a group).
	if small > 3 || large > 3 {
		t.Errorf("an enrichment fire allocates %.0f times over 1000 window rows and %.0f over 10000, want ≤ 3 over either", small, large)
	}
}

// TestEnrichFireAllocsAfterTableWrite: the first close after a write to the
// dimension table sees it — an url moved to a ninth category — and pays for
// the build side again, the table's scan and hash table; a side kept
// regardless of the table would fire 8 groups at the cost of a hit.
func TestEnrichFireAllocsAfterTableWrite(t *testing.T) {
	hit, _ := enrichFire(t, 1000, "")
	rebuilt, groups := enrichFire(t, 1000, `UPDATE urls SET category = 'cat-9' WHERE url = '/page/000'`)
	t.Logf("enrichment fire: %.0f allocations over the kept side, %.0f after a table write", hit, rebuilt)
	if groups != 9 {
		t.Fatalf("the close after the write fired %d groups, want 9", groups)
	}
	if rebuilt < hit+6 {
		t.Errorf("the close after a table write allocates %.0f times against %.0f over a kept side, want the build's ≥ 6 more", rebuilt, hit)
	}
}
