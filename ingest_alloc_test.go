package streamrel

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Steady-state allocation regression tests for the ingest hot path:
// Append → source.prepare (pooled batch block) → window pending buffer.
// The CQ window is sized so it never fires during the measurement, which
// isolates the per-row buffering cost from fire-time work. Budgets are
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
	// Warm the batch pools and grow the pending buffer past its first
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

// TestEnrichFireAllocsIndependentOfWindowRows pins what aggregating below
// the join buys at the close: an enrichment CQ joins one partial row per
// url to the dimension table, so a fire over 10 000 window rows allocates
// what a fire over 1 000 does (re-executing the join carved a joined row
// per window row). AdvanceTime closes the boundary without appending, so
// the measured call is the fire alone.
func TestEnrichFireAllocsIndependentOfWindowRows(t *testing.T) {
	fire := func(windowRows int) float64 {
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e.AdvanceTime("hits", base.Add(12*time.Second))
		runtime.ReadMemStats(&after)
		if b := cq.Drain(); len(b) != 1 || len(b[0].Rows) != 8 {
			t.Fatalf("the heartbeat fired %d windows", len(b))
		}
		return float64(after.Mallocs - before.Mallocs)
	}
	small, large := fire(1000), fire(10000)
	t.Logf("enrichment fire: %.0f allocations over 1000 window rows, %.0f over 10000", small, large)
	// 38: the view's block and slice, the scan and hash table over the 100
	// table rows, and the post stage's 8 groups in one chunk (91 at six
	// objects a group).
	if large > small+4 || large > 44 {
		t.Errorf("an enrichment fire allocates %.0f times over 1000 window rows and %.0f over 10000, want ≤ 44 over either", small, large)
	}
}
