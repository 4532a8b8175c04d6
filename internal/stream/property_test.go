package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamrel/internal/catalog"
	"streamrel/internal/plan"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

func mustDerived(name string, schema types.Schema) *catalog.DerivedStream {
	return &catalog.DerivedStream{Name: name, Schema: schema, CloseCol: -1}
}

// TestTumblingPartitionProperty: tumbling windows partition the stream —
// every event is counted in exactly one window, so the window counts sum
// to the number of events. Randomized over gap distributions and advances.
func TestTumblingPartitionProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		advMinutes := 1 + r.Intn(4)
		n := 200 + r.Intn(800)
		e := newEnv(t, trial%2 == 0)
		_, out := e.subscribe(t, fmt.Sprintf(
			`SELECT count(*) FROM url_stream <ADVANCE '%d minutes'>`, advMinutes))
		ts := int64(100 * minute)
		for i := 0; i < n; i++ {
			ts += int64(r.Intn(int(minute / 2)))
			e.hit(t, "/x", ts, "ip")
		}
		e.rt.Advance("url_stream", ts+10*int64(advMinutes)*minute)
		var sum int64
		for _, b := range *out {
			for _, row := range b.rows {
				sum += row[0].Int()
			}
		}
		if sum != int64(n) {
			t.Fatalf("trial %d (adv=%dm, n=%d): windows counted %d events",
				trial, advMinutes, n, sum)
		}
	}
}

// TestSlidingMultiplicityProperty: with VISIBLE = k·ADVANCE, every event
// appears in exactly k windows (once the stream has fully passed), so the
// counts sum to k·n.
func TestSlidingMultiplicityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		k := 2 + r.Intn(4)
		n := 200 + r.Intn(500)
		e := newEnv(t, trial%2 == 0)
		_, out := e.subscribe(t, fmt.Sprintf(
			`SELECT count(*) FROM url_stream <VISIBLE '%d minutes' ADVANCE '1 minute'>`, k))
		ts := int64(100 * minute)
		for i := 0; i < n; i++ {
			ts += int64(r.Intn(int(minute / 4)))
			e.hit(t, "/x", ts, "ip")
		}
		// Push time far enough that every event has exited the extent.
		e.rt.Advance("url_stream", ts+int64(k+2)*minute)
		var sum int64
		for _, b := range *out {
			for _, row := range b.rows {
				sum += row[0].Int()
			}
		}
		if sum != int64(k*n) {
			t.Fatalf("trial %d (k=%d, n=%d): counted %d, want %d", trial, k, n, sum, k*n)
		}
	}
}

// TestPruneKeepsExactlyTheLiveExtent: after a close at c, a re-executing
// CQ's raw store holds only rows a future window can still read.
func TestPruneKeepsExactlyTheLiveExtent(t *testing.T) {
	e := newEnv(t, false) // re-executing, so the store is raw
	pipe, _ := e.subscribe(t, `SELECT count(*) FROM url_stream <VISIBLE '3 minutes' ADVANCE '1 minute'>`)
	for m := 0; m < 10; m++ {
		e.hit(t, "/x", int64(100+m)*minute+1, "ip")
	}
	e.rt.Advance("url_stream", 110*minute)
	// Next close is 111m covering [108m, 111m): only rows ≥ 108m survive.
	rows, slices := retained(t, pipe.feed, 0, 111*minute)
	for _, r := range rows {
		if ts := r[1].TimestampMicros(); ts < 108*minute {
			t.Fatalf("stale row at %d retained", ts)
		}
	}
	if len(rows) != 2 || slices != 2 { // rows at 108m+1, 109m+1
		t.Fatalf("store retains %d rows in %d slices", len(rows), slices)
	}
}

// retained reads the rows f's raw store holds in [lo, hi) — of an aggregate
// store, the aggregate rows over them — through a view attached for the
// call, and the count of slices it holds in all.
func retained(t *testing.T, f *feed, lo, hi int64) ([]types.Row, int64) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	v := f.store.Attach(hi - lo)
	defer f.store.Detach(v)
	rows, _, _, err := v.Fire(hi, false)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Clone(rows), f.store.SlicesN.Load()
}

// TestStoreRetention: a store keeps the slices its widest view can still
// read and no more — bounded over a 30-minute run, and shrinking once the
// widest view's last member leaves.
func TestStoreRetention(t *testing.T) {
	e := newEnvOverride(t, plan.StateAuto)
	narrow, _ := e.subscribe(t, `SELECT url, count(*) FROM url_stream <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url`)
	wide, _ := e.subscribe(t, `SELECT url, count(*) FROM url_stream <VISIBLE '10 minutes' ADVANCE '1 minute'> GROUP BY url`)
	state := narrow.feed.store
	if wide.feed != narrow.feed {
		t.Fatal("CQs differing only in VISIBLE must attach to one store")
	}
	for m := 0; m < 30; m++ {
		e.hit(t, "/x", int64(100+m)*minute+1, "ip")
		if got := state.SlicesN.Load(); got > 12 {
			t.Fatalf("%d slices retained under a 10-minute view", got)
		}
	}
	e.rt.Unsubscribe(wide)
	e.hit(t, "/x", 130*minute+1, "ip")
	if got := state.SlicesN.Load(); got > 4 {
		t.Fatalf("%d slices retained after the 10-minute view left a 2-minute one", got)
	}
}

// TestRowWindowNeverExceedsVisible: a ROWS window's raw store — here under a
// plan that is no aggregate — holds at most VISIBLE rows, after a close at
// row m the rows from m + ADVANCE − VISIBLE on; an aggregate store holds the
// ADVANCE rows its next close retracts as well, the rows from m − VISIBLE
// on. Every window reports at most VISIBLE rows under either.
func TestRowWindowNeverExceedsVisible(t *testing.T) {
	e := newEnv(t, true)
	raw, rawOut := e.subscribe(t, `SELECT url FROM url_stream <VISIBLE 50 ROWS ADVANCE 7 ROWS>`)
	agg, aggOut := e.subscribe(t, `SELECT count(*) FROM url_stream <VISIBLE 50 ROWS ADVANCE 7 ROWS>`)
	if raw.Strategy() != "reexec" || agg.Strategy() != "incremental" {
		t.Fatalf("strategies %s and %s, want reexec and incremental", raw.Strategy(), agg.Strategy())
	}
	for n := int64(1); n <= 500; n++ {
		e.hit(t, "/x", (1000+n)*1000, "ip")
		rows, _ := retained(t, raw.feed, n-1000, n)
		if want := min(n, n%7+43); int64(len(rows)) != want || want > 50 {
			t.Fatalf("after %d rows the raw store retains %d, want %d", n, len(rows), want)
		}
		rows, _ = retained(t, agg.feed, n-1000, n)
		if want := min(n, n%7+50); rows[0][0].Int() != want || want > 50+7-1 {
			t.Fatalf("after %d rows the aggregate store retains %s, want %d", n, rows[0], want)
		}
	}
	for i, b := range *aggOut {
		if c, r := b.rows[0][0].Int(), len((*rawOut)[i].rows); c > 50 || int64(r) != c {
			t.Fatalf("window %d reported %d and %d rows (> VISIBLE, or unequal)", i, c, r)
		}
	}
}

// TestEmissionBufferBounded: a SLICES window's raw store — here under a plan
// that is no aggregate — retains only the emissions its next window reads;
// an aggregate store the one that window retracts as well.
func TestEmissionBufferBounded(t *testing.T) {
	e := newEnv(t, true)
	schema := types.Schema{{Name: "v", Type: types.TypeInt}}
	if err := e.rt.RegisterSource("d", schema, -1); err != nil {
		t.Fatal(err)
	}
	// Plan a slices CQ by hand through the catalog.
	e.cat.CreateDerivedStream(mustDerived("d", schema))
	raw, _ := e.subscribe(t, `SELECT v FROM d <SLICES 3 WINDOWS>`)
	agg, _ := e.subscribe(t, `SELECT count(*), sum(v) FROM d <SLICES 3 WINDOWS>`)
	if raw.Strategy() != "reexec" || agg.Strategy() != "incremental" {
		t.Fatalf("strategies %s and %s, want reexec and incremental", raw.Strategy(), agg.Strategy())
	}
	for i := 0; i < 20; i++ {
		rows := []types.Row{{types.NewInt(int64(i))}}
		if err := e.rt.emitDerived(trace.Ctx{}, "d", int64(i+1)*minute, rows); err != nil {
			t.Fatal(err)
		}
	}
	// Emissions 18 and 19 are read again by the window closing at the 21st,
	// which retracts 17.
	rows, slices := retained(t, raw.feed, 0, 20)
	if slices != 2 || len(rows) != 2 || rows[0][0].Int() != 18 || rows[1][0].Int() != 19 {
		t.Fatalf("raw store retains %v in %d slices", rows, slices)
	}
	rows, slices = retained(t, agg.feed, 0, 20)
	if slices != 3 || rows[0][0].Int() != 3 || rows[0][1].Int() != 17+18+19 {
		t.Fatalf("aggregate store retains %v in %d slices", rows, slices)
	}
}

// TestCountWindowContentsProperty: every fire of a count window reports the
// count, the sum and the cq_close(*) of a naive reference, re-executing and
// on an aggregate store, drained by the producer and by the pool — the last
// VISIBLE rows for ROWS (any ADVANCE, a divisor of VISIBLE or not, above it
// too, so paired cuts run, over runs of equal timestamps, in random
// batches), the last n emissions for SLICES n (some of them empty).
func TestCountWindowContentsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	type fired struct{ count, sum, close int64 }
	// check runs q under both strategies and both drain policies: feed
	// pushes the input to e.
	check := func(trial int, q string, setup, feed func(e *env), want []fired) {
		t.Helper()
		for _, arm := range []struct {
			sharing bool
			depth   int
		}{{false, 0}, {true, 0}, {false, 4}, {true, 4}} {
			e := newParallelEnv(t, arm.sharing, arm.depth)
			setup(e)
			pipe, out := e.subscribe(t, q)
			if (pipe.Strategy() == "incremental") != arm.sharing {
				t.Fatalf("%s: strategy %s under %+v", q, pipe.Strategy(), arm)
			}
			feed(e)
			if err := e.rt.Quiesce(); err != nil {
				t.Fatal(err)
			}
			e.rt.Close()
			got := *out
			if len(got) != len(want) {
				t.Fatalf("trial %d %s (%+v): %d fires, want %d", trial, q, arm, len(got), len(want))
			}
			for i, b := range got {
				w, row := want[i], b.rows[0]
				sumOK := row[1].IsNull() == (w.count == 0) && (w.count == 0 || row[1].Int() == w.sum)
				if b.close != w.close || row[0].Int() != w.count || !sumOK || row[2].TimestampMicros() != w.close {
					t.Fatalf("trial %d %s (%+v): fire %d = %s at %d, want %+v", trial, q, arm, i, row, b.close, w)
				}
			}
		}
	}
	schema := types.Schema{{Name: "v", Type: types.TypeInt}, {Name: "at", Type: types.TypeTimestamp}}
	for trial := 0; trial < 40; trial++ {
		visible := int64(1 + r.Intn(12))
		advance := int64(1 + r.Intn(int(visible)+4))
		q := fmt.Sprintf(`SELECT count(*), sum(v), cq_close(*) FROM nums <VISIBLE %d ROWS ADVANCE %d ROWS>`, visible, advance)
		var vs []int64
		var want []fired
		var batches [][]types.Row
		ts := int64(minute)
		for len(vs) < 300 {
			batch := make([]types.Row, 1+r.Intn(9))
			for i := range batch {
				if r.Intn(3) == 0 { // else a run of equal timestamps
					ts += int64(r.Intn(5)) * 1000
				}
				v := int64(r.Intn(100) - 30)
				batch[i] = types.Row{types.NewInt(v), types.NewTimestampMicros(ts)}
				if vs = append(vs, v); int64(len(vs))%advance == 0 {
					last := vs[max(0, int64(len(vs))-visible):]
					w := fired{count: int64(len(last)), close: ts}
					for _, x := range last {
						w.sum += x
					}
					want = append(want, w)
				}
			}
			batches = append(batches, batch)
		}
		check(trial, q, func(e *env) {
			if _, err := e.cat.CreateStream("nums", schema, 1, false); err != nil {
				t.Fatal(err)
			}
			if err := e.rt.RegisterSource("nums", schema, 1); err != nil {
				t.Fatal(err)
			}
		}, func(e *env) {
			for _, batch := range batches {
				if err := e.push("nums", batch...); err != nil {
					t.Fatal(err)
				}
			}
		}, want)

		n := 1 + r.Intn(5)
		q = fmt.Sprintf(`SELECT count(*), sum(v), cq_close(*) FROM d <SLICES %d WINDOWS>`, n)
		var emitted [][]types.Row
		want = want[:0]
		for k := int64(1); k <= 60; k++ {
			var rows []types.Row
			for i := r.Intn(4); i > 0; i-- { // a quarter of them empty
				rows = append(rows, types.Row{types.NewInt(int64(r.Intn(50)))})
			}
			emitted = append(emitted, rows)
			w := fired{close: k * minute}
			for _, em := range emitted[max(0, len(emitted)-n):] {
				for _, row := range em {
					w.count, w.sum = w.count+1, w.sum+row[0].Int()
				}
			}
			want = append(want, w)
		}
		check(trial, q, func(e *env) {
			if err := e.rt.RegisterSource("d", schema[:1], -1); err != nil {
				t.Fatal(err)
			}
			e.cat.CreateDerivedStream(mustDerived("d", schema[:1]))
		}, func(e *env) {
			for k, rows := range emitted {
				if err := e.rt.emitDerived(trace.Ctx{}, "d", int64(k+1)*minute, rows); err != nil {
					t.Fatal(err)
				}
			}
		}, want)
	}
}
