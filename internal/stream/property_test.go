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

// retained reads the rows f's raw store holds in [lo, hi), through a view
// attached for the call, and the count of slices it holds in all.
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

// TestRowWindowNeverExceedsVisible: a ROWS window's raw store holds at most
// VISIBLE rows — after a close at row m, the rows from m + ADVANCE − VISIBLE
// on — and every window reports at most VISIBLE.
func TestRowWindowNeverExceedsVisible(t *testing.T) {
	e := newEnv(t, true)
	pipe, out := e.subscribe(t, `SELECT count(*) FROM url_stream <VISIBLE 50 ROWS ADVANCE 7 ROWS>`)
	for n := int64(1); n <= 500; n++ {
		e.hit(t, "/x", (1000+n)*1000, "ip")
		rows, _ := retained(t, pipe.feed, n-1000, n)
		if want := min(n, n-n/7*7+43); int64(len(rows)) != want || want > 50 {
			t.Fatalf("after %d rows the store retains %d, want %d", n, len(rows), want)
		}
	}
	for _, b := range *out {
		if c := b.rows[0][0].Int(); c > 50 {
			t.Fatalf("window reported %d rows (> VISIBLE)", c)
		}
	}
}

// TestEmissionBufferBounded: a SLICES window's raw store retains only the
// emissions its next window reads.
func TestEmissionBufferBounded(t *testing.T) {
	e := newEnv(t, true)
	schema := types.Schema{{Name: "v", Type: types.TypeInt}}
	if err := e.rt.RegisterSource("d", schema, -1); err != nil {
		t.Fatal(err)
	}
	// Plan a slices CQ by hand through the catalog.
	e.cat.CreateDerivedStream(mustDerived("d", schema))
	pipe, _ := e.subscribe(t, `SELECT count(*) FROM d <SLICES 3 WINDOWS>`)
	for i := 0; i < 20; i++ {
		rows := []types.Row{{types.NewInt(int64(i))}}
		if err := e.rt.emitDerived(trace.Ctx{}, "d", int64(i+1)*minute, rows); err != nil {
			t.Fatal(err)
		}
	}
	// Emissions 18 and 19 are read again by the window closing at the 21st.
	rows, slices := retained(t, pipe.feed, 0, 20)
	if slices != 2 || len(rows) != 2 || rows[0][0].Int() != 18 || rows[1][0].Int() != 19 {
		t.Fatalf("store retains %v in %d slices", rows, slices)
	}
}

// TestCountWindowContentsProperty: every fire of a count window reports the
// count, the sum and the cq_close(*) of a naive reference — the last VISIBLE
// rows for ROWS (any ADVANCE ≤ VISIBLE, a multiple of it or not, so paired
// cuts run too, over runs of equal timestamps, in random batches), the last n
// emissions for SLICES n (some of them empty).
func TestCountWindowContentsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	type fired struct{ count, sum, close int64 }
	check := func(trial int, what string, got []batch, want []fired) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("trial %d %s: %d fires, want %d", trial, what, len(got), len(want))
		}
		for i, b := range got {
			w, row := want[i], b.rows[0]
			sumOK := row[1].IsNull() == (w.count == 0) && (w.count == 0 || row[1].Int() == w.sum)
			if b.close != w.close || row[0].Int() != w.count || !sumOK || row[2].TimestampMicros() != w.close {
				t.Fatalf("trial %d %s: fire %d = %s at %d, want %+v", trial, what, i, row, b.close, w)
			}
		}
	}
	schema := types.Schema{{Name: "v", Type: types.TypeInt}, {Name: "at", Type: types.TypeTimestamp}}
	for trial := 0; trial < 40; trial++ {
		e := newEnvOverride(t, plan.StateAuto)
		if _, err := e.cat.CreateStream("nums", schema, 1, false); err != nil {
			t.Fatal(err)
		}
		if err := e.rt.RegisterSource("nums", schema, 1); err != nil {
			t.Fatal(err)
		}
		visible := int64(1 + r.Intn(12))
		advance := int64(1 + r.Intn(int(visible)))
		q := fmt.Sprintf(`SELECT count(*), sum(v), cq_close(*) FROM nums <VISIBLE %d ROWS ADVANCE %d ROWS>`, visible, advance)
		pipe, out := e.subscribe(t, q)
		if pipe.Strategy() != "reexec" {
			t.Fatalf("%s: strategy %s", q, pipe.Strategy())
		}
		var vs []int64
		var want []fired
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
			if err := e.push("nums", batch...); err != nil {
				t.Fatal(err)
			}
		}
		check(trial, q, *out, want)

		e = newEnvOverride(t, plan.StateAuto)
		if err := e.rt.RegisterSource("d", schema[:1], -1); err != nil {
			t.Fatal(err)
		}
		e.cat.CreateDerivedStream(mustDerived("d", schema[:1]))
		n := 1 + r.Intn(5)
		q = fmt.Sprintf(`SELECT count(*), sum(v), cq_close(*) FROM d <SLICES %d WINDOWS>`, n)
		_, out = e.subscribe(t, q)
		var emitted [][]int64
		want = want[:0]
		for k := int64(1); k <= 60; k++ {
			var rows []types.Row
			var em []int64
			for i := r.Intn(4); i > 0; i-- { // a quarter of them empty
				v := int64(r.Intn(50))
				rows, em = append(rows, types.Row{types.NewInt(v)}), append(em, v)
			}
			emitted = append(emitted, em)
			w := fired{close: k * minute}
			for _, em := range emitted[max(0, len(emitted)-n):] {
				for _, v := range em {
					w.count, w.sum = w.count+1, w.sum+v
				}
			}
			want = append(want, w)
			if err := e.rt.emitDerived(trace.Ctx{}, "d", k*minute, rows); err != nil {
				t.Fatal(err)
			}
		}
		check(trial, q, *out, want)
	}
}
