package stream

import (
	"fmt"
	"math/rand"
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

// TestPruneKeepsExactlyTheLiveExtent: after a close at c, the feed's
// buffer holds only rows a future window can still read.
func TestPruneKeepsExactlyTheLiveExtent(t *testing.T) {
	e := newEnv(t, false) // re-executing, so the raw buffer is in use
	pipe, _ := e.subscribe(t, `SELECT count(*) FROM url_stream <VISIBLE '3 minutes' ADVANCE '1 minute'>`)
	for m := 0; m < 10; m++ {
		e.hit(t, "/x", int64(100+m)*minute+1, "ip")
	}
	e.rt.Advance("url_stream", 110*minute)
	// Next close is 111m covering [108m, 111m): only rows ≥ 108m survive.
	for _, tr := range pipe.feed.pending {
		if tr.ts < 108*minute {
			t.Fatalf("stale row at %d retained", tr.ts)
		}
	}
	if len(pipe.feed.pending) != 2 { // rows at 108m+1, 109m+1
		t.Fatalf("pending = %d rows", len(pipe.feed.pending))
	}
}

// TestStoreRetention: a store keeps the slices its widest view can still
// read and no more — bounded over a 30-minute run under every store
// strategy, and shrinking once the widest view's last member leaves.
func TestStoreRetention(t *testing.T) {
	for _, override := range []plan.StateOverride{plan.StateAuto, plan.StateMerge} {
		e := newEnvOverride(t, override)
		narrow, _ := e.subscribe(t, `SELECT url, count(*) FROM url_stream <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url`)
		wide, _ := e.subscribe(t, `SELECT url, count(*) FROM url_stream <VISIBLE '10 minutes' ADVANCE '1 minute'> GROUP BY url`)
		state := narrow.feed.store
		if wide.feed != narrow.feed {
			t.Fatal("CQs differing only in VISIBLE must attach to one store")
		}
		for m := 0; m < 30; m++ {
			e.hit(t, "/x", int64(100+m)*minute+1, "ip")
			if got := state.SlicesN.Load(); got > 12 {
				t.Fatalf("override %d: %d slices retained under a 10-minute view", override, got)
			}
		}
		e.rt.Unsubscribe(wide)
		e.hit(t, "/x", 130*minute+1, "ip")
		if got := state.SlicesN.Load(); got > 4 {
			t.Fatalf("override %d: %d slices retained after the 10-minute view left a 2-minute one", override, got)
		}
	}
}

// TestRowWindowNeverExceedsVisible guards the ring-buffer bound.
func TestRowWindowNeverExceedsVisible(t *testing.T) {
	e := newEnv(t, true)
	pipe, out := e.subscribe(t, `SELECT count(*) FROM url_stream <VISIBLE 50 ROWS ADVANCE 7 ROWS>`)
	for i := 0; i < 500; i++ {
		e.hit(t, "/x", int64(1000+i)*1000, "ip")
	}
	if len(pipe.feed.rowBuf) > 50 {
		t.Fatalf("row buffer grew to %d", len(pipe.feed.rowBuf))
	}
	for _, b := range *out {
		if c := b.rows[0][0].Int(); c > 50 {
			t.Fatalf("window reported %d rows (> VISIBLE)", c)
		}
	}
}

// TestEmissionBufferBounded: SLICES windows retain only the last n
// emissions.
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
	if len(pipe.feed.emissions) > 3 {
		t.Fatalf("emission buffer grew to %d", len(pipe.feed.emissions))
	}
}
