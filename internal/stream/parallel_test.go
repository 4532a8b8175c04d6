package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"streamrel/internal/catalog"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// newParallelEnv is newEnv with a scheduler pool draining mailboxes bounded
// at depth; depth 0 is newEnv (the producer drains).
func newParallelEnv(t *testing.T, sharing bool, depth int) *env {
	t.Helper()
	e := newEnv(t, sharing)
	e.rt.SetParallel(depth)
	return e
}

// runScenario drives one deterministic workload — batched pushes with
// duplicate timestamps, heartbeats, a quiet gap — against a set of CQs and
// returns each CQ's flattened output.
func runScenario(t *testing.T, e *env, queries []string) [][]string {
	t.Helper()
	outs := make([]*[]batch, len(queries))
	for i, q := range queries {
		_, outs[i] = e.subscribe(t, q)
	}
	rng := rand.New(rand.NewSource(7))
	urls := []string{"/a", "/b", "/c", "/d"}
	ts := 10 * minute
	for step := 0; step < 40; step++ {
		n := 1 + rng.Intn(5)
		rows := make([]types.Row, n)
		for i := range rows {
			if rng.Intn(3) > 0 { // duplicates keep some rows on one timestamp
				ts += int64(rng.Intn(20)) * 1000
			}
			rows[i] = types.Row{
				types.NewString(urls[rng.Intn(len(urls))]),
				types.NewTimestampMicros(ts),
				types.NewString(fmt.Sprintf("ip%d", rng.Intn(3))),
			}
		}
		if err := e.push("url_stream", rows...); err != nil {
			t.Fatal(err)
		}
		if step == 20 {
			ts += 5 * minute // quiet gap: several empty windows
			if err := e.rt.Advance("url_stream", ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.rt.Advance("url_stream", ts+10*minute); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.Quiesce(); err != nil {
		t.Fatal(err)
	}
	got := make([][]string, len(outs))
	for i, out := range outs {
		got[i] = flatten(*out)
	}
	return got
}

// TestParallelMatchesSerial fans one source out to CQs of every window
// kind and checks that worker execution produces byte-identical results to
// the synchronous engine, with and without shared aggregation.
func TestParallelMatchesSerial(t *testing.T) {
	queries := []string{
		`SELECT url, count(*) FROM url_stream <ADVANCE '1 minute'> GROUP BY url`,
		`SELECT count(*) FROM url_stream <VISIBLE '3 minutes' ADVANCE '1 minute'>`,
		`SELECT url, count(*) FROM url_stream <VISIBLE '2 minutes' ADVANCE '2 minutes'> GROUP BY url`,
		`SELECT count(*) FROM url_stream <VISIBLE 7 ROWS ADVANCE 3 ROWS>`,
		`SELECT url FROM url_stream <VISIBLE 4 ROWS ADVANCE 4 ROWS> WHERE url = '/a'`,
	}
	for _, sharing := range []bool{false, true} {
		serial := runScenario(t, newEnv(t, sharing), queries)
		parallel := runScenario(t, newParallelEnv(t, sharing, 4), queries)
		for i := range queries {
			expect(t, parallel[i], serial[i]...)
		}
	}
}

// TestParallelSinkErrorDetaches checks the failure contract under both
// drain policies: sinks failing on a window close never keep the batch
// from a CQ subscribed after them, every failure surfaces (joined) and
// detaches its pipeline, and the other CQs keep running. Without a pool
// the errors come back from the very Push that closed the window; with
// one they surface on a later producer call.
func TestParallelSinkErrorDetaches(t *testing.T) {
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			e := newParallelEnv(t, false, depth)
			boom, bang := errors.New("sink exploded"), errors.New("second sink exploded")
			pl := mustPlan(t, e, `SELECT count(*) FROM url_stream <ADVANCE '1 minute'>`)
			for _, sinkErr := range []error{boom, bang} {
				if _, err := e.rt.Subscribe(pl, func(trace.Ctx, int64, []types.Row) error { return sinkErr }); err != nil {
					t.Fatal(err)
				}
			}
			_, healthy := e.subscribe(t, `SELECT url, count(*) FROM url_stream <ADVANCE '1 minute'> GROUP BY url`)
			if got := e.rt.Stats().Pipelines; got != 3 {
				t.Fatalf("pipelines = %d, want 3", got)
			}

			e.hit(t, "/a", 10*minute, "ip1")
			// Closes [10m,11m) for all three CQs; both failing sinks error.
			err := e.push("url_stream", types.Row{
				types.NewString("/a"), types.NewTimestampMicros(11*minute + 1), types.NewString("ip1"),
			})
			if depth > 0 {
				// The failures surface once the workers have recorded them.
				deadline := time.Now().Add(5 * time.Second)
				for !(errors.Is(err, boom) && errors.Is(err, bang)) && time.Now().Before(deadline) {
					err = errors.Join(err, e.rt.Quiesce())
				}
			}
			if !errors.Is(err, boom) || !errors.Is(err, bang) {
				t.Fatalf("expected both sink errors to surface, got %v", err)
			}
			if got := e.rt.Stats().Pipelines; got != 1 {
				t.Fatalf("pipelines after failure = %d, want 1", got)
			}

			// The healthy CQ keeps producing.
			e.hit(t, "/b", 12*minute+1, "ip1")
			if err := e.rt.Advance("url_stream", 13*minute); err != nil {
				t.Fatal(err)
			}
			if err := e.rt.Quiesce(); err != nil {
				t.Fatal(err)
			}
			expect(t, flatten(*healthy), "11:/a|1", "12:/a|1", "13:/b|1")
		})
	}
}

// TestParallelBackpressureOrder pairs a depth-1 queue with a slow sink:
// the producer must block rather than drop or reorder, and the sink must
// observe every window close in boundary order.
func TestParallelBackpressureOrder(t *testing.T) {
	e := newParallelEnv(t, false, 1)
	var mu sync.Mutex
	var closes []int64
	pl := mustPlan(t, e, `SELECT count(*) FROM url_stream <ADVANCE '1 minute'>`)
	if _, err := e.rt.Subscribe(pl, func(_ trace.Ctx, c int64, _ []types.Row) error {
		time.Sleep(time.Millisecond)
		mu.Lock()
		closes = append(closes, c)
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const windows = 50
	for i := 0; i <= windows; i++ {
		e.hit(t, "/a", int64(10+i)*minute, "ip1")
	}
	if err := e.rt.Quiesce(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(closes) != windows {
		t.Fatalf("got %d closes, want %d", len(closes), windows)
	}
	for i := 1; i < len(closes); i++ {
		if closes[i] != closes[i-1]+minute {
			t.Fatalf("closes out of order at %d: %v", i, closes[:i+1])
		}
	}
}

// TestParallelUnsubscribeAndClose checks worker teardown: Unsubscribe
// stops a worker without affecting others, Close drains the rest, and both
// are idempotent.
func TestParallelUnsubscribeAndClose(t *testing.T) {
	e := newParallelEnv(t, false, 2)
	pipe, _ := e.subscribe(t, `SELECT count(*) FROM url_stream <ADVANCE '1 minute'>`)
	_, out := e.subscribe(t, `SELECT url FROM url_stream <VISIBLE 1 ROWS ADVANCE 1 ROWS>`)

	e.hit(t, "/a", 10*minute, "ip1")
	e.rt.Unsubscribe(pipe)
	e.rt.Unsubscribe(pipe) // idempotent
	if got := e.rt.Stats().Pipelines; got != 1 {
		t.Fatalf("pipelines = %d, want 1", got)
	}
	e.hit(t, "/b", 11*minute, "ip1")
	if err := e.rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	expect(t, flatten(*out), "10:/a", "11:/b")
	if _, err := e.rt.Subscribe(pipe.Plan(), func(trace.Ctx, int64, []types.Row) error { return nil }); err == nil {
		t.Fatal("Subscribe after Close should fail")
	}
}

// TestParallelDerivedCascade runs a derived stream into a SLICES consumer
// under both drain policies. With a pool the upstream worker's emission
// must flow through the derived source into the downstream worker, and
// Quiesce must wait for the whole cascade; without one the fire on the
// draining producer emits into the derived source and drains that too,
// and is held to the same transcript.
func TestParallelDerivedCascade(t *testing.T) {
	for _, depth := range []int{0, 2} {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			e := newParallelEnv(t, false, depth)
			schema := types.Schema{
				{Name: "n", Type: types.TypeInt},
				{Name: "stime", Type: types.TypeTimestamp},
			}
			if err := e.rt.RegisterSource("counts", schema, -1); err != nil {
				t.Fatal(err)
			}
			e.cat.CreateDerivedStream(&catalog.DerivedStream{Name: "counts", Schema: schema, CloseCol: 1})

			pl := mustPlan(t, e, `SELECT count(*), cq_close(*) FROM url_stream <ADVANCE '1 minute'>`)
			if _, err := e.rt.Subscribe(pl, e.rt.DerivedSink("counts")); err != nil {
				t.Fatal(err)
			}
			_, out := e.subscribe(t, `SELECT sum(n) FROM counts <SLICES 2 WINDOWS>`)

			e.hit(t, "/a", 10*minute, "ip1")
			e.hit(t, "/b", 10*minute+1, "ip1")
			e.hit(t, "/c", 11*minute+1, "ip1")
			if err := e.rt.Advance("url_stream", 13*minute); err != nil {
				t.Fatal(err)
			}
			want := []string{
				"11:2", // first emission alone
				"12:3", // windows closing at 11m (2 rows) + 12m (1 row)
				"13:1", // 12m (1 row) + 13m (0 rows, empty emission)
			}
			if depth == 0 {
				// Producer-drained: everything is delivered before Advance returns.
				expect(t, flatten(*out), want...)
			}
			if err := e.rt.Quiesce(); err != nil {
				t.Fatal(err)
			}
			expect(t, flatten(*out), want...)
		})
	}
}

// mustPlan compiles a CQ statement without subscribing it.
func mustPlan(t *testing.T, e *env, src string) *plan.Plan {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pl, err := (&plan.Planner{Cat: e.cat}).BuildSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	return pl
}
