package stream

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"streamrel/internal/catalog"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/trace"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

const minute = int64(60_000_000) // microseconds

// batch is one captured window result.
type batch struct {
	close int64
	rows  []types.Row
}

type env struct {
	cat *catalog.Catalog
	mgr *txn.Manager
	rt  *Runtime
}

// newEnv builds a runtime on one side of the window-state decision:
// sharing attaches sliceable CQs to stores (plan.StateAuto), !sharing makes
// every CQ buffer and re-execute (plan.StateReexec).
func newEnv(t *testing.T, sharing bool) *env {
	t.Helper()
	if sharing {
		return newEnvOverride(t, plan.StateAuto)
	}
	return newEnvOverride(t, plan.StateReexec)
}

func newEnvOverride(t *testing.T, override plan.StateOverride) *env {
	t.Helper()
	e := &env{cat: catalog.New(), mgr: txn.NewManager(), rt: NewRuntime(txnMgr(), override, nil)}
	e.rt.mgr = e.mgr
	if _, err := e.cat.CreateStream("url_stream", types.Schema{
		{Name: "url", Type: types.TypeString},
		{Name: "atime", Type: types.TypeTimestamp},
		{Name: "client_ip", Type: types.TypeString},
	}, 1, false); err != nil {
		t.Fatal(err)
	}
	if err := e.rt.RegisterSource("url_stream", types.Schema{
		{Name: "url", Type: types.TypeString},
		{Name: "atime", Type: types.TypeTimestamp},
		{Name: "client_ip", Type: types.TypeString},
	}, 1); err != nil {
		t.Fatal(err)
	}
	return e
}

func txnMgr() *txn.Manager { return txn.NewManager() }

// subscribe compiles a CQ and collects its output batches.
func (e *env) subscribe(t *testing.T, src string) (*Pipeline, *[]batch) {
	t.Helper()
	stmt, err := sql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p := &plan.Planner{Cat: e.cat}
	pl, err := p.BuildSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	out := &[]batch{}
	pipe, err := e.rt.Subscribe(pl, func(_ trace.Ctx, c int64, rows []types.Row) error {
		*out = append(*out, batch{c, rows})
		return nil
	})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	return pipe, out
}

// push appends rows to a stream with no trace context and their own
// timestamps.
func (e *env) push(stream string, rows ...types.Row) error {
	_, err := e.rt.PushBatch(trace.Ctx{}, stream, rows, nil)
	return err
}

// hit pushes one url_stream event.
func (e *env) hit(t *testing.T, url string, ts int64, ip string) {
	t.Helper()
	err := e.push("url_stream", types.Row{
		types.NewString(url), types.NewTimestampMicros(ts), types.NewString(ip),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func flatten(bs []batch) []string {
	var out []string
	for _, b := range bs {
		for _, r := range b.rows {
			out = append(out, fmt.Sprintf("%d:%s", b.close/minute, r.String()))
		}
	}
	return out
}

func expect(t *testing.T, got []string, want ...string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestTumblingWindowCounts exercises Figure 1: each window produces a
// relation; the query runs over each in turn.
func TestTumblingWindowCounts(t *testing.T) {
	e := newEnv(t, true)
	_, out := e.subscribe(t, `SELECT url, count(*) FROM url_stream <ADVANCE '1 minute'> GROUP BY url`)

	e.hit(t, "/a", 10*minute+1, "ip1")
	e.hit(t, "/a", 10*minute+2, "ip2")
	e.hit(t, "/b", 10*minute+3, "ip1")
	// Nothing fires until time passes the boundary.
	if len(*out) != 0 {
		t.Fatalf("window fired early: %v", *out)
	}
	e.hit(t, "/c", 11*minute+1, "ip1") // proves window [10m,11m) complete
	expect(t, flatten(*out), "11:/a|2", "11:/b|1")

	// Heartbeat closes the next window without data beyond /c.
	if err := e.rt.Advance("url_stream", 12*minute); err != nil {
		t.Fatal(err)
	}
	expect(t, flatten(*out), "11:/a|2", "11:/b|1", "12:/c|1")
}

// TestSlidingWindow checks VISIBLE 3m ADVANCE 1m contents.
func TestSlidingWindow(t *testing.T) {
	e := newEnv(t, false)
	_, out := e.subscribe(t, `SELECT count(*) FROM url_stream <VISIBLE '3 minutes' ADVANCE '1 minute'>`)

	e.hit(t, "/a", 10*minute, "x")            // in windows closing at 11,12,13
	e.hit(t, "/b", 11*minute+30_000_000, "x") // in 12,13,14
	e.rt.Advance("url_stream", 15*minute)
	// Closes at 11..15: counts 1,2,2,1,0.
	expect(t, flatten(*out), "11:1", "12:2", "13:2", "14:1", "15:0")
}

// TestScalarAggEmptyWindow: scalar aggregates produce a default row even
// for empty windows, like a snapshot query over an empty table.
func TestScalarAggEmptyWindow(t *testing.T) {
	for _, sharing := range []bool{true, false} {
		e := newEnv(t, sharing)
		pipe, out := e.subscribe(t, `SELECT count(*), sum(length(url)) FROM url_stream <ADVANCE '1 minute'>`)
		if want := map[bool]string{true: "incremental", false: "reexec"}[sharing]; pipe.Strategy() != want {
			t.Fatalf("sharing=%v but pipe.Strategy()=%s", sharing, pipe.Strategy())
		}
		e.rt.Advance("url_stream", 10*minute) // starts the clock
		e.rt.Advance("url_stream", 12*minute)
		got := flatten(*out)
		expect(t, got, "11:0|NULL", "12:0|NULL")
	}
}

// TestGroupedEmptyWindowProducesNoRows.
func TestGroupedEmptyWindowProducesNoRows(t *testing.T) {
	e := newEnv(t, true)
	_, out := e.subscribe(t, `SELECT url, count(*) FROM url_stream <ADVANCE '1 minute'> GROUP BY url`)
	e.rt.Advance("url_stream", 10*minute)
	e.rt.Advance("url_stream", 11*minute)
	if n := len(*out); n != 1 || len((*out)[0].rows) != 0 {
		t.Fatalf("expected one empty batch, got %+v", *out)
	}
}

func TestOutOfOrderRejected(t *testing.T) {
	e := newEnv(t, true)
	e.subscribe(t, `SELECT count(*) FROM url_stream <ADVANCE '1 minute'>`)
	e.hit(t, "/a", 10*minute, "x")
	err := e.push("url_stream", types.Row{
		types.NewString("/b"), types.NewTimestampMicros(9 * minute), types.NewString("x"),
	})
	if err == nil {
		t.Fatal("out-of-order row accepted")
	}
	// Equal timestamps are fine.
	e.hit(t, "/c", 10*minute, "x")
}

func TestCQCloseValue(t *testing.T) {
	e := newEnv(t, true)
	_, out := e.subscribe(t, `SELECT url, count(*) AS scnt, cq_close(*) FROM url_stream <ADVANCE '1 minute'> GROUP BY url`)
	e.hit(t, "/a", 10*minute+5, "x")
	e.rt.Advance("url_stream", 11*minute)
	rows := (*out)[0].rows
	if len(rows) != 1 {
		t.Fatalf("rows: %v", rows)
	}
	if rows[0][2].TimestampMicros() != 11*minute {
		t.Fatalf("cq_close = %v, want 11 minutes", rows[0][2])
	}
}

func TestRowWindow(t *testing.T) {
	e := newEnv(t, true)
	_, out := e.subscribe(t, `SELECT count(*), min(url), max(url) FROM url_stream <VISIBLE 3 ROWS ADVANCE 2 ROWS>`)
	for i := 0; i < 6; i++ {
		e.hit(t, fmt.Sprintf("/u%d", i), int64(i+1)*minute, "x")
	}
	// Fires after rows 2, 4, 6 with the last min(3, seen) rows visible.
	got := flatten(*out)
	expect(t, got,
		"2:2|/u0|/u1",
		"4:3|/u1|/u3",
		"6:3|/u3|/u5")
}

// TestSharedMatchesUnshared is the central sharing property: identical
// queries, attached to a store (mode 0) vs re-executing (mode 1), over
// identical random input, produce identical batches.
func TestSharedMatchesUnshared(t *testing.T) {
	queries := []string{
		`SELECT url, count(*) FROM url_stream <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY url`,
		`SELECT url, count(*), sum(length(client_ip)), min(client_ip), max(client_ip)
		   FROM url_stream <VISIBLE '2 minutes' ADVANCE '1 minute'>
		   WHERE url LIKE '/p%' GROUP BY url HAVING count(*) >= 1`,
		`SELECT count(distinct url) FROM url_stream <VISIBLE '4 minutes' ADVANCE '2 minutes'>`,
		`SELECT url, avg(length(client_ip)) FROM url_stream <ADVANCE '1 minute'> GROUP BY url ORDER BY url`,
		`SELECT url, stddev(length(client_ip)) FROM url_stream <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY url`,
		// Paired stores: VISIBLE is no multiple of ADVANCE, and is below it.
		`SELECT url, count(*), avg(length(client_ip)), min(client_ip) FROM url_stream <VISIBLE '150 seconds' ADVANCE '1 minute'> GROUP BY url`,
		`SELECT url, count(*), last(client_ip) FROM url_stream <VISIBLE '20 seconds' ADVANCE '1 minute'> GROUP BY url`,
	}
	r := rand.New(rand.NewSource(42))
	var events []types.Row
	ts := 100 * minute
	for i := 0; i < 2000; i++ {
		ts += int64(r.Intn(3000000)) // 0-3s gaps
		events = append(events, types.Row{
			types.NewString(fmt.Sprintf("/p%d", r.Intn(20))),
			types.NewTimestampMicros(ts),
			types.NewString(fmt.Sprintf("10.0.0.%d", r.Intn(50))),
		})
	}
	end := ts + 10*minute

	for qi, q := range queries {
		var results [2][]batch
		for mode, override := range []plan.StateOverride{plan.StateAuto, plan.StateReexec} {
			e := newEnvOverride(t, override)
			pipe, out := e.subscribe(t, q)
			if mode == 0 && pipe.Strategy() != "incremental" {
				t.Fatalf("query %d: expected a store, got %s", qi, pipe.Strategy())
			}
			if mode == 1 && pipe.Strategy() != "reexec" {
				t.Fatalf("query %d: store overridden off but strategy is %s", qi, pipe.Strategy())
			}
			for _, ev := range events {
				if err := e.push("url_stream", ev); err != nil {
					t.Fatal(err)
				}
			}
			e.rt.Advance("url_stream", end)
			results[mode] = *out
		}
		a, b := flatten(results[0]), flatten(results[1])
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("query %d: shared and unshared outputs differ\nshared: %d lines\nunshared: %d lines",
				qi, len(a), len(b))
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					t.Errorf("first diff at %d: shared=%q unshared=%q", i, a[i], b[i])
					break
				}
			}
		}
	}
}

// TestSharingDeduplicatesWork: k identical CQs share one store, and a CQ
// that differs only in VISIBLE adds a view to it, not a store.
func TestSharingDeduplicatesWork(t *testing.T) {
	e := newEnv(t, true)
	const k = 5
	var outs []*[]batch
	for i := 0; i < k; i++ {
		_, out := e.subscribe(t, `SELECT url, count(*) FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url`)
		outs = append(outs, out)
	}
	st := e.rt.Stats()
	if st.PlanGroups != 1 || st.PlanSubscribers != k {
		t.Fatalf("stats: %+v", st)
	}
	if st.Pipelines != k {
		t.Fatalf("stats: %+v", st)
	}
	e.hit(t, "/a", 10*minute, "x")
	e.rt.Advance("url_stream", 11*minute)
	for i, out := range outs {
		if len(*out) != 1 || len((*out)[0].rows) != 1 {
			t.Fatalf("subscriber %d: %+v", i, *out)
		}
	}
	// Different window extents still share slices when ADVANCE matches.
	pipe, _ := e.subscribe(t, `SELECT url, count(*) FROM url_stream <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url`)
	if st := e.rt.Stats(); st.PlanGroups != 1 || st.PlanSubscribers != k+1 {
		t.Fatalf("stats after mixed-visible subscribe: %+v", st)
	}
	if got := len(pipe.feed.views); got != 2 {
		t.Fatalf("store has %d views, want one per VISIBLE", got)
	}
}

// TestReexecIsNotPlanShared: a re-executing CQ keeps a raw store of its own,
// which is not one of the keyed stores the plan-sharing stats count.
func TestReexecIsNotPlanShared(t *testing.T) {
	e := newEnv(t, false)
	e.subscribe(t, `SELECT url, count(*) FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url`)
	e.hit(t, "/a", 10*minute, "x")
	st := e.rt.Stats()
	if st.Pipelines != 1 || st.PlanGroups != 0 || st.PlanSubscribers != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if ps := st.PerPipeline[0]; ps.PlanShared || ps.Strategy != "reexec" {
		t.Fatalf("pipeline stats: %+v", ps)
	}
}

// TestLateSubscriberWindows pins Subscribe's one late-subscriber rule. A
// row arrives every 5 s from 0 s on; two CQs of one fingerprint, VISIBLE
// 10 s and 60 s, have been attached to their store since the start, a third
// of VISIBLE 65 s to the paired store of that remainder, and 125 s in each
// case below subscribes. The table is the row count of its
// windows up to the close at 160 s — from 130 s for a CQ on the store's
// running clock, from 140 s for one whose own clock starts with its first
// row; a full window of VISIBLE v holds v/5.
func TestLateSubscriberWindows(t *testing.T) {
	const second = int64(1_000_000)
	for _, c := range []struct {
		name, q string
		want    []int64
	}{
		// Attaches to the store: every slice of its extent is retained
		// (the 60 s member needs them), so no window is partial.
		{"same fingerprint, within retention",
			`SELECT count(*) FROM url_stream <VISIBLE '30 seconds' ADVANCE '10 seconds'>`, []int64{6, 6, 6, 6}},
		// Attaches, but reaches past what the store kept for its widest
		// member: slices from 60 s on, so [40,130) holds 14 of 18 rows and
		// the window is whole from the close at 150 s.
		{"same fingerprint, wider than retention",
			`SELECT count(*) FROM url_stream <VISIBLE '90 seconds' ADVANCE '10 seconds'>`, []int64{14, 16, 18, 18}},
		// First member of a store of its own: nothing retained.
		{"new fingerprint",
			`SELECT count(client_ip) FROM url_stream <VISIBLE '30 seconds' ADVANCE '10 seconds'>`, []int64{2, 4, 6}},
		// VISIBLE mod ADVANCE = 5 s: attaches to the paired store the 65 s
		// member keeps, whose cuts at 105 s … 125 s are its window's too.
		{"same fingerprint and remainder, within retention",
			`SELECT count(*) FROM url_stream <VISIBLE '25 seconds' ADVANCE '10 seconds'>`, []int64{5, 5, 5, 5}},
		// No store is shared across remainders: first member of its own.
		{"new remainder",
			`SELECT count(*) FROM url_stream <VISIBLE '27 seconds' ADVANCE '10 seconds'>`, []int64{2, 4, 5}},
		// Cannot attach (a subquery in FROM): empty buffer.
		{"re-executing",
			`SELECT count(*) FROM (SELECT url FROM url_stream <VISIBLE '25 seconds' ADVANCE '10 seconds'>) x`, []int64{2, 4, 5}},
	} {
		e := newEnvOverride(t, plan.StateAuto)
		e.subscribe(t, `SELECT count(*) FROM url_stream <VISIBLE '10 seconds' ADVANCE '10 seconds'>`)
		e.subscribe(t, `SELECT count(*) FROM url_stream <VISIBLE '60 seconds' ADVANCE '10 seconds'>`)
		e.subscribe(t, `SELECT count(*) FROM url_stream <VISIBLE '65 seconds' ADVANCE '10 seconds'>`)
		for ts := int64(0); ts <= 125*second; ts += 5 * second {
			e.hit(t, "/x", ts, "ip")
		}
		_, out := e.subscribe(t, c.q)
		for ts := 130 * second; ts <= 160*second; ts += 5 * second {
			e.hit(t, "/x", ts, "ip")
		}
		if len(*out) != len(c.want) {
			t.Fatalf("%s: %d windows fired, want %d", c.name, len(*out), len(c.want))
		}
		for i, b := range *out {
			if got := b.rows[0][0].Int(); b.close != (170-10*int64(len(c.want)-i))*second || got != c.want[i] {
				t.Errorf("%s: window closing at %d s holds %d rows, want %d", c.name, b.close/second, got, c.want[i])
			}
		}
	}
}

func TestUnsubscribe(t *testing.T) {
	e := newEnv(t, true)
	pipe, out := e.subscribe(t, `SELECT count(*) FROM url_stream <ADVANCE '1 minute'>`)
	e.hit(t, "/a", 10*minute, "x")
	e.rt.Unsubscribe(pipe)
	e.rt.Advance("url_stream", 12*minute)
	if len(*out) != 0 {
		t.Fatalf("unsubscribed pipeline fired: %v", *out)
	}
	if st := e.rt.Stats(); st.Pipelines != 0 || st.PlanGroups != 0 {
		t.Fatalf("stats after unsubscribe: %+v", st)
	}
}

func TestResumeAfterSuppressesOldWindows(t *testing.T) {
	e := newEnv(t, false)
	pipe, out := e.subscribe(t, `SELECT count(*) FROM url_stream <ADVANCE '1 minute'>`)
	pipe.ResumeAfter(11 * minute)
	e.hit(t, "/a", 10*minute+1, "x")
	e.rt.Advance("url_stream", 13*minute)
	// Window closing at 11 suppressed; 12 and 13 fire.
	got := flatten(*out)
	expect(t, got, "12:0", "13:0")
}

func TestSlicesWindowOverDerived(t *testing.T) {
	e := newEnv(t, true)
	// Register a derived-style source (timestamps supplied per emission).
	schema := types.Schema{
		{Name: "url", Type: types.TypeString},
		{Name: "scnt", Type: types.TypeInt},
		{Name: "stime", Type: types.TypeTimestamp},
	}
	if err := e.rt.RegisterSource("urls_now", schema, -1); err != nil {
		t.Fatal(err)
	}
	e.cat.CreateDerivedStream(&catalog.DerivedStream{Name: "urls_now", Schema: schema, CloseCol: 2})

	_, out := e.subscribe(t, `SELECT sum(scnt), cq_close(*) FROM urls_now <SLICES 2 WINDOWS>`)

	emit := func(c int64, counts ...int64) {
		var rows []types.Row
		for i, n := range counts {
			rows = append(rows, types.Row{
				types.NewString(fmt.Sprintf("/u%d", i)), types.NewInt(n), types.NewTimestampMicros(c),
			})
		}
		// emitDerived locks the derived source itself, so it may be
		// called from any goroutine.
		if err := e.rt.emitDerived(trace.Ctx{}, "urls_now", c, rows); err != nil {
			t.Fatal(err)
		}
	}
	emit(11*minute, 3, 4) // window = last 2 emissions (only 1 so far): sum=7
	emit(12*minute, 5)    // sum over last 2 emissions = 12
	emit(13*minute, 1)    // sum = 6

	got := flatten(*out)
	expect(t, got,
		"11:7|1970-01-01 00:11:00.000000",
		"12:12|1970-01-01 00:12:00.000000",
		"13:6|1970-01-01 00:13:00.000000")
}

func TestRuntimeErrors(t *testing.T) {
	e := newEnv(t, true)
	if err := e.push("nope", types.Row{}); err == nil {
		t.Fatal("push to unknown stream")
	}
	if err := e.rt.Advance("nope", 0); err == nil {
		t.Fatal("advance unknown stream")
	}
	if err := e.rt.RegisterSource("url_stream", nil, 0); err == nil {
		t.Fatal("duplicate source")
	}
	if err := e.push("url_stream", types.Row{types.NewString("x")}); err == nil {
		t.Fatal("arity mismatch")
	}
	// Wrong type in CQTIME column.
	err := e.push("url_stream", types.Row{
		types.NewString("/a"), types.NewInt(5), types.NewString("x"),
	})
	if err == nil {
		t.Fatal("non-timestamp cqtime accepted")
	}
}

func TestPushBatch(t *testing.T) {
	e := newEnv(t, true)
	_, out := e.subscribe(t, `SELECT count(*) FROM url_stream <ADVANCE '1 minute'>`)
	rows := []types.Row{
		{types.NewString("/a"), types.NewTimestampMicros(10 * minute), types.NewString("x")},
		{types.NewString("/b"), types.NewTimestampMicros(10*minute + 1), types.NewString("x")},
		{types.NewString("/c"), types.NewTimestampMicros(11 * minute), types.NewString("x")},
	}
	if err := e.push("url_stream", rows...); err != nil {
		t.Fatal(err)
	}
	expect(t, flatten(*out), "11:2")
}

// TestWindowConsistency: table updates become visible to a CQ only at
// window boundaries (paper §4 / ref [6]).
func TestWindowConsistency(t *testing.T) {
	e := newEnv(t, false)
	dim, err := e.cat.CreateTable("dim", types.Schema{
		{Name: "url", Type: types.TypeString},
		{Name: "label", Type: types.TypeString},
	})
	if err != nil {
		t.Fatal(err)
	}
	insert := func(url, label string) {
		tx := e.mgr.Begin()
		dim.Heap.InsertRun(tx.ID, []types.Row{types.Row{types.NewString(url), types.NewString(label)}})
		tx.Commit()
	}
	insert("/a", "alpha")

	_, out := e.subscribe(t, `
		SELECT s.url, d.label FROM url_stream <ADVANCE '1 minute'> s
		LEFT JOIN dim d ON s.url = d.url`)

	e.hit(t, "/a", 10*minute, "x")
	e.hit(t, "/b", 10*minute+1, "x")
	e.rt.Advance("url_stream", 11*minute)
	// First window: /b unmatched.
	expect(t, flatten(*out), "11:/a|alpha", "11:/b|NULL")

	// Update the table between boundaries: visible at the NEXT boundary.
	insert("/b", "beta")
	e.hit(t, "/b", 11*minute+1, "x")
	e.rt.Advance("url_stream", 12*minute)
	expect(t, flatten(*out), "11:/a|alpha", "11:/b|NULL", "12:/b|beta")
}
