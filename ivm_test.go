package streamrel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// ivmBase is a fixed stream origin used across the IVM tests.
var ivmBase = MustTimestamp("2009-01-04 00:00:00").UnixMicro()

// collectBatches drains a CQ's queued batches into comparable strings
// ("close|row|row|…"), one per window fire.
func collectBatches(t *testing.T, cq *CQ) []string {
	t.Helper()
	var out []string
	for {
		b, ok := cq.TryNext()
		if !ok {
			return out
		}
		var sb strings.Builder
		sb.WriteString(b.Close.UTC().Format(time.RFC3339Nano))
		for _, r := range b.Rows {
			sb.WriteString("|")
			sb.WriteString(r.String())
		}
		out = append(out, sb.String())
	}
}

// TestIVMModeSelection pins the one window-state decision: which shapes
// attach to a store, which re-execute and why, what the override changes, and that CQ.Strategy and EXPLAIN's
// mode/state lines say the same thing.
func TestIVMModeSelection(t *testing.T) {
	cases := []struct {
		q        string
		strategy string
		state    string // fragment of EXPLAIN's state line
	}{
		{`SELECT url, count(*), sum(v), avg(v), min(v), max(v)
			FROM s <VISIBLE '1 minute' ADVANCE '10 seconds'> GROUP BY url`, "incremental", "view 1m0s (materialized), 0 members"},
		{`SELECT count(*) FROM s <VISIBLE '30 seconds' ADVANCE '30 seconds'>`, "incremental", "view 30s (materialized)"},
		{`SELECT sum(v) FROM s <VISIBLE '1 minute' ADVANCE '20 seconds'> WHERE url = '/a'`, "incremental", "(materialized)"},
		// count(DISTINCT …) and stddev have no inverse: a retract re-merges them.
		{`SELECT url, count(distinct v) FROM s <VISIBLE '1 minute' ADVANCE '10 seconds'> GROUP BY url`,
			"incremental", "view 1m0s (materialized), 0 members"},
		{`SELECT stddev(v) FROM s <VISIBLE '1 minute' ADVANCE '10 seconds'>`,
			"incremental", "view 1m0s (materialized), 0 members"},
		// A row window keeps a store too, its key naming the kind and its
		// view counted in rows: VISIBLE mod ADVANCE = 5 rows, so paired.
		{`SELECT url, count(*) FROM s <VISIBLE 100 ROWS ADVANCE 10 ROWS> GROUP BY url`,
			"incremental", "state: store s|W:|G:url;|A:count(*);@10R view 100 ROWS (materialized)"},
		{`SELECT count(*) FROM s <VISIBLE 45 ROWS ADVANCE 20 ROWS>`,
			"incremental", "state: store s|W:|G:|A:count(*);@20R+15 view 45 ROWS (materialized)"},
		// VISIBLE mod ADVANCE = 5 s: a paired store, cut again 15 s into every ADVANCE.
		{`SELECT count(*) FROM s <VISIBLE '45 seconds' ADVANCE '20 seconds'>`,
			"incremental", "state: store s|W:|G:|A:count(*);@20000000+15000000 view 45s (materialized)"},
		// Projection without aggregation re-executes per window.
		{`SELECT url FROM s <VISIBLE '1 minute' ADVANCE '10 seconds'> WHERE v > 3`,
			"reexec", "state: reexec (plan is not a filter/group-by aggregate directly over the stream)"},
		// now() is read once per fire, not per arriving row.
		{`SELECT url, count(*) FROM s <VISIBLE '1 minute' ADVANCE '10 seconds'> WHERE at < now() GROUP BY url`,
			"reexec", "state: reexec (reads now())"},
	}
	check := func(e *Engine, q, strategy, state string) {
		t.Helper()
		plan := strings.Join(rowStrings(mustExec(t, e, "EXPLAIN "+q).Rows), "\n")
		if !strings.Contains(plan, "mode: "+strategy+"\n") || !strings.Contains(plan, state) {
			t.Errorf("EXPLAIN misses %q / %q:\n%s", "mode: "+strategy, state, plan)
		}
		cq, err := e.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		defer cq.Close()
		if cq.Strategy != strategy {
			t.Errorf("Strategy = %s, want %s\n%s", cq.Strategy, strategy, q)
		}
	}
	e := openMemMode(t, "incremental")
	mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
	for _, c := range cases {
		check(e, c.q, c.strategy, c.state)
	}
	off := openMemMode(t, "reexec")
	mustExec(t, off, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
	check(off, cases[0].q, "reexec", "state: reexec (window-state override)")
}

// TestNowReadAtFire pins when and from which clock a CQ reads now():
// Config.Now, once per fire. A plan whose filter calls now() must not be
// maintained per arriving row (a store would compare each row against the
// clock at its arrival), so with any engine
// configuration it re-executes, says so in EXPLAIN, and counts only the
// rows older than the fixed clock.
func TestNowReadAtFire(t *testing.T) {
	const q = `SELECT url, count(*) FROM s <VISIBLE '30 seconds' ADVANCE '30 seconds'>
		WHERE at < now() GROUP BY url`
	base := time.UnixMicro(ivmBase).UTC()
	clock := base.Add(25 * time.Second)
	for _, mode := range []string{"incremental", "reexec"} {
		e := openMemModeCfg(t, mode, Config{Now: func() time.Time { return clock }})
		mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
		cq, err := e.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		if cq.Strategy != "reexec" {
			t.Errorf("%s: a plan reading now() is maintained per row (strategy %s)", mode, cq.Strategy)
		}
		rows := make([]Row, 30)
		for i := range rows {
			rows[i] = Row{String("/a"), Timestamp(base.Add(time.Duration(i) * time.Second)), Int(1)}
		}
		if err := e.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		e.AdvanceTime("s", base.Add(30*time.Second))
		want := []string{base.Add(30*time.Second).Format(time.RFC3339Nano) + "|/a|25"}
		if got := collectBatches(t, cq); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: fires = %q, want %q", mode, got, want)
		}
		plan := strings.Join(rowStrings(mustExec(t, e, "EXPLAIN "+q).Rows), "\n")
		if !strings.Contains(plan, "state: reexec (reads now())") {
			t.Errorf("%s: EXPLAIN does not name the reason:\n%s", mode, plan)
		}
		cq.Close()
	}
}

// ivmWorkloadQueries is the CQ set the equivalence tests run: every delta
// kind, NULL group keys, NULL aggregate inputs, a filter, a scalar
// aggregate (fires defaults over empty windows), HAVING above the
// delta-maintained state, and two paired windows — VISIBLE no multiple of
// ADVANCE, and below it.
var ivmWorkloadQueries = []string{
	`SELECT url, count(*), count(v), sum(v), avg(v), min(v), max(v)
		FROM s <VISIBLE '60 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT count(*), sum(v), min(v), max(v) FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'>`,
	`SELECT url, sum(v) FROM s <VISIBLE '40 seconds' ADVANCE '20 seconds'>
		WHERE v % 3 = 0 GROUP BY url HAVING count(*) > 1`,
	`SELECT url, min(f), max(f), sum(f) FROM s <VISIBLE '50 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT url, count(*), sum(v), avg(v), min(v), max(f) FROM s <VISIBLE '25 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT count(*), count(v), max(v) FROM s <VISIBLE '7 seconds' ADVANCE '20 seconds'>`,
}

// ivmRandomRow draws a row with NULLable group key, NULLable bigint and a
// double that stays integer-valued (exact under any add/subtract order,
// so incremental float arithmetic is bit-identical to re-execution).
func ivmRandomRow(rng *rand.Rand, ts int64) Row {
	url := Value(Null)
	if rng.Intn(5) > 0 {
		url = String(fmt.Sprintf("/u%d", rng.Intn(4)))
	}
	v := Value(Null)
	if rng.Intn(4) > 0 {
		v = Int(int64(rng.Intn(100)))
	}
	return Row{url, Timestamp(time.UnixMicro(ts).UTC()), v, Float(float64(rng.Intn(1000)))}
}

// runIVMWorkload feeds a deterministic random event sequence (bursts,
// quiet gaps spanning empty windows, heartbeats) through one engine and
// returns each CQ's full fire transcript.
func runIVMWorkload(t *testing.T, e *Engine, seed int64, parallelFlush bool) [][]string {
	t.Helper()
	mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint, f double)`)
	cqs := make([]*CQ, len(ivmWorkloadQueries))
	for i, q := range ivmWorkloadQueries {
		cq, err := e.Subscribe(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		defer cq.Close()
		cqs[i] = cq
	}
	rng := rand.New(rand.NewSource(seed))
	ts := ivmBase
	for step := 0; step < 120; step++ {
		switch rng.Intn(4) {
		case 0: // quiet gap, then a heartbeat that fires empty windows
			ts += int64(rng.Intn(90)+1) * 1_000_000
			e.AdvanceTime("s", time.UnixMicro(ts).UTC())
		default:
			n := rng.Intn(40) + 1
			rows := make([]Row, n)
			for i := range rows {
				ts += int64(rng.Intn(900_000))
				rows[i] = ivmRandomRow(rng, ts)
			}
			if err := e.Append("s", rows...); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.AdvanceTime("s", time.UnixMicro(ts).Add(2*time.Minute).UTC())
	if parallelFlush {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]string, len(cqs))
	for i, cq := range cqs {
		out[i] = collectBatches(t, cq)
	}
	return out
}

// TestIVMEquivalenceReexec is the incremental pipeline against its
// re-exec twin: identical random batches and advances must produce
// byte-identical fire transcripts — including NULL groups, empty-window
// fires and min/max retractions.
func TestIVMEquivalenceReexec(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		inc := openMemMode(t, "incremental")
		ref := openMemMode(t, "reexec")
		got := runIVMWorkload(t, inc, seed, false)
		want := runIVMWorkload(t, ref, seed, false)
		for qi := range ivmWorkloadQueries {
			if len(got[qi]) == 0 {
				t.Fatalf("seed %d query %d: no fires", seed, qi)
			}
			if a, b := strings.Join(got[qi], "\n"), strings.Join(want[qi], "\n"); a != b {
				t.Fatalf("seed %d query %d transcripts differ:\nincremental:\n%s\nreexec:\n%s", seed, qi, a, b)
			}
		}
	}
}

// TestIVMParallelRetraction runs the incremental workload under
// ParallelCQ worker mode — slice expiry (on the worker) racing ingest of
// the same hot groups (on the producer) — and checks the transcripts
// against the serial incremental engine. Run under -race this doubles as
// the expiry-vs-ingest data-race probe for per-pipeline IVM state.
func TestIVMParallelRetraction(t *testing.T) {
	for seed := int64(7); seed <= 9; seed++ {
		par, err := Open(Config{ParallelCQ: 4})
		if err != nil {
			t.Fatal(err)
		}
		serial := openMemMode(t, "incremental")
		got := runIVMWorkload(t, par, seed, true)
		want := runIVMWorkload(t, serial, seed, false)
		for qi := range ivmWorkloadQueries {
			if a, b := strings.Join(got[qi], "\n"), strings.Join(want[qi], "\n"); a != b {
				t.Fatalf("seed %d query %d parallel != serial:\n%s\n--\n%s", seed, qi, a, b)
			}
		}
		par.Close()
	}
}

// TestIVMRecoveryActiveTables proves the restart story: a REPLACE channel
// archives an incremental CQ into an Active Table; after a crash-restart
// the resumed pipeline rebuilds its state from the stream (recovery
// suppresses already-archived closes via the table's cq_close high-water
// mark), and once the window refills past the resume point the Active
// Table is byte-identical to (a) an engine that never restarted and (b)
// the same restart re-executing.
func TestIVMRecoveryActiveTables(t *testing.T) {
	const ddl = `
		CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint);
		CREATE STREAM agg AS
			SELECT cq_close(*) AS closed, url, count(*) AS n, sum(v) AS total
			FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url;
		CREATE TABLE agg_t (closed timestamp, url varchar, n bigint, total bigint);
		CREATE CHANNEL agg_ch FROM agg INTO agg_t REPLACE;
	`
	rows := func(rng *rand.Rand, ts *int64, n int) []Row {
		out := make([]Row, n)
		for i := range out {
			*ts += int64(rng.Intn(800_000) + 1)
			out[i] = Row{String(fmt.Sprintf("/u%d", rng.Intn(3))),
				Timestamp(time.UnixMicro(*ts).UTC()), Int(int64(rng.Intn(50)))}
		}
		return out
	}
	dump := func(e *Engine) string {
		r := mustQuery(t, e, `SELECT * FROM agg_t ORDER BY closed, url`)
		var sb strings.Builder
		for _, row := range r.Data {
			sb.WriteString(row.String() + "\n")
		}
		return sb.String()
	}
	// run drives the same workload with an optional mid-stream restart.
	run := func(dir string, override StateOverride, restart bool) string {
		cfg := Config{Dir: dir, StateOverride: override}
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ExecScript(ddl); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		ts := ivmBase
		if err := e.Append("s", rows(rng, &ts, 500)...); err != nil {
			t.Fatal(err)
		}
		e.AdvanceTime("s", time.UnixMicro(ts).UTC())
		if restart {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			if e, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); override == StateAuto && (len(st.PerPipeline) != 1 || st.PerPipeline[0].Strategy != "incremental") {
				t.Fatalf("restarted engine lost the incremental pipeline: %+v", st.PerPipeline)
			}
		}
		// Phase 2 refills the window far past the resume point; the final
		// REPLACE emission then reflects a fully rebuilt state. Advance only
		// one ADVANCE step past the data so the last fired window still
		// covers rows (a later boundary would REPLACE with an empty window).
		if err := e.Append("s", rows(rng, &ts, 2000)...); err != nil {
			t.Fatal(err)
		}
		e.AdvanceTime("s", time.UnixMicro(ts).Add(10*time.Second).UTC())
		out := dump(e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	straight := run(t.TempDir(), StateAuto, false)
	restarted := run(t.TempDir(), StateAuto, true)
	reexec := run(t.TempDir(), StateReexec, true)
	if straight == "" {
		t.Fatal("empty Active Table")
	}
	if restarted != straight {
		t.Fatalf("restarted IVM Active Table diverged:\nno restart:\n%s\nrestarted:\n%s", straight, restarted)
	}
	if restarted != reexec {
		t.Fatalf("IVM vs reexec restart diverged:\nivm:\n%s\nreexec:\n%s", restarted, reexec)
	}
}

// TestIVMGroupsVanish pins retraction end-to-end: a group whose rows all
// expire stops being emitted, and a scalar aggregate over a drained
// window returns to its SQL defaults (count 0, NULL sum) — exactly what
// re-execution over an empty buffer yields.
func TestIVMGroupsVanish(t *testing.T) {
	e := openMemMode(t, "incremental")
	mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
	grouped, err := e.Subscribe(`SELECT url, count(*) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	if err != nil {
		t.Fatal(err)
	}
	defer grouped.Close()
	scalar, err := e.Subscribe(`SELECT count(*), sum(v), min(v) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'>`)
	if err != nil {
		t.Fatal(err)
	}
	defer scalar.Close()
	if grouped.Strategy != "incremental" || scalar.Strategy != "incremental" {
		t.Fatal("expected incremental pipelines")
	}
	ts := ivmBase
	if err := e.Append("s",
		Row{String("/a"), Timestamp(time.UnixMicro(ts).UTC()), Int(5)},
		Row{String("/b"), Timestamp(time.UnixMicro(ts + 1_000_000).UTC()), Int(7)},
	); err != nil {
		t.Fatal(err)
	}
	// Advance far past the window: every group expires, then empty
	// windows keep firing.
	e.AdvanceTime("s", time.UnixMicro(ts).Add(50*time.Second).UTC())

	gb := collectBatches(t, grouped)
	sb := collectBatches(t, scalar)
	if len(gb) < 4 || len(sb) < 4 {
		t.Fatalf("expected ≥4 fires, got %d grouped / %d scalar", len(gb), len(sb))
	}
	last := gb[len(gb)-1]
	if strings.Contains(last, "/a") || strings.Contains(last, "/b") {
		t.Fatalf("expired groups still emitted: %s", last)
	}
	wantTail := "|0|NULL|NULL"
	if !strings.HasSuffix(sb[len(sb)-1], wantTail) {
		t.Fatalf("drained scalar window = %q, want suffix %q", sb[len(sb)-1], wantTail)
	}
	// Early fires must contain the groups while visible.
	if !strings.Contains(gb[0], "/a") || !strings.Contains(gb[0], "/b") {
		t.Fatalf("first fire missing live groups: %s", gb[0])
	}
}
