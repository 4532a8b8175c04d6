package streamrel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"streamrel/internal/exec"
	"streamrel/internal/plan"
	"streamrel/internal/storage"
	"streamrel/internal/types"
)

// enrichQueries is the enrichment-shape CQ set (stream hits joined to the
// dimension table urls) the equivalence tests run through a store and
// through re-execution: the paper's Example 5 shape with a stream filter, a
// table-only filter, a stream-side group column beside a table-side one,
// every two-level aggregate, HAVING / ORDER BY / LIMIT above the join, an
// explicit JOIN … ON, a filter on the join key (hoisted above the store), a
// sort by an aggregate that is not selected, a GROUP BY with no aggregate
// at all, and one slice spec at two VISIBLEs.
var enrichQueries = []string{
	`SELECT u.category, count(*) AS n, sum(h.bytes) AS total
		FROM hits h <VISIBLE '30 seconds' ADVANCE '10 seconds'>, urls u
		WHERE h.url = u.url AND h.bytes > 20 GROUP BY u.category`,
	`SELECT u.category, count(*) AS n, sum(h.bytes) AS total
		FROM hits h <VISIBLE '60 seconds' ADVANCE '10 seconds'>, urls u
		WHERE h.url = u.url AND h.bytes > 20 GROUP BY u.category`,
	`SELECT u.category, count(h.bytes), min(h.bytes), max(h.bytes), avg(h.bytes)
		FROM hits h <VISIBLE '40 seconds' ADVANCE '10 seconds'> JOIN urls u ON h.url = u.url
		WHERE u.weight > 1 GROUP BY u.category`,
	`SELECT h.ip, u.category, sum(h.bytes) AS total
		FROM hits h <VISIBLE '20 seconds' ADVANCE '10 seconds'>, urls u
		WHERE u.url = h.url AND h.url <> '/u1' GROUP BY h.ip, u.category`,
	`SELECT u.category, sum(h.bytes * u.weight) / sum(u.weight) AS r, count(*) AS n
		FROM hits h <VISIBLE '30 seconds' ADVANCE '10 seconds'>, urls u
		WHERE h.url = u.url GROUP BY u.category`,
	`SELECT u.category AS cat, count(*) AS n, sum(h.bytes) AS total
		FROM hits h <VISIBLE '30 seconds' ADVANCE '10 seconds'>, urls u
		WHERE h.url = u.url GROUP BY cat HAVING count(*) > 2 ORDER BY n DESC, cat LIMIT 2`,
	`SELECT u.category, u.weight % 2 FROM hits h <VISIBLE '20 seconds' ADVANCE '10 seconds'>, urls u
		WHERE h.url = u.url GROUP BY u.category, u.weight % 2 ORDER BY max(h.bytes) - min(h.bytes), 1, 2`,
	`SELECT u.category FROM hits h <VISIBLE '10 seconds' ADVANCE '10 seconds'>, urls u
		WHERE h.url = u.url AND h.bytes < 50 GROUP BY u.category`,
	`SELECT u.category, count(*) AS n, sum(h.bytes) AS total, max(h.bytes)
		FROM hits h <VISIBLE '25 seconds' ADVANCE '10 seconds'>, urls u
		WHERE h.url = u.url GROUP BY u.category`,
}

// enrichStrategies is what each of enrichQueries must report: the fifth
// aggregates over a table column and is the near-miss that keeps
// re-executing beside the stores; the last is on a paired store.
var enrichStrategies = []string{"incremental", "incremental", "incremental", "incremental", "reexec", "incremental", "incremental", "incremental", "incremental"}

// runEnrichWorkload feeds one deterministic event sequence — bursts over a
// few urls (one of them absent from the table, some NULL), quiet gaps that
// fire empty windows — and between bursts changes the dimension table:
// UPDATE moves a url to another category, DELETE and INSERT remove and add
// matches, a second row for one url makes the join N:M. Every fire is
// flushed before a table change, so each close joins the table as of that
// close whatever the strategy and whoever fires.
func runEnrichWorkload(t *testing.T, e *Engine, seed int64) [][]string {
	t.Helper()
	mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint, ip varchar)`)
	mustExec(t, e, `CREATE TABLE urls (url varchar, category varchar, weight bigint)`)
	mustExec(t, e, `INSERT INTO urls VALUES ('/u0', 'news', 1), ('/u1', 'news', 2), ('/u2', 'shop', 3),
		('/u3', 'shop', 2), ('/u3', 'video', 5)`)
	cqs := make([]*CQ, len(enrichQueries))
	for i, q := range enrichQueries {
		cq, err := e.Subscribe(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		defer cq.Close()
		cqs[i] = cq
	}
	dml := []string{
		`UPDATE urls SET category = 'video' WHERE url = '/u1'`,
		`DELETE FROM urls WHERE url = '/u2'`,
		`INSERT INTO urls VALUES ('/u4', 'news', 4), ('/u0', 'shop', 7)`,
		`UPDATE urls SET weight = weight + 1 WHERE category = 'shop'`,
		`DELETE FROM urls WHERE url = '/u3' AND category = 'video'`,
		`INSERT INTO urls VALUES ('/u2', 'video', 1)`,
	}
	rng := rand.New(rand.NewSource(seed))
	ts := ivmBase
	for step := 0; step < 90; step++ {
		switch k := rng.Intn(6); {
		case k == 0:
			ts += int64(rng.Intn(70)+1) * 1_000_000
			e.AdvanceTime("hits", time.UnixMicro(ts).UTC())
		case k == 1 && len(dml) > 0:
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, dml[0])
			dml = dml[1:]
		default:
			rows := make([]Row, rng.Intn(30)+1)
			for i := range rows {
				ts += int64(rng.Intn(700_000))
				url := Value(Null)
				if rng.Intn(8) > 0 {
					url = String(fmt.Sprintf("/u%d", rng.Intn(6))) // /u5 never matches
				}
				bytes := Value(Null)
				if rng.Intn(6) > 0 {
					bytes = Int(int64(rng.Intn(100)))
				}
				rows[i] = Row{url, Timestamp(time.UnixMicro(ts).UTC()), bytes, String(fmt.Sprintf("ip%d", rng.Intn(3)))}
			}
			if err := e.Append("hits", rows...); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.AdvanceTime("hits", time.UnixMicro(ts).Add(2*time.Minute).UTC())
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(cqs))
	for i, cq := range cqs {
		if cq.Strategy != enrichStrategies[i] && e.cfg.StateOverride == StateAuto {
			t.Errorf("query %d: strategy %s, want %s", i, cq.Strategy, enrichStrategies[i])
		}
		out[i] = collectBatches(t, cq)
	}
	return out
}

// TestEnrichEquivalenceReexec: an enrichment CQ fired from a store —
// aggregated below the join, joined per close — is byte-identical to the
// same CQ re-executing the join over the window, with the producer draining
// and under the scheduler pool, while the dimension table changes between
// closes.
func TestEnrichEquivalenceReexec(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		want := runEnrichWorkload(t, openMemMode(t, "reexec"), seed)
		for _, parallel := range []int{0, 4} {
			got := runEnrichWorkload(t, openMemModeCfg(t, "incremental", Config{ParallelCQ: parallel}), seed)
			for qi := range enrichQueries {
				if len(want[qi]) == 0 {
					t.Fatalf("seed %d query %d: no fires", seed, qi)
				}
				if a, b := strings.Join(got[qi], "\n"), strings.Join(want[qi], "\n"); a != b {
					t.Fatalf("seed %d query %d ParallelCQ %d: store and re-exec transcripts differ:\n%s\nreexec:\n%s",
						seed, qi, parallel, a, b)
				}
			}
		}
	}
}

// TestEnrichSharesStore: the slice spec of an enrichment CQ is an ordinary
// one, keyed by a canonical fingerprint — stream columns print unqualified —
// so a filterless join grouped by a table column attaches to the store the
// plain GROUP BY url dashboards already keep (one more member and one more
// post set, no new store), and two enrichment CQs that differ only above
// the join — here in the table-only filter — share a store but not a post
// stage.
func TestEnrichSharesStore(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
	mustExec(t, e, `CREATE TABLE urls (url varchar, category varchar)`)
	mustExec(t, e, `INSERT INTO urls VALUES ('/a', 'x'), ('/b', 'y')`)
	const dash = `SELECT url, count(*) AS n, sum(bytes) AS total FROM hits <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`
	const join = `SELECT u.category, count(*) AS n, sum(h.bytes) AS total
		FROM hits h <VISIBLE '20 seconds' ADVANCE '10 seconds'>, urls u WHERE h.url = u.url`
	members := func(q string) string {
		for _, line := range rowStrings(mustExec(t, e, "EXPLAIN "+q).Rows) {
			if i := strings.LastIndex(line, "), "); strings.Contains(line, "state: store") && i >= 0 {
				return line[i+3:]
			}
		}
		t.Fatalf("no store line in EXPLAIN %s", q)
		return ""
	}
	subscribe := func(q string) *CQ {
		cq, err := e.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cq.Close() })
		return cq
	}
	stores := func() float64 { return gatherMap(e)["streamrel_plan_groups"].Value }
	subscribe(dash)
	subscribe(dash)
	if stores() != 1 || members(dash) != "2 members" {
		t.Fatalf("dashboards: %v stores, %s", stores(), members(dash))
	}
	all := subscribe(join + ` GROUP BY u.category`)
	onlyX := subscribe(join + ` AND u.category = 'x' GROUP BY u.category`)
	if stores() != 1 || members(dash) != "4 members" || members(join+` GROUP BY u.category`) != "4 members" {
		t.Fatalf("the joins did not attach to the dashboards' store: %v stores, %s", stores(), members(dash))
	}
	base := time.UnixMicro(ivmBase).UTC()
	for i := 0; i < 20; i++ {
		url := []string{"/a", "/b", "/c"}[i%3]
		if err := e.Append("hits", Row{String(url), Timestamp(base.Add(time.Duration(i) * time.Second)), Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	first := base.Add(10 * time.Second).Format(time.RFC3339Nano)
	if got := collectBatches(t, all); got[0] != first+"|x|4|18|y|3|12" {
		t.Errorf("join: first fire %q", got[0])
	}
	if got := collectBatches(t, onlyX); got[0] != first+"|x|4|18" {
		t.Errorf("join with a table-only filter: first fire %q", got[0])
	}
}

// TestEnrichExplain is the table of eligibility rules: the enrichment shape
// names its pre-aggregation on EXPLAIN's state line, and the tables whose
// build sides its post stage keeps between closes — a bare table's, not one
// under a table-only filter or keyed by the close's clock — and each
// near-miss re-executes with the rule it failed.
func TestEnrichExplain(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
	mustExec(t, e, `CREATE TABLE urls (url varchar, category varchar, weight bigint)`)
	mustExec(t, e, `CREATE VIEW shop AS SELECT url, category FROM urls WHERE category = 'shop'`)
	const w = `hits h <VISIBLE '1 minute' ADVANCE '10 seconds'>`
	for _, c := range []struct{ q, mode, state string }{
		{`SELECT u.category, count(*), sum(h.bytes) FROM ` + w + `, urls u WHERE h.url = u.url AND h.bytes > 5 GROUP BY u.category`,
			"incremental", `|G:url;|A:count(*);sum(bytes);@10000000 pre-aggregated by (url) below join urls (build side of urls kept between closes) view 1m0s (materialized), 0 members`},
		{`SELECT u.category, h.bytes % 2, max(h.bytes) FROM ` + w + ` JOIN urls u ON h.url = u.url GROUP BY u.category, h.bytes % 2`,
			"incremental", `pre-aggregated by (url, (bytes % 2)) below join urls (build side of urls kept between closes)`},
		{`SELECT u.category, count(*) FROM ` + w + `, urls u WHERE h.url = u.url AND u.weight > 1 GROUP BY u.category`,
			"incremental", `pre-aggregated by (url) below join urls view 1m0s`},
		{`SELECT u.category, count(*) FROM ` + w + `, urls u WHERE h.bytes = u.weight + hour(now()) GROUP BY u.category`,
			"incremental", `pre-aggregated by (bytes) below join urls view 1m0s`},
		{`SELECT u.category, count(*) FROM ` + w + ` LEFT JOIN urls u ON h.url = u.url GROUP BY u.category`,
			"reexec", `(LEFT JOIN: only inner joins aggregate below the join)`},
		{`SELECT u.category, sum(u.weight) FROM ` + w + `, urls u WHERE h.url = u.url GROUP BY u.category`,
			"reexec", `(aggregate sum(u.weight) reads a table column)`},
		{`SELECT u.category, count(*) FROM ` + w + `, urls u WHERE h.url = u.url AND h.bytes > u.weight GROUP BY u.category`,
			"reexec", `(conjunct (h.bytes > u.weight) mixes stream and table columns and is not an equality key)`},
		{`SELECT count(*) FROM ` + w + `, urls u WHERE h.url = u.url`,
			"reexec", `(scalar aggregate over a join: an empty window still emits a row)`},
		{`SELECT u.category, count(*) FROM ` + w + `, urls u WHERE h.url = u.url AND h.at < now() GROUP BY u.category`,
			"reexec", `(reads now())`},
		{`SELECT u.category, count(*) FROM ` + w + `, urls u WHERE h.url = u.url AND h.at < cq_close(*) GROUP BY u.category`,
			"reexec", `(cq_close(*) below the aggregate)`},
		{`SELECT u.category, count(DISTINCT h.bytes) FROM ` + w + `, urls u WHERE h.url = u.url GROUP BY u.category`,
			"reexec", `(count(DISTINCT …) cannot be aggregated below the join)`},
		{`SELECT u.category, stddev(h.bytes) FROM ` + w + `, urls u WHERE h.url = u.url GROUP BY u.category`,
			"reexec", `(aggregate stddev has no two-level form)`},
		{`SELECT u.category, avg(h.url) FROM ` + w + `, urls u WHERE h.url = u.url GROUP BY u.category`,
			"reexec", `(avg(h.url) is not over a numeric column)`},
		{`SELECT u.category, count(*) FROM ` + w + `, urls u GROUP BY u.category`,
			"reexec", `(no equality key between the stream and a table)`},
		{`SELECT h.bytes + u.weight, count(*) FROM ` + w + `, urls u WHERE h.url = u.url GROUP BY h.bytes + u.weight`,
			"reexec", `(GROUP BY (h.bytes + u.weight) mixes stream and table columns)`},
		{`SELECT s.category, count(*) FROM ` + w + `, shop s WHERE h.url = s.url GROUP BY s.category`,
			"reexec", `(joins shop, which is not a base table)`},
		{`SELECT u.category, count(*) FROM ` + w + `, (SELECT url, category FROM urls) u WHERE h.url = u.url GROUP BY u.category`,
			"reexec", `(subquery in FROM)`},
		{`SELECT h.url, u.category FROM ` + w + `, urls u WHERE h.url = u.url`,
			"reexec", `(plan is not a filter/group-by aggregate directly over the stream)`},
	} {
		plan := strings.Join(rowStrings(mustExec(t, e, "EXPLAIN "+c.q).Rows), "\n")
		if !strings.Contains(plan, "mode: "+c.mode+"\n") || !strings.Contains(plan, c.state) {
			t.Errorf("EXPLAIN misses %q / %q:\n%s", "mode: "+c.mode, c.state, plan)
		}
	}
}

// keptBuildOf returns where cq's post stage keeps the build side of its join.
func keptBuildOf(t *testing.T, cq *CQ) *exec.JoinBuild {
	t.Helper()
	for op := cq.pipe.Plan().StreamAgg.PostBuild(&plan.Input{}); ; {
		switch o := op.(type) {
		case *exec.HashJoin:
			if o.Keep == nil {
				t.Fatal("the post stage's join keeps no build side")
			}
			return o.Keep
		case *exec.HashAgg:
			op = o.Child
		case *exec.Project:
			op = o.Child
		case *exec.Filter:
			op = o.Child
		default:
			t.Fatalf("no join in the post stage: %T", op)
			return nil
		}
	}
}

// TestEnrichKeptBuildUnderWriters: a post stage that keeps its build side
// between closes sees the dimension table as every close's snapshot does,
// with writers in flight across the closes — byte-identical to re-execution,
// which builds afresh at every close, at ParallelCQ 0 and 4. An uncommitted
// insert of a matching row and an uncommitted delete are excluded from the
// close they span and included in the first after their commit; a delete
// that aborts changes nothing in the output, but its undoing moves the
// table's generation, so the next close builds again; and while a
// transaction that began before the table's last write is still in flight,
// no snapshot decides the table's stamps and closes build afresh.
func TestEnrichKeptBuildUnderWriters(t *testing.T) {
	run := func(e *Engine, store bool) []string {
		mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
		mustExec(t, e, `CREATE TABLE urls (url varchar, category varchar)`)
		mustExec(t, e, `INSERT INTO urls VALUES ('/u0', 'news'), ('/u1', 'shop'), ('/u2', 'video')`)
		cq, err := e.Subscribe(`SELECT u.category, count(*) AS n, sum(h.bytes) AS total
			FROM hits h <VISIBLE '10 seconds' ADVANCE '10 seconds'>, urls u WHERE h.url = u.url GROUP BY u.category`)
		if err != nil {
			t.Fatal(err)
		}
		defer cq.Close()
		urls, _ := e.cat.Table("urls")
		rid := func(url string) (id storage.RowID) {
			urls.Heap.Scan(e.mgr.SnapshotNow(), func(r storage.RowID, row types.Row) bool {
				if row[0].Str() == url {
					id = r
				}
				return true
			})
			return id
		}
		var out []string
		// fire appends window k's hits — one per url, /u5 matching nothing —
		// closes it, and checks that the fire contains and lacks what it must
		// and whether it left a side kept at the table's generation.
		fire := func(k int, has, lacks string, fresh bool) {
			t.Helper()
			base := time.UnixMicro(ivmBase).Add(time.Duration(k) * 10 * time.Second)
			for i := 0; i < 6; i++ {
				row := Row{String(fmt.Sprintf("/u%d", i)), Timestamp(base.Add(time.Duration(i) * time.Second)), Int(int64(i))}
				if err := e.Append("hits", row); err != nil {
					t.Fatal(err)
				}
			}
			e.AdvanceTime("hits", base.Add(10*time.Second))
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			got := collectBatches(t, cq)
			if len(got) != 1 || !strings.Contains(got[0], has) || lacks != "" && strings.Contains(got[0], lacks) {
				t.Fatalf("close %d fired %q, want one batch with %q and without %q", k, got, has, lacks)
			}
			out = append(out, got...)
			if !store {
				return
			}
			keptGen, _ := keptBuildOf(t, cq).Kept()
			if gen, _ := urls.Heap.Stamp(); (keptGen != gen) != fresh {
				t.Fatalf("close %d: kept side at generation %d, the table at %d; want it left stale %v", k, keptGen, gen, fresh)
			}
		}
		fire(0, "|news|", "", false)

		w := e.beginWrite(nil)
		if err := w.insert(urls, nil, []types.Row{{types.NewString("/u3"), types.NewString("games")}}); err != nil {
			t.Fatal(err)
		}
		if err := w.deleteRow(urls, rid("/u0")); err != nil {
			t.Fatal(err)
		}
		fire(1, "|news|", "games", true)
		if err := w.commit(); err != nil {
			t.Fatal(err)
		}
		fire(2, "|games|", "news", false)

		w = e.beginWrite(nil)
		if err := w.deleteRow(urls, rid("/u1")); err != nil {
			t.Fatal(err)
		}
		fire(3, "|shop|", "", true)
		before, _ := urls.Heap.Stamp()
		w.fail(fmt.Errorf("rolled back"))
		if after, _ := urls.Heap.Stamp(); after == before {
			t.Fatal("an undone delete left the table's generation where it was")
		}
		fire(4, "|shop|", "", false)
		if strings.SplitN(out[3], "|", 2)[1] != strings.SplitN(out[4], "|", 2)[1] {
			t.Fatalf("an aborted delete changed the output:\n%s\n%s", out[3], out[4])
		}

		reader := e.beginWrite(nil)
		mustExec(t, e, `INSERT INTO urls VALUES ('/u4', 'music')`)
		fire(5, "|music|", "", true)
		fire(6, "|music|", "", true)
		if err := reader.commit(); err != nil {
			t.Fatal(err)
		}
		fire(7, "|music|", "", false)
		return out
	}
	for _, parallel := range []int{0, 4} {
		want := run(openMemModeCfg(t, "reexec", Config{ParallelCQ: parallel}), false)
		got := run(openMemModeCfg(t, "incremental", Config{ParallelCQ: parallel}), true)
		if a, b := strings.Join(got, "\n"), strings.Join(want, "\n"); a != b {
			t.Fatalf("ParallelCQ %d: the kept build side and re-execution differ:\n%s\nreexec:\n%s", parallel, a, b)
		}
	}
}

// TestEnrichBuildKeyedByTheClock: a post stage whose table-side join key
// reads cq_close(*) hashes other keys at every close, so it keeps no build
// side, and fires what re-execution fires.
func TestEnrichBuildKeyedByTheClock(t *testing.T) {
	run := func(mode string) []string {
		e := openMemMode(t, mode)
		mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
		mustExec(t, e, `CREATE TABLE urls (category varchar, weight bigint)`)
		mustExec(t, e, `INSERT INTO urls VALUES ('c0', 0), ('c1', 1), ('c2', 2), ('c3', 3)`)
		cq, err := e.Subscribe(`SELECT u.category, count(*) AS n FROM hits h <VISIBLE '2 seconds' ADVANCE '1 second'>, urls u
			WHERE h.bytes = u.weight + second(cq_close(*)) GROUP BY u.category`)
		if err != nil {
			t.Fatal(err)
		}
		defer cq.Close()
		if cq.Strategy != mode {
			t.Fatalf("%s: strategy %s", mode, cq.Strategy)
		}
		base := time.UnixMicro(ivmBase)
		for i := 0; i < 40; i++ {
			row := Row{String("/"), Timestamp(base.Add(time.Duration(i) * 150 * time.Millisecond)), Int(int64(i % 8))}
			if err := e.Append("hits", row); err != nil {
				t.Fatal(err)
			}
		}
		e.AdvanceTime("hits", base.Add(10*time.Second))
		return collectBatches(t, cq)
	}
	want, got := run("reexec"), run("incremental")
	if a, b := strings.Join(got, "\n"), strings.Join(want, "\n"); a != b || len(want) < 5 {
		t.Fatalf("a build side keyed by cq_close(*) fires\n%s\nre-execution\n%s", a, b)
	}
}
