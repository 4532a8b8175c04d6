package streamrel

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func mustExec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, e *Engine, sql string) *Rows {
	t.Helper()
	rows, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rows
}

func rowStrings(rows *Rows) []string {
	out := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		out[i] = r.String()
	}
	return out
}

func expectData(t *testing.T, rows *Rows, want ...string) {
	t.Helper()
	got := rowStrings(rows)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func openMem(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestTableCRUD(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE users (id bigint, name varchar, score double)`)
	res := mustExec(t, e, `INSERT INTO users VALUES (1, 'alice', 9.5), (2, 'bob', 7.25)`)
	if res.RowsAffected != 2 {
		t.Fatalf("inserted %d", res.RowsAffected)
	}
	mustExec(t, e, `INSERT INTO users (id, name) VALUES (3, 'carol')`)
	expectData(t, mustQuery(t, e, `SELECT * FROM users ORDER BY id`),
		"1|alice|9.5", "2|bob|7.25", "3|carol|NULL")

	res = mustExec(t, e, `UPDATE users SET score = score + 1 WHERE id <= 2`)
	if res.RowsAffected != 2 {
		t.Fatalf("updated %d", res.RowsAffected)
	}
	expectData(t, mustQuery(t, e, `SELECT score FROM users ORDER BY id`), "10.5", "8.25", "NULL")

	res = mustExec(t, e, `DELETE FROM users WHERE name = 'bob'`)
	if res.RowsAffected != 1 {
		t.Fatalf("deleted %d", res.RowsAffected)
	}
	expectData(t, mustQuery(t, e, `SELECT count(*) FROM users`), "2")

	mustExec(t, e, `TRUNCATE TABLE users`)
	expectData(t, mustQuery(t, e, `SELECT count(*) FROM users`), "0")
}

func TestInsertSelect(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE src (a bigint)`)
	mustExec(t, e, `CREATE TABLE dst (a bigint)`)
	mustExec(t, e, `INSERT INTO src VALUES (1), (2), (3)`)
	res := mustExec(t, e, `INSERT INTO dst SELECT a * 10 FROM src WHERE a > 1`)
	if res.RowsAffected != 2 {
		t.Fatalf("inserted %d", res.RowsAffected)
	}
	expectData(t, mustQuery(t, e, `SELECT a FROM dst ORDER BY a`), "20", "30")
}

func TestTypeCoercionOnInsert(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE ev (at timestamp, amount double)`)
	mustExec(t, e, `INSERT INTO ev VALUES ('2009-01-04 10:00:00', 5)`)
	expectData(t, mustQuery(t, e, `SELECT at, amount FROM ev`),
		"2009-01-04 10:00:00.000000|5.0")
}

func TestIndexedQuery(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE pts (k bigint, v varchar)`)
	for i := 0; i < 100; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO pts VALUES (%d, 'v%d')`, i, i))
	}
	mustExec(t, e, `CREATE INDEX pts_k ON pts (k)`)
	expectData(t, mustQuery(t, e, `SELECT v FROM pts WHERE k = 42`), "v42")
	expectData(t, mustQuery(t, e, `SELECT count(*) FROM pts WHERE k >= 10 AND k <= 19`), "10")
	// Index stays correct across updates and deletes.
	mustExec(t, e, `UPDATE pts SET v = 'new' WHERE k = 42`)
	expectData(t, mustQuery(t, e, `SELECT v FROM pts WHERE k = 42`), "new")
	mustExec(t, e, `DELETE FROM pts WHERE k = 42`)
	expectData(t, mustQuery(t, e, `SELECT count(*) FROM pts WHERE k = 42`), "0")
}

func TestShowAndExplain(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE t1 (a bigint)`)
	mustExec(t, e, `CREATE STREAM s1 (x bigint, at timestamp CQTIME USER)`)
	res := mustExec(t, e, `SHOW TABLES`)
	expectData(t, res.Rows, "t1")
	res = mustExec(t, e, `SHOW STREAMS`)
	expectData(t, res.Rows, "s1")

	res = mustExec(t, e, `EXPLAIN SELECT count(*) FROM s1 <ADVANCE '1 minute'>`)
	joined := strings.Join(rowStrings(res.Rows), "\n")
	if !strings.Contains(joined, "Continuous Query") || !strings.Contains(joined, "state: store ") {
		t.Fatalf("explain output:\n%s", joined)
	}
	res = mustExec(t, e, `EXPLAIN SELECT * FROM t1`)
	if !strings.Contains(rowStrings(res.Rows)[0], "Snapshot Query") {
		t.Fatal("explain snapshot")
	}
}

// TestPaperExamplesEndToEnd runs the paper's Examples 1–5 as one scenario:
// stream DDL, a direct CQ, a derived stream, a channel into an Active
// Table, and the historical-comparison join.
func TestPaperExamplesEndToEnd(t *testing.T) {
	e := openMem(t)
	// Example 1.
	mustExec(t, e, `CREATE STREAM url_stream (
		url varchar(1024),
		atime timestamp CQTIME USER,
		client_ip varchar(50))`)

	// Example 2: direct CQ.
	top, err := e.Subscribe(`SELECT url, count(*) url_count
		FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>
		GROUP by url
		ORDER by url_count desc
		LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	defer top.Close()

	// Example 3: derived stream.
	mustExec(t, e, `CREATE STREAM urls_now as
		SELECT url, count(*) as scnt, cq_close(*)
		FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>
		GROUP by url`)

	// Example 4: archive into an Active Table.
	mustExec(t, e, `CREATE TABLE urls_archive (url varchar(1024), scnt bigint, stime timestamp)`)
	mustExec(t, e, `CREATE CHANNEL urls_channel FROM urls_now INTO urls_archive APPEND`)

	// Example 5: historical comparison (1 minute ago rather than 1 week,
	// so the test stays small).
	histo, err := e.Subscribe(`select c.scnt, h.scnt, c.stime
		from (select sum(scnt) as scnt, cq_close(*) as stime
		      from urls_now <slices 1 windows>) c,
		     urls_archive h
		where c.stime - '1 minute'::interval = h.stime AND h.url = '/home'`)
	if err != nil {
		t.Fatal(err)
	}
	defer histo.Close()

	base := MustTimestamp("2009-01-04 09:00:00")
	hit := func(url string, offset time.Duration) {
		if err := e.Append("url_stream", Row{String(url), Timestamp(base.Add(offset)), String("10.0.0.1")}); err != nil {
			t.Fatal(err)
		}
	}
	hit("/home", 10*time.Second)
	hit("/home", 20*time.Second)
	hit("/buy", 30*time.Second)
	hit("/home", 70*time.Second) // second minute
	if err := e.AdvanceTime("url_stream", base.Add(3*time.Minute)); err != nil {
		t.Fatal(err)
	}

	// Example 2's CQ fired for minutes 1..3.
	b, ok := top.TryNext()
	if !ok {
		t.Fatal("no window from Example 2 CQ")
	}
	if b.Rows[0].String() != "/home|2" && b.Rows[0].String() != "/home|3" {
		t.Fatalf("unexpected top row: %v", b.Rows[0])
	}

	// The Active Table accumulated per-minute counts.
	rows := mustQuery(t, e, `SELECT url, scnt, stime FROM urls_archive WHERE stime = timestamp '2009-01-04 09:01:00' ORDER BY url`)
	expectData(t, rows, "/buy|1|2009-01-04 09:01:00.000000", "/home|2|2009-01-04 09:01:00.000000")

	// The archive is a full SQL table: aggregate over it.
	rows = mustQuery(t, e, `SELECT max(scnt) FROM urls_archive WHERE url = '/home'`)
	expectData(t, rows, "3")

	// Example 5's join compared current vs minute-ago.
	found := false
	for _, batch := range histo.Drain() {
		for _, r := range batch.Rows {
			if !r[0].IsNull() && !r[1].IsNull() {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("historical comparison join produced no matched rows")
	}
}

func TestChannelReplaceMode(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, e, `CREATE STREAM latest AS SELECT sum(v), cq_close(*) FROM s <ADVANCE '1 minute'>`)
	mustExec(t, e, `CREATE TABLE latest_t (total bigint, stime timestamp)`)
	mustExec(t, e, `CREATE CHANNEL ch FROM latest INTO latest_t REPLACE`)

	base := MustTimestamp("2009-01-04 00:00:00")
	e.Append("s", Row{Int(5), Timestamp(base.Add(10 * time.Second))})
	e.AdvanceTime("s", base.Add(time.Minute))
	expectData(t, mustQuery(t, e, `SELECT total FROM latest_t`), "5")

	e.Append("s", Row{Int(7), Timestamp(base.Add(70 * time.Second))})
	e.AdvanceTime("s", base.Add(2*time.Minute))
	// REPLACE: only the newest window remains.
	expectData(t, mustQuery(t, e, `SELECT total FROM latest_t`), "7")
}

func TestStreamingView(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, e, `CREATE VIEW big AS SELECT v, at FROM s <ADVANCE '1 minute'> WHERE v > 10`)
	cq, err := e.Subscribe(`SELECT count(*) FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	base := MustTimestamp("2009-01-04 00:00:00")
	e.Append("s", Row{Int(5), Timestamp(base.Add(1 * time.Second))})
	e.Append("s", Row{Int(50), Timestamp(base.Add(2 * time.Second))})
	e.AdvanceTime("s", base.Add(time.Minute))
	b, ok := cq.TryNext()
	if !ok || b.Rows[0][0].Int() != 1 {
		t.Fatalf("streaming view result: %+v ok=%v", b, ok)
	}
}

func TestSnapshotIsolationAcrossWriters(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	mustExec(t, e, `INSERT INTO t VALUES (1)`)
	r1 := mustQuery(t, e, `SELECT count(*) FROM t`)
	mustExec(t, e, `INSERT INTO t VALUES (2)`)
	r2 := mustQuery(t, e, `SELECT count(*) FROM t`)
	expectData(t, r1, "1")
	expectData(t, r2, "2")
}

func TestSubscribeErrors(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	if _, err := e.Subscribe(`SELECT * FROM t`); err == nil {
		t.Fatal("Subscribe on table-only query should fail")
	}
	if _, err := e.Query(`SELECT count(*) FROM missing`); err == nil {
		t.Fatal("query on missing relation")
	}
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	if _, err := e.Query(`SELECT count(*) FROM s <ADVANCE '1 minute'>`); err == nil {
		t.Fatal("Query over stream should fail")
	}
	if _, err := e.Exec(`INSERT INTO nowhere VALUES (1)`); err == nil {
		t.Fatal("insert into missing relation")
	}
	if _, err := e.Exec(`CREATE STREAM bad (v bigint)`); err == nil {
		t.Fatal("stream without CQTIME should fail")
	}
	if _, err := e.Exec(`SELECT 1`); err == nil {
		t.Fatal("Exec of SELECT should direct to Query")
	}
}

func TestDDLGuards(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	if _, err := e.Exec(`CREATE TABLE t (a bigint)`); err == nil {
		t.Fatal("duplicate table")
	}
	mustExec(t, e, `CREATE TABLE IF NOT EXISTS t (a bigint)`)
	mustExec(t, e, `DROP TABLE t`)
	if _, err := e.Exec(`DROP TABLE t`); err == nil {
		t.Fatal("drop missing")
	}
	mustExec(t, e, `DROP TABLE IF EXISTS t`)

	// Channel schema validation.
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, e, `CREATE STREAM d AS SELECT v, cq_close(*) FROM s <ADVANCE '1 minute'>`)
	mustExec(t, e, `CREATE TABLE good (v bigint, stime timestamp)`)
	mustExec(t, e, `CREATE TABLE narrow (v bigint)`)
	mustExec(t, e, `CREATE TABLE wrongtype (v varchar, stime timestamp)`)
	if _, err := e.Exec(`CREATE CHANNEL c1 FROM d INTO narrow`); err == nil {
		t.Fatal("arity mismatch channel")
	}
	if _, err := e.Exec(`CREATE CHANNEL c2 FROM d INTO wrongtype`); err == nil {
		t.Fatal("type mismatch channel")
	}
	mustExec(t, e, `CREATE CHANNEL c3 FROM d INTO good`)
	// Cannot drop objects a channel depends on.
	if _, err := e.Exec(`DROP TABLE good`); err == nil {
		t.Fatal("drop channel target")
	}
	if _, err := e.Exec(`DROP STREAM d`); err == nil {
		t.Fatal("drop channel source")
	}
	mustExec(t, e, `DROP CHANNEL c3`)
	mustExec(t, e, `DROP STREAM d`)
	mustExec(t, e, `DROP TABLE good`)
}

func TestDropDerivedStopsEmissions(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, e, `CREATE STREAM d AS SELECT count(*), cq_close(*) FROM s <ADVANCE '1 minute'>`)
	mustExec(t, e, `CREATE TABLE sink_t (n bigint, stime timestamp)`)
	mustExec(t, e, `CREATE CHANNEL ch FROM d INTO sink_t`)
	base := MustTimestamp("2009-01-04 00:00:00")
	e.Append("s", Row{Int(1), Timestamp(base.Add(time.Second))})
	e.AdvanceTime("s", base.Add(time.Minute))
	expectData(t, mustQuery(t, e, `SELECT count(*) FROM sink_t`), "1")

	mustExec(t, e, `DROP CHANNEL ch`)
	mustExec(t, e, `DROP STREAM d`)
	e.Append("s", Row{Int(1), Timestamp(base.Add(61 * time.Second))})
	e.AdvanceTime("s", base.Add(2*time.Minute))
	expectData(t, mustQuery(t, e, `SELECT count(*) FROM sink_t`), "1")
}

func TestExecScript(t *testing.T) {
	e := openMem(t)
	err := e.ExecScript(`
		CREATE TABLE a (x bigint);
		INSERT INTO a VALUES (1), (2);
		CREATE TABLE b (y bigint);
		INSERT INTO b SELECT x * 100 FROM a;
	`)
	if err != nil {
		t.Fatal(err)
	}
	expectData(t, mustQuery(t, e, `SELECT y FROM b ORDER BY y`), "100", "200")
	if err := e.ExecScript(`CREATE TABLE c (z bigint); BOGUS;`); err == nil {
		t.Fatal("script error not reported")
	}
}

func TestCQBlockingNext(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, err := e.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Batch, 1)
	go func() {
		b, ok := cq.Next()
		if ok {
			done <- b
		}
		close(done)
	}()
	base := MustTimestamp("2009-01-04 00:00:00")
	e.Append("s", Row{Int(1), Timestamp(base.Add(time.Second))})
	e.AdvanceTime("s", base.Add(time.Minute))
	select {
	case b := <-done:
		if b.Rows[0][0].Int() != 1 {
			t.Fatalf("batch: %+v", b)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never returned")
	}
	cq.Close()
	if _, ok := cq.Next(); ok {
		// A queued batch may remain; drain and re-check.
		if _, ok := cq.Next(); ok {
			t.Fatal("Next after close and drain should report done")
		}
	}
}

// TestQueryNestingIsBounded: SQL text nests as deep as its sender likes — a
// million "(" is 2 MB, well inside one wire frame — and the parser recurses
// once per level: without a bound the process died of a stack overflow, which
// no recover catches. Every production that contains itself, and every chain
// that builds a deeper tree without recursing, now answers with a parse error
// that names the limit; a statement inside it runs.
func TestQueryNestingIsBounded(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	mustExec(t, e, `INSERT INTO t VALUES (1)`)
	nested := func(open, leaf, close string, n int) string {
		return strings.Repeat(open, n) + leaf + strings.Repeat(close, n)
	}
	for name, sql := range map[string]string{
		"parentheses":   "SELECT " + nested("(", "1", ")", 1_000_000),
		"signs":         "SELECT " + nested("- ", "1", "", 50_000),
		"NOT":           "SELECT " + nested("NOT ", "true", "", 50_000),
		"CASE":          "SELECT " + nested("CASE WHEN true THEN ", "1", " END", 50_000),
		"function args": "SELECT " + nested("abs(", "1", ")", 50_000),
		"subqueries":    "SELECT a FROM " + nested("(SELECT a FROM ", "t", ") x", 50_000),
		"IN lists":      "SELECT " + nested("1 IN (", "1", ")", 50_000),
		"operators":     "SELECT 1" + strings.Repeat("+1", 2_000_000),
		"AND":           "SELECT true" + strings.Repeat(" AND true", 50_000),
		"casts":         "SELECT 1" + strings.Repeat("::bigint", 50_000),
		"joins":         "SELECT 1 FROM t" + strings.Repeat(" CROSS JOIN t", 50_000),
		"unions":        "SELECT 1" + strings.Repeat(" UNION ALL SELECT 1", 50_000),
	} {
		if _, err := e.Query(sql); err == nil || !strings.Contains(err.Error(), "nests deeper than 10000 levels") {
			t.Errorf("%s: %v", name, err)
		}
	}
	expectData(t, mustQuery(t, e, "SELECT "+nested("(", "a", ")", 9_000)+" + 1"+strings.Repeat("+1", 900)+" FROM t"), "902")
	expectData(t, mustQuery(t, e, "SELECT "+nested("- ", "a", "", 4_000)+" FROM t"), "1")
}
