package streamrel

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// TestLimitLaziness pins, at the SQL surface, that a LIMIT stops the
// operators below it from evaluating rows the query does not need: the
// second row of t divides by zero, and only the queries that must read it
// fail. (internal/exec's TestLimitLaziness pins the evaluation counts.)
func TestLimitLaziness(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(`CREATE TABLE t (x bigint); INSERT INTO t VALUES (1),(0);`); err != nil {
		t.Fatal(err)
	}
	runSQLCases(t, e, []sqlCase{
		{sql: `SELECT 10/x FROM t LIMIT 1`, want: "10"},
		{sql: `SELECT x FROM t WHERE 10/x > 0 LIMIT 1`, want: "1"},
		{sql: `SELECT DISTINCT 10/x FROM t LIMIT 1`, want: "10"},
		{sql: `SELECT 10/x FROM t`, wantErr: "division by zero"},
		// Sort consumes its whole input before LIMIT sees a row.
		{sql: `SELECT 10/x FROM t ORDER BY x DESC LIMIT 1`, wantErr: "division by zero"},
	})
}

var analyzeTime = regexp.MustCompile(`, time=[^)]*| in \S+$`)

// TestExplainAnalyzeGolden pins what EXPLAIN ANALYZE reports apart from
// wall time — operator names, depths and every rows= — for one query per
// operator shape. The lists were captured from the row-at-a-time executor,
// where each operator pulled exactly the rows its parent consumed; the
// instrumented tree pulls with the demand the plain tree would, so the
// counts describe the work a plain Query does.
func TestExplainAnalyzeGolden(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(`
		CREATE TABLE hits (id bigint, url_id bigint, ms bigint);
		CREATE TABLE urls (url_id bigint, site varchar);
		INSERT INTO urls VALUES (0,'a'),(1,'b'),(2,'a'),(3,'c'),(4,'b');
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO hits VALUES (%d, %d, %d)`, i, i%7, (i*37)%100))
	}
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{`SELECT id, ms * 2 FROM hits WHERE ms > 50`, []string{
			"Snapshot Query (SQ): executed",
			"  Project  (rows=19)",
			"    Filter  (rows=19)",
			"      SeqScan  (rows=40)",
			"  output: 19 rows",
		}},
		{`SELECT url_id, count(*), sum(ms) FROM hits GROUP BY url_id ORDER BY sum(ms) DESC LIMIT 3`, []string{
			"Snapshot Query (SQ): executed",
			"  Limit  (rows=3)",
			"    Project  (rows=3)",
			"      Sort  (rows=3)",
			"        Project  (rows=7)",
			"          HashAgg  (rows=7)",
			"            SeqScan  (rows=40)",
			"  output: 3 rows",
		}},
		{`SELECT site, count(*), max(ms) FROM hits JOIN urls ON hits.url_id = urls.url_id GROUP BY site`, []string{
			"Snapshot Query (SQ): executed",
			"  Project  (rows=3)",
			"    HashAgg  (rows=3)",
			"      HashJoin  (rows=30)",
			"        SeqScan  (rows=40)",
			"        SeqScan  (rows=5)",
			"  output: 3 rows",
		}},
		{`SELECT id, site FROM hits JOIN urls ON hits.url_id < urls.url_id WHERE id < 5`, []string{
			"Snapshot Query (SQ): executed",
			"  Project  (rows=10)",
			"    Filter  (rows=10)",
			"      NestedLoopJoin  (rows=60)",
			"        SeqScan  (rows=40)",
			"        SeqScan  (rows=5)",
			"  output: 10 rows",
		}},
		{`SELECT id, site FROM hits LEFT JOIN urls ON hits.url_id = urls.url_id WHERE id < 10`, []string{
			"Snapshot Query (SQ): executed",
			"  Project  (rows=10)",
			"    Filter  (rows=10)",
			"      HashJoin (left)  (rows=40)",
			"        SeqScan  (rows=40)",
			"        SeqScan  (rows=5)",
			"  output: 10 rows",
		}},
		{`SELECT DISTINCT url_id FROM hits`, []string{
			"Snapshot Query (SQ): executed",
			"  Distinct  (rows=7)",
			"    Project  (rows=40)",
			"      SeqScan  (rows=40)",
			"  output: 7 rows",
		}},
		{`SELECT url_id FROM hits WHERE id < 4 UNION SELECT url_id FROM urls`, []string{
			"Snapshot Query (SQ): executed",
			"  Union  (rows=5)",
			"    Project  (rows=4)",
			"      Filter  (rows=4)",
			"        SeqScan  (rows=40)",
			"    Project  (rows=5)",
			"      SeqScan  (rows=5)",
			"  output: 5 rows",
		}},
		{`SELECT id FROM hits WHERE ms > 30 LIMIT 4 OFFSET 3`, []string{
			"Snapshot Query (SQ): executed",
			"  Limit  (rows=4)",
			"    Project  (rows=7)",
			"      Filter  (rows=7)",
			"        SeqScan  (rows=10)",
			"  output: 4 rows",
		}},
		{`SELECT id, site FROM hits JOIN urls ON hits.url_id = urls.url_id LIMIT 1`, []string{
			"Snapshot Query (SQ): executed",
			"  Limit  (rows=1)",
			"    Project  (rows=1)",
			"      HashJoin  (rows=1)",
			"        SeqScan  (rows=1)",
			"        SeqScan  (rows=5)",
			"  output: 1 rows",
		}},
		{`SELECT DISTINCT ms / 10 FROM hits WHERE id > 2 LIMIT 2`, []string{
			"Snapshot Query (SQ): executed",
			"  Limit  (rows=2)",
			"    Distinct  (rows=2)",
			"      Project  (rows=2)",
			"        Filter  (rows=2)",
			"          SeqScan  (rows=5)",
			"  output: 2 rows",
		}},
		{`SELECT id FROM hits LIMIT 0`, []string{
			"Snapshot Query (SQ): executed",
			"  Limit  (rows=0)",
			"    Project  (rows=0)",
			"      SeqScan  (rows=0)",
			"  output: 0 rows",
		}},
	} {
		got := rowStrings(mustExec(t, e, `EXPLAIN ANALYZE `+c.sql).Rows)
		for i, l := range got {
			got[i] = analyzeTime.ReplaceAllString(l, "")
		}
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("EXPLAIN ANALYZE %s:\ngot:\n%s\nwant:\n%s", c.sql, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}

// TestTableScanStreams is the SQL-surface view of the streaming table scan:
// the table below spans two heap segments (storage's segRows is 4096), its
// divide-by-zero row lies in the second, and only the statements that must
// read that far fail — a LIMIT stops the heap read itself. The aggregates
// check that a scan crossing the segment boundary returns every row once.
func TestTableScanStreams(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE TABLE big (id bigint, x bigint)`)
	rows := make([]Row, 5000)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Int(int64(1 + i%9))}
	}
	rows[4500][1] = Int(0)
	if err := e.BulkInsert("big", rows); err != nil {
		t.Fatal(err)
	}
	runSQLCases(t, e, []sqlCase{
		{sql: `SELECT 10/x FROM big LIMIT 1`, want: "10"},
		{sql: `SELECT id FROM big WHERE 10/x < 2 LIMIT 2`, want: "5\n6"},
		{sql: `SELECT id, 10/x FROM big LIMIT 1 OFFSET 4499`, want: "4499|1"},
		{sql: `SELECT count(*), min(id), max(id), sum(id) FROM big`, want: "5000|0|4999|12497500"},
		{sql: `SELECT count(*) FROM big WHERE id >= 4090 AND id < 4100`, want: "10"},
		{sql: `SELECT sum(10/x) FROM big`, wantErr: "division by zero"},
		{sql: `SELECT 10/x FROM big LIMIT 1 OFFSET 4500`, wantErr: "division by zero"},
	})
}

// TestExplainAnalyzeRecycledJoin is TestExplainAnalyzeGolden's shape for a
// join under an aggregate with more matches than one pull asks for (2 144
// of 3 000 probe rows, chunkRows is 1 024): the join carves all of them
// from one 16-row block, batch after batch, and what the aggregate computes
// and every operator reports is what they would over fresh rows.
func TestExplainAnalyzeRecycledJoin(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(`
		CREATE TABLE hits (id bigint, url_id bigint, ms bigint);
		CREATE TABLE urls (url_id bigint, site varchar);
		INSERT INTO urls VALUES (0,'a'),(1,'b'),(2,'a'),(3,'c'),(4,'b');
	`); err != nil {
		t.Fatal(err)
	}
	hits := make([]Row, 3000)
	for i := range hits {
		hits[i] = Row{Int(int64(i)), Int(int64(i % 7)), Int(int64((i * 37) % 100))}
	}
	if err := e.BulkInsert("hits", hits); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT site, count(*), sum(ms), min(id), max(id) FROM hits JOIN urls ON hits.url_id = urls.url_id GROUP BY site ORDER BY site`
	runSQLCases(t, e, []sqlCase{{sql: q, want: "a|858|42454|0|2998\nb|857|42473|1|2997\nc|429|21173|3|2999"}})
	want := []string{
		"Snapshot Query (SQ): executed",
		"  Sort  (rows=3)",
		"    Project  (rows=3)",
		"      HashAgg  (rows=3)",
		"        HashJoin  (rows=2144)",
		"          SeqScan  (rows=3000)",
		"          SeqScan  (rows=5)",
		"  output: 3 rows",
	}
	got := rowStrings(mustExec(t, e, `EXPLAIN ANALYZE `+q).Rows)
	for i, l := range got {
		got[i] = analyzeTime.ReplaceAllString(l, "")
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("EXPLAIN ANALYZE %s:\ngot:\n%s\nwant:\n%s", q, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
