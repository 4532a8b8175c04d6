package streamrel

import (
	"strings"
	"testing"

	"streamrel/internal/sql"
)

// sqlCase is one statement with its expected output (rows joined by
// newlines) or expected error substring.
type sqlCase struct {
	sql     string
	want    string // expected rows, "|"-separated columns, "\n"-separated rows
	wantErr string // substring of the expected error
	exec    bool   // run through Exec instead of Query
}

// TestSQLSuite is a broad regression net: a single engine executes a long
// script covering the dialect surface, with expected outputs inline.
func TestSQLSuite(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(sqlSuiteSetup); err != nil {
		t.Fatal(err)
	}
	runSQLCases(t, e, sqlSuiteCases)
}

// sqlSuiteSetup and sqlSuiteCases are the suite: the tables, then the
// statements in the order they run (some of them DML the later ones read).
const sqlSuiteSetup = `
		CREATE TABLE nums (n bigint, f double, s varchar);
		INSERT INTO nums VALUES
			(1, 1.5, 'one'), (2, 2.5, 'two'), (3, NULL, 'three'),
			(4, 4.5, NULL), (NULL, 5.5, 'five');
		CREATE TABLE pairs (k bigint, v varchar);
		INSERT INTO pairs VALUES (1, 'a'), (2, 'b'), (2, 'B'), (5, 'e');
	`

var sqlSuiteCases = []sqlCase{
	// Scalar shapes.
	{sql: `SELECT 1 + 2 * 3, 'a' || 'b', 10 / 4, 10.0 / 4`, want: "7|ab|2|2.5"},
	{sql: `SELECT CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END`, want: "yes"},
	{sql: `SELECT coalesce(NULL, NULL, 3)`, want: "3"},
	{sql: `SELECT interval '1 hour' + interval '30 minutes'`, want: "1 hour 30 minutes"},
	{sql: `SELECT timestamp '2009-01-04 09:00:00' + interval '90 minutes'`,
		want: "2009-01-04 10:30:00.000000"},
	{sql: `SELECT timestamp '2009-01-05' - timestamp '2009-01-04'`, want: "1 day"},

	// Filters and NULL semantics.
	{sql: `SELECT n FROM nums WHERE f > 2 ORDER BY n NULLS LAST`, want: "2\n4\nNULL"},
	{sql: `SELECT count(*) FROM nums WHERE f > 2`, want: "3"},
	{sql: `SELECT n FROM nums WHERE f IS NULL`, want: "3"},
	{sql: `SELECT count(*) FROM nums WHERE NULL`, want: "0"},
	{sql: `SELECT n FROM nums WHERE s LIKE 't%' ORDER BY n`, want: "2\n3"},
	{sql: `SELECT n FROM nums WHERE n BETWEEN 2 AND 3 ORDER BY n`, want: "2\n3"},
	{sql: `SELECT n FROM nums WHERE n IN (1, 3, 99) ORDER BY n`, want: "1\n3"},

	// Aggregates.
	{sql: `SELECT count(*), count(n), count(f), sum(n), avg(n) FROM nums`,
		want: "5|4|4|10|2.5"},
	{sql: `SELECT min(s), max(s) FROM nums`, want: "five|two"},
	{sql: `SELECT count(distinct v) FROM pairs`, want: "4"},
	{sql: `SELECT k, count(*) FROM pairs GROUP BY k HAVING count(*) = 1 ORDER BY k`,
		want: "1|1\n5|1"},
	{sql: `SELECT sum(n) FROM nums WHERE n > 100`, want: "NULL"},

	// Joins.
	{sql: `SELECT n, v FROM nums JOIN pairs ON n = k ORDER BY n, v`,
		want: "1|a\n2|B\n2|b"},
	{sql: `SELECT n, v FROM nums LEFT JOIN pairs ON n = k WHERE n IS NOT NULL ORDER BY n, v NULLS FIRST`,
		want: "1|a\n2|B\n2|b\n3|NULL\n4|NULL"},
	{sql: `SELECT count(*) FROM nums, pairs`, want: "20"},

	// Subqueries and set ops.
	{sql: `SELECT total FROM (SELECT sum(n) AS total FROM nums) t`, want: "10"},
	{sql: `SELECT n FROM nums WHERE n IS NOT NULL
		       EXCEPT SELECT k FROM pairs ORDER BY 1`, want: "3\n4"},
	{sql: `SELECT k FROM pairs INTERSECT SELECT n FROM nums ORDER BY 1`, want: "1\n2"},
	{sql: `SELECT 1 UNION SELECT 1 UNION ALL SELECT 1`, want: "1\n1"},
	// A right side in parentheses keeps its own ORDER BY/LIMIT/OFFSET.
	{sql: `SELECT n FROM nums WHERE n < 3
		       UNION ALL (SELECT k FROM pairs ORDER BY k DESC LIMIT 1) ORDER BY 1`, want: "1\n2\n5"},
	{sql: `SELECT n FROM nums WHERE n IS NOT NULL
		       EXCEPT (SELECT k FROM pairs ORDER BY k LIMIT 1) ORDER BY 1`, want: "2\n3\n4"},
	{sql: `SELECT k FROM pairs
		       INTERSECT (SELECT n FROM nums ORDER BY n NULLS LAST LIMIT 1 OFFSET 1)`, want: "2"},
	{sql: `SELECT n FROM nums WHERE n = 4
		       UNION ALL (SELECT k FROM pairs ORDER BY length(v), k DESC LIMIT 1)
		       UNION ALL (SELECT n FROM nums ORDER BY n NULLS LAST LIMIT 2) ORDER BY 1 DESC LIMIT 3`, want: "5\n4\n2"},
	// A chain in parentheses is one operand, with its own tail.
	{sql: `SELECT 1 UNION ALL (SELECT 2 UNION ALL SELECT 3 ORDER BY 1 DESC LIMIT 1)`, want: "1\n3"},
	{sql: `SELECT n FROM nums WHERE n IS NOT NULL
		       EXCEPT (SELECT k FROM pairs EXCEPT SELECT 1) ORDER BY 1`, want: "1\n3\n4"},

	// Sorting and paging.
	{sql: `SELECT n FROM nums ORDER BY n DESC NULLS LAST LIMIT 2`, want: "4\n3"},
	{sql: `SELECT n FROM nums ORDER BY n NULLS FIRST LIMIT 2 OFFSET 1`, want: "1\n2"},
	{sql: `SELECT s FROM nums WHERE s IS NOT NULL ORDER BY length(s), s`,
		want: "one\ntwo\nfive\nthree"},

	// DISTINCT.
	{sql: `SELECT DISTINCT k FROM pairs ORDER BY k`, want: "1\n2\n5"},

	// Functions.
	{sql: `SELECT upper(s) FROM nums WHERE n = 1`, want: "ONE"},
	{sql: `SELECT substr(s, 2, 2) FROM nums WHERE n = 3`, want: "hr"},
	{sql: `SELECT round(f, 0) FROM nums WHERE n = 2`, want: "3.0"},
	{sql: `SELECT year(timestamp '2009-01-04'), dow(timestamp '2009-01-04')`, want: "2009|0"},

	// DML through Exec.
	{sql: `UPDATE nums SET s = 'THREE' WHERE n = 3`, exec: true},
	{sql: `SELECT s FROM nums WHERE n = 3`, want: "THREE"},
	{sql: `DELETE FROM nums WHERE n IS NULL`, exec: true},
	{sql: `SELECT count(*) FROM nums`, want: "4"},

	// Errors.
	{sql: `SELECT missing FROM nums`, wantErr: "does not exist"},
	{sql: `SELECT n FROM nums GROUP BY s`, wantErr: "GROUP BY"},
	{sql: `SELECT * FROM nums WHERE s > 1`, wantErr: "compare"},
	{sql: `SELECT n/0 FROM nums`, wantErr: "division by zero"},
}

// runSQLCases executes each case against e and reports every mismatch.
func runSQLCases(t *testing.T, e *Engine, cases []sqlCase) {
	t.Helper()
	for _, c := range cases {
		if c.exec {
			if _, err := e.Exec(c.sql); err != nil {
				t.Errorf("Exec(%s): %v", c.sql, err)
			}
			continue
		}
		rows, err := e.Query(c.sql)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Query(%s): error %v, want substring %q", c.sql, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Query(%s): %v", c.sql, err)
			continue
		}
		got := strings.Join(rowStrings(rows), "\n")
		if got != c.want {
			t.Errorf("Query(%s):\ngot:\n%s\nwant:\n%s", c.sql, got, c.want)
		}
		// What the one printer makes of the statement reads the same rows.
		if stmt, err := sql.Parse(c.sql); err == nil {
			if sel, ok := stmt.(*sql.Select); ok {
				again, err := e.Query(sql.Format(sel))
				if err != nil || strings.Join(rowStrings(again), "\n") != got {
					t.Errorf("Query(%s) printed as\n%s\nreads %v, %v", c.sql, sql.Format(sel), again, err)
				}
			}
		}
	}
}
