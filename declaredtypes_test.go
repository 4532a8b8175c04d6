package streamrel_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"streamrel"
	"streamrel/internal/server"
	"streamrel/internal/shard"
	"streamrel/internal/sql"
	"streamrel/internal/sql/sqlgen"
)

// declaredRows are t's rows and, with a timestamp after k, s's: NULLs in every
// numeric column, and BIGINTs written into the DOUBLE columns, which the
// insert and the append cast.
var declaredRows = [][]any{
	{"a", nil, 1.5, 7, nil},
	{"a", 2, 2.5, nil, 4},
	{"b", 3, nil, -2, 0.25},
	{"b", nil, nil, nil, nil},
	{"c", -4, 2, 5, -1.5},
}

// declaredProbes are queries whose answers once broke their declared types:
// coalesce, greatest and a sum of coalesce took their first argument's type,
// CASE its first arm's, and a set operation its left input's. Each has its
// snapshot answer over declaredRows, its values space-separated.
var declaredProbes = []struct{ q, want string }{
	{`SELECT coalesce(i, f) FROM t`, "1.5 2.0 3.0 NULL -4.0"},
	{`SELECT CASE WHEN i IS NULL THEN f ELSE i END FROM t`, "1.5 2.0 3.0 NULL -4.0"},
	{`SELECT sum(coalesce(i, f)) FROM t`, "2.5"},
	{`SELECT greatest(i, f) FROM t`, "NULL 2.5 NULL NULL 2.0"},
	{`SELECT i FROM t UNION ALL SELECT f FROM t`, "NULL 2.0 3.0 NULL -4.0 1.5 2.5 NULL NULL 2.0"},
}

// declaredQuery writes, around sqlgen's mixed expressions, a SELECT over t:
// a select list, an aggregate grouped by k, or a set operation.
func declaredQuery(g *sqlgen.Gen) string {
	g.Ints, g.Doubles = []string{"i", "j"}, []string{"f", "g"}
	num := func() string { return g.Num(3) }
	switch g.Pick(3) {
	case 1:
		agg := func() string {
			a := g.One("sum", "min", "max", "count", "avg") + "(" + num() + ")"
			return g.One(a, "coalesce("+a+", "+g.One("0", "0.5")+")", a+" * 2")
		}
		return "SELECT k, " + g.List(3, agg) + " FROM t GROUP BY k"
	case 2:
		return "SELECT k, " + num() + " FROM t " + g.One("UNION ALL", "UNION", "EXCEPT", "INTERSECT") + " SELECT k, " + num() + " FROM t"
	}
	return "SELECT k, " + g.List(3, num) + " FROM t"
}

// TestDeclaredTypesHold: every value of every answer is NULL or of the type
// its column declares — for the probes and 300 generated queries, each run
// as a snapshot query, as a CQ over a base stream of the same rows (on a
// store and re-executing) and through a shard merge bound to the columns a
// shard answers.
func TestDeclaredTypesHold(t *testing.T) {
	for _, p := range declaredProbes {
		if got := checkDeclaredTypes(t, p.q, false); got != p.want {
			t.Errorf("%s answers %s, want %s", p.q, got, p.want)
		}
	}
	for seed := 0; seed < 300; seed++ {
		data := make([]byte, 64)
		for i := range data {
			data[i] = byte(seed*7919 + i*i*31 + i*seed)
		}
		checkDeclaredTypes(t, declaredQuery(&sqlgen.Gen{Data: data}), false)
	}
}

// FuzzDeclaredTypes is TestDeclaredTypesHold's property over any query: q
// when it parses as a SELECT, else one sqlgen writes from data. Its seeds are
// the probes.
func FuzzDeclaredTypes(f *testing.F) {
	for _, p := range declaredProbes {
		f.Add(p.q, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, q string, data []byte) {
		if stmt, err := sql.Parse(q); err == nil {
			if _, ok := stmt.(*sql.Select); ok {
				checkDeclaredTypes(t, q, true)
				return
			}
		}
		checkDeclaredTypes(t, declaredQuery(&sqlgen.Gen{Data: data}), false)
	})
}

// checkDeclaredTypes runs q (over t) in each of the three ways, checks every
// value against its declared column and returns the snapshot's answer, its
// values space-separated. Lenient, a query that fails to run is checked no
// further; else its failure fails t.
func checkDeclaredTypes(t *testing.T, q string, lenient bool) (answer string) {
	t.Helper()
	failed := func(what string, err error) {
		t.Helper()
		if !lenient {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for _, mode := range []streamrel.StateOverride{0, streamrel.StateReexec} {
		e, err := streamrel.Open(streamrel.Config{StateOverride: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.ExecScript(`CREATE TABLE t (k varchar, i bigint, f double, j bigint, g double);
			CREATE STREAM s (k varchar, at timestamp CQTIME USER, i bigint, f double, j bigint, g double);`); err != nil {
			t.Fatal(err)
		}
		base := streamrel.MustTimestamp("2009-01-04 00:00:00")
		var stream []streamrel.Row
		for n, r := range declaredRows {
			row := make(streamrel.Row, len(r))
			for i, v := range r {
				row[i] = value(v)
			}
			if err := e.BulkInsert("t", []streamrel.Row{row}); err != nil {
				t.Fatal(err)
			}
			stream = append(stream, append(streamrel.Row{row[0], streamrel.Timestamp(base.Add(time.Duration(n) * time.Second))}, row[1:]...))
		}
		rows, err := e.Query(q)
		if err != nil {
			failed(q, err)
			return
		}
		holds(t, q, "a snapshot", server.EncodeSchema(rows.Columns), rows.Data)
		answer = fmt.Sprint(rows.Data)
		answer = answer[1 : len(answer)-1]

		cqText := strings.Replace(q, " FROM t", " FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'>", 1) // a CQ reads one window
		cq, err := e.Subscribe(cqText)
		if err != nil {
			failed(cqText, err)
			return
		}
		if err := e.Append("s", stream...); err != nil {
			t.Fatal(err)
		}
		if err := e.AdvanceTime("s", base.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		var fired []streamrel.Row
		for _, b := range cq.Drain() {
			fired = append(fired, b.Rows...)
		}
		if len(fired) == 0 && len(rows.Data) > 0 && !lenient {
			t.Fatalf("%s: the CQ fired no row, the snapshot %d", cqText, len(rows.Data))
		}
		holds(t, cqText, "a CQ ("+cq.Strategy+")", server.EncodeSchema(cq.Columns), fired)
		cq.Close()

		// Two shards holding t answer the partial block; the merge is bound to
		// their columns.
		stmt, err := sql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := shard.PlanMerge(stmt.(*sql.Select), "")
		if err != nil {
			continue // refused for the router (a set operation, say)
		}
		part := q
		if mp.ScatterSQL != "" {
			part = mp.ScatterSQL
		}
		partial, err := e.Query(part)
		if err != nil {
			failed(part, err)
			return
		}
		cols, err := mp.Bind(server.EncodeSchema(partial.Columns))
		if err != nil {
			failed(q+": bind", err)
			return
		}
		merged, err := mp.Merge([][]streamrel.Row{partial.Data, partial.Data})
		if err != nil {
			failed(q+": merge", err)
			return
		}
		holds(t, q, "a shard merge", cols, merged)
	}
	return answer
}

// holds fails t for the first value of rows that is neither NULL nor of the
// type its column declares.
func holds(t *testing.T, q, how string, cols []server.WireColumn, rows []streamrel.Row) {
	t.Helper()
	for _, row := range rows {
		if len(row) != len(cols) {
			t.Fatalf("%s as %s: a row of %d values under %d columns", q, how, len(row), len(cols))
		}
		for i, v := range row {
			if !v.IsNull() && v.Type().String() != cols[i].Type {
				t.Fatalf("%s as %s: column %s declares %s and answers %s %v", q, how, cols[i].Name, cols[i].Type, v.Type(), v)
			}
		}
	}
}

// value is a Go value as a streamrel.Value: nil NULL, an int BIGINT, a
// float64 DOUBLE, a string VARCHAR.
func value(v any) streamrel.Value {
	switch v := v.(type) {
	case int:
		return streamrel.Int(int64(v))
	case float64:
		return streamrel.Float(v)
	case string:
		return streamrel.String(v)
	case nil:
		return streamrel.Null
	}
	panic(fmt.Sprintf("value: %T", v))
}
