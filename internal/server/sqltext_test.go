package server

import (
	"strings"
	"testing"

	"streamrel"
	"streamrel/internal/repl"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// TestRequestSQLOutlivesItsFrame: a query's SQL borrows its frame's bytes, so
// the plan cache keeps a clone, and every other request's SQL is its own — the
// DDL log and the catalog, a CQ's plan keep it. A DDL, a SUBSCRIBE and a query are
// decoded from frames that are overwritten once served; the snapshot's DDL
// log still reads the DDL, the subscribe answer still names its columns, the
// cached query answers as it did, and EXPLAIN of the CQ prints what an engine
// given its own strings prints.
func TestRequestSQLOutlivesItsFrame(t *testing.T) {
	const (
		ddl   = `CREATE STREAM clicks (url varchar, at timestamp CQTIME USER, n bigint)`
		cq    = `SELECT url, count(*) AS hits FROM clicks <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`
		query = `SELECT 'seen' AS tag`
	)
	open := func() *streamrel.Engine {
		eng, err := streamrel.Open(streamrel.Config{Replicate: true, TraceSampleEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	eng, ref := open(), open()
	b := engine{eng}
	var strs types.RowStrings
	var req Request
	// serve decodes a frame of its own bytes, has do serve it, and then
	// overwrites the frame, as the reader's next one would; it returns the
	// answer, and the answer encoded before the overwrite.
	serve := func(op, sqlText string, do func(*Response)) (*Response, []byte) {
		t.Helper()
		frame, _ := (&Request{ID: 1, Op: op, SQL: sqlText}).AppendJSON(nil)
		if err := req.decode(frame, &strs); err != nil {
			t.Fatal(err)
		}
		resp := new(Response)
		do(resp)
		if resp.Error != "" {
			t.Fatalf("%s: %s", sqlText, resp.Error)
		}
		out, _ := resp.AppendJSON(nil)
		for i := range frame {
			frame[i] = 'x'
		}
		return resp, out
	}
	do := func(resp *Response) { b.Do(&req, resp) }
	serve("exec", ddl, do)
	subscribed, answer := serve("subscribe", cq, func(resp *Response) {
		r, stop := b.Subscribe(&req, func(*Response) bool { return true })
		if stop != nil { // nil for a failed subscribe
			t.Cleanup(stop)
		}
		*resp = *r
	})
	_, answered := serve("query", query, do)
	if _, err := ref.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Subscribe(cq); err != nil {
		t.Fatal(err)
	}

	var log []string
	if err := eng.Repl().Snapshot(func(ev repl.Event) error {
		for _, rec := range ev.Recs {
			if rec.Kind == wal.RecDDL {
				log = append(log, rec.SQL)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(log) != 1 || log[0] != ddl {
		t.Errorf("the DDL log reads %q, want %q", log, ddl)
	}
	if _, got := serve("query", query, do); string(got) != string(answered) {
		t.Errorf("the cached query answers\n%s\nwas\n%s", got, answered)
	}
	// From a frame of its own each time, the text finds its plan: 14
	// allocations with the frame and the answer, where planning it again —
	// the cache's key overwritten with its frame — made it 38.
	if n := testing.AllocsPerRun(10, func() { serve("query", query, do) }); n > 20 && !racing {
		t.Errorf("a query of a cached text allocates %v times, want ≤ 20: it was planned again", n)
	}
	if got, _ := subscribed.AppendJSON(nil); string(got) != string(answer) {
		t.Errorf("the subscribe answer's columns read\n%s\nwere\n%s", got, answer)
	}
	res, err := ref.Exec("EXPLAIN " + cq)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := (&Response{OK: true, schema: res.Rows.Columns, Rows: WireRows(res.Rows.Data)}).AppendJSON(nil)
	if _, got := serve("exec", "EXPLAIN "+cq, do); string(got) != string(want) || !strings.Contains(string(got), "store") {
		t.Errorf("EXPLAIN of the CQ reads\n%s\nwant\n%s", got, want)
	}
}
