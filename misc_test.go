package streamrel

import (
	"strings"
	"testing"
	"time"
)

func TestExplainVariants(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, e, `CREATE TABLE d (k bigint)`)

	// A scalar aggregate over a join keeps no store; EXPLAIN says which
	// rule of the enrichment shape it fails.
	res := mustExec(t, e, `EXPLAIN SELECT count(*) FROM s <ADVANCE '1 minute'> x JOIN d ON x.v = d.k`)
	out := strings.Join(rowStrings(res.Rows), "\n")
	if !strings.Contains(out, "state: reexec (scalar aggregate over a join: an empty window still emits a row)") {
		t.Fatalf("explain join CQ:\n%s", out)
	}
	// cq_close column position is reported.
	res = mustExec(t, e, `EXPLAIN SELECT v, cq_close(*) FROM s <ADVANCE '1 minute'>`)
	out = strings.Join(rowStrings(res.Rows), "\n")
	if !strings.Contains(out, "cq_close(*) output column: 2") {
		t.Fatalf("explain close col:\n%s", out)
	}
	// Whether a store-backed CQ's result is new rows at every close, and
	// made by what: the post line lists the operators over the view's rows
	// in the order they run.
	mustExec(t, e, `CREATE STREAM h (url varchar, at timestamp CQTIME USER, v bigint)`)
	const win = ` FROM h <VISIBLE '1 minute' ADVANCE '10 seconds'>`
	for _, c := range []struct{ q, post string }{
		{`SELECT url, count(*) AS n, sum(v) AS total` + win + ` GROUP BY url`, "post: none (view rows delivered as emitted)"},
		{`SELECT count(*)` + win, "post: none (view rows delivered as emitted)"},
		{`SELECT count(*), url` + win + ` GROUP BY url`, "post: project"},
		{`SELECT url, count(*)` + win + ` GROUP BY url HAVING count(*) > 1`, "post: filter"},
		{`SELECT url, count(*)` + win + ` WHERE url = '/a' GROUP BY url ORDER BY 2 LIMIT 3`, "post: filter, sort, limit"},
		{`SELECT url, count(*), cq_close(*)` + win + ` GROUP BY url`, "post: project"},
		{`SELECT DISTINCT url, count(*)` + win + ` GROUP BY url`, "post: project, distinct"},
		{`SELECT url, count(*) + 1` + win + ` GROUP BY url ORDER BY url`, "post: project, sort"},
		{`SELECT url, count(*)` + win + ` GROUP BY url ORDER BY sum(v) DESC, url`, "post: project, sort, project"},
		{`SELECT url, count(*)` + win + ` GROUP BY url LIMIT 2`, "post: limit"},
		{`SELECT d.k, sum(x.v)` + win + ` x JOIN d ON x.v = d.k GROUP BY d.k`, "post: seqscan, hashjoin, hashagg, project"},
	} {
		res = mustExec(t, e, `EXPLAIN `+c.q)
		out = strings.Join(rowStrings(res.Rows), "\n")
		if !strings.Contains(out, "  "+c.post+"\n") {
			t.Errorf("EXPLAIN %s: want %q in\n%s", c.q, c.post, out)
		}
	}
	// A re-executing CQ has no post stage to speak of.
	res = mustExec(t, e, `EXPLAIN SELECT url, count(*) FROM (SELECT url FROM h <VISIBLE 45 ROWS ADVANCE 20 ROWS>) x GROUP BY url`)
	if out = strings.Join(rowStrings(res.Rows), "\n"); strings.Contains(out, "post:") {
		t.Errorf("EXPLAIN of a re-executing CQ prints a post line:\n%s", out)
	}
	// A SLICES window over a base stream: EXPLAIN and Subscribe refuse it
	// alike, in the planner.
	const slices = `SELECT count(*) FROM s <SLICES 3 WINDOWS>`
	_, explainErr := e.Exec(`EXPLAIN ` + slices)
	_, subErr := e.Subscribe(slices)
	if explainErr == nil || subErr == nil || explainErr.Error() != subErr.Error() ||
		!strings.Contains(subErr.Error(), "applies to derived streams") {
		t.Errorf("SLICES over a base stream: EXPLAIN %v, Subscribe %v", explainErr, subErr)
	}
	// EXPLAIN of non-SELECT errors.
	if _, err := e.Exec(`EXPLAIN INSERT INTO d VALUES (1)`); err == nil {
		t.Fatal("EXPLAIN INSERT should error")
	}
}

func TestCheckpointNoopInMemory(t *testing.T) {
	e := openMem(t)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIdempotentAndStopsWork(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("double close")
	}
	// Durable writes after close fail (WAL is closed).
	if _, err := e.Exec(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("write after close should fail")
	}
}

func TestChannelAtomicityAtBoundary(t *testing.T) {
	// A REPLACE channel's delete+insert is one transaction: a concurrent
	// reader never observes the empty intermediate state. Since window
	// closes are synchronous here, we verify via MVCC: a snapshot taken
	// during the previous window still sees old rows, a snapshot after the
	// close sees exactly the new ones.
	e := openMem(t)
	err := e.ExecScript(`
		CREATE STREAM s (v bigint, at timestamp CQTIME USER);
		CREATE STREAM latest AS SELECT sum(v) AS total, cq_close(*) FROM s <ADVANCE '1 minute'>;
		CREATE TABLE latest_t (total bigint, stime timestamp);
		CREATE CHANNEL ch FROM latest INTO latest_t REPLACE;
	`)
	if err != nil {
		t.Fatal(err)
	}
	base := MustTimestamp("2009-01-04 00:00:00")
	e.Append("s", Row{Int(5), Timestamp(base.Add(time.Second))})
	e.AdvanceTime("s", base.Add(time.Minute))
	expectData(t, mustQuery(t, e, `SELECT count(*), sum(total) FROM latest_t`), "1|5")
	e.Append("s", Row{Int(9), Timestamp(base.Add(61 * time.Second))})
	e.AdvanceTime("s", base.Add(2*time.Minute))
	// Exactly one row at all times after a close — never zero, never two.
	expectData(t, mustQuery(t, e, `SELECT count(*), sum(total) FROM latest_t`), "1|9")
}

func TestShowEmptyKinds(t *testing.T) {
	e := openMem(t)
	for _, what := range []string{"TABLES", "STREAMS", "VIEWS", "CHANNELS"} {
		res := mustExec(t, e, "SHOW "+what)
		if len(res.Rows.Data) != 0 {
			t.Fatalf("SHOW %s on empty catalog: %v", what, res.Rows.Data)
		}
	}
}

func TestInsertIntoDerivedRejected(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, e, `CREATE STREAM d AS SELECT count(*), cq_close(*) FROM s <ADVANCE '1 minute'>`)
	if _, err := e.Exec(`INSERT INTO d VALUES (1, timestamp '2009-01-04')`); err == nil {
		t.Fatal("insert into derived stream should fail")
	}
}

func TestStreamingViewOverDerived(t *testing.T) {
	e := openMem(t)
	err := e.ExecScript(`
		CREATE STREAM s (v bigint, at timestamp CQTIME USER);
		CREATE STREAM d AS SELECT v, at FROM s <ADVANCE '1 minute'> WHERE v > 0;
		CREATE VIEW dv AS SELECT v FROM d <SLICES 1 WINDOWS> WHERE v < 100;
	`)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := e.Subscribe(`SELECT count(*) FROM dv`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	base := MustTimestamp("2009-01-04 00:00:00")
	e.Append("s", Row{Int(50), Timestamp(base.Add(time.Second))})
	e.Append("s", Row{Int(500), Timestamp(base.Add(2 * time.Second))})
	e.AdvanceTime("s", base.Add(time.Minute))
	b, ok := cq.TryNext()
	if !ok || b.Rows[0][0].Int() != 1 {
		t.Fatalf("view over derived: %+v ok=%v", b, ok)
	}
}
