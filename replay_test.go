package streamrel

import (
	"fmt"
	"testing"
	"time"
)

// TestReplayArchiveThroughNewCQ: the paper notes that when analysis finds
// a new metric of interest, it is monitored "from then on" — but with a
// raw archive, history can also be replayed through the new continuous
// query: INSERT INTO stream SELECT … FROM archive ORDER BY ts.
func TestReplayArchiveThroughNewCQ(t *testing.T) {
	e := openMem(t)
	err := e.ExecScript(`
		CREATE TABLE raw (url varchar, atime timestamp, client_ip varchar);
		CREATE STREAM replayed (url varchar, atime timestamp CQTIME USER, client_ip varchar);
	`)
	if err != nil {
		t.Fatal(err)
	}
	// A pre-existing archive of events.
	base := MustTimestamp("2009-01-04 00:00:00")
	var rows []Row
	for i := 0; i < 300; i++ {
		rows = append(rows, Row{
			String(fmt.Sprintf("/p%d", i%3)),
			Timestamp(base.Add(time.Duration(i) * time.Second)),
			String("ip"),
		})
	}
	if err := e.BulkInsert("raw", rows); err != nil {
		t.Fatal(err)
	}

	// The "new metric" defined after the fact.
	cq, err := e.Subscribe(`SELECT url, count(*) FROM replayed <ADVANCE '1 minute'> GROUP BY url ORDER BY url`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()

	// Replay history in timestamp order through the stream.
	res, err := e.Exec(`INSERT INTO replayed SELECT url, atime, client_ip FROM raw ORDER BY atime`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 300 {
		t.Fatalf("replayed %d rows", res.RowsAffected)
	}
	e.AdvanceTime("replayed", base.Add(6*time.Minute))

	windows := 0
	var total int64
	for {
		b, ok := cq.TryNext()
		if !ok {
			break
		}
		windows++
		for _, r := range b.Rows {
			total += r[1].Int()
		}
	}
	// Five populated windows plus one empty window at the final heartbeat.
	if windows != 6 || total != 300 {
		t.Fatalf("replay produced %d windows, %d total events", windows, total)
	}
}

// TestDropStreamWithLiveSubscriber: dropping a stream detaches its CQs
// without panics; closing the orphaned CQ afterwards is safe.
func TestDropStreamWithLiveSubscriber(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	cq, err := e.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `DROP STREAM s`)
	// Pushes now fail cleanly.
	if err := e.Append("s", Row{Int(1), Timestamp(MustTimestamp("2009-01-04 00:00:01"))}); err == nil {
		t.Fatal("append to dropped stream should fail")
	}
	cq.Close() // must not panic
	// The name is free for reuse with a different schema.
	mustExec(t, e, `CREATE STREAM s (x varchar, at timestamp CQTIME USER)`)
	if err := e.Append("s", Row{String("a"), Timestamp(MustTimestamp("2009-01-04 00:00:01"))}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryUnderLoad: a realistic crash — tens of thousands of events
// flowing through channels plus direct table DML — recovers to a state
// where the Active Table exactly matches a recomputation from the raw
// archive.
func TestRecoveryUnderLoad(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	err = e.ExecScript(`
		CREATE STREAM s (k bigint, at timestamp CQTIME USER);
		CREATE TABLE raw (k bigint, at timestamp);
		CREATE CHANNEL raw_ch FROM s INTO raw;
		CREATE STREAM counts AS
			SELECT k, count(*) AS n, cq_close(*) AS stime
			FROM s <ADVANCE '1 minute'> GROUP BY k;
		CREATE TABLE counts_t (k bigint, n bigint, stime timestamp);
		CREATE CHANNEL counts_ch FROM counts INTO counts_t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	base := MustTimestamp("2009-01-04 00:00:00").UnixMicro()
	var rows []Row
	for i := int64(0); i < 12_000; i++ {
		rows = append(rows, Row{Int(i % 7), Timestamp(usToTime(base + i*25_000))})
	}
	if err := e.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	lastTS := base + 12_000*25_000
	e.AdvanceTime("s", usToTime(lastTS+60_000_000))
	// Some unrelated table churn for the WAL.
	mustExec(t, e, `CREATE TABLE misc (a bigint)`)
	for i := 0; i < 100; i++ {
		mustExec(t, e, `INSERT INTO misc VALUES (1)`)
	}
	mustExec(t, e, `DELETE FROM misc WHERE a = 1`)
	e.Close()

	e2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// The Active Table must exactly match recomputing per-minute counts
	// from the raw archive (for fully closed windows).
	fromActive := mustQuery(t, e2, `SELECT k, sum(n) FROM counts_t GROUP BY k ORDER BY k`)
	// Scalar subqueries are unsupported; compute the cutoff client-side.
	cut := mustQuery(t, e2, `SELECT max(stime) FROM counts_t`).Data[0][0]
	fromRaw2, err := e2.QueryArgs(`
		SELECT k, count(*) FROM raw WHERE at < $1 GROUP BY k ORDER BY k`,
		Timestamp(cut.Time()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromActive.Data) != len(fromRaw2.Data) {
		t.Fatalf("group counts differ: %d vs %d", len(fromActive.Data), len(fromRaw2.Data))
	}
	for i := range fromActive.Data {
		if fromActive.Data[i].String() != fromRaw2.Data[i].String() {
			t.Fatalf("row %d: active %s vs raw %s",
				i, fromActive.Data[i], fromRaw2.Data[i])
		}
	}
	expectData(t, mustQuery(t, e2, `SELECT count(*) FROM misc`), "0")
}

// usToTime converts microseconds since the epoch to a UTC time.
func usToTime(us int64) time.Time { return time.UnixMicro(us).UTC() }
