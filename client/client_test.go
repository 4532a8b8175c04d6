package client_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/metrics"
	"streamrel/internal/server"
	"streamrel/internal/types"
)

// startServer boots an in-memory engine behind a TCP server on a random
// port and returns a connected client.
func startServer(t *testing.T) *client.Client {
	return startServerCfg(t, streamrel.Config{})
}

func startServerCfg(t *testing.T, cfg streamrel.Config) *client.Client {
	t.Helper()
	_, c := startEngineServer(t, cfg)
	return c
}

// startEngineServer is startServerCfg for tests that also read the engine
// behind the server.
func startEngineServer(t *testing.T, cfg streamrel.Config) (*streamrel.Engine, *client.Client) {
	t.Helper()
	eng, err := streamrel.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return eng, c
}

func TestClientExecQuery(t *testing.T) {
	c := startServer(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`CREATE TABLE t (a bigint, b varchar)`); err != nil {
		t.Fatal(err)
	}
	n, err := c.Exec(`INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
	if err != nil || n != 2 {
		t.Fatalf("insert: n=%d err=%v", n, err)
	}
	rows, err := c.Query(`SELECT a, b FROM t ORDER BY a DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 || rows.Data[0].String() != "2|y" || rows.Data[1].String() != "1|x" {
		t.Fatalf("rows: %v", rows.Data)
	}
	if rows.Columns[0].Name != "a" {
		t.Fatalf("columns: %v", rows.Columns)
	}
	// Errors come back as errors, connection stays usable.
	if _, err := c.Query(`SELECT * FROM missing`); err == nil {
		t.Fatal("expected error")
	}
	if err := c.Ping(); err != nil {
		t.Fatal("connection should survive a failed request")
	}
}

func TestClientSubscription(t *testing.T) {
	c := startServer(t)
	if _, err := c.Exec(`CREATE STREAM s (v bigint, at timestamp CQTIME USER)`); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(`SELECT count(*), sum(v) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	base := streamrel.MustTimestamp("2009-01-04 00:00:00")
	err = c.Append("s",
		client.Row{types.NewInt(5), types.NewTimestamp(base.Add(time.Second))},
		client.Row{types.NewInt(7), types.NewTimestamp(base.Add(2 * time.Second))},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-sub.C:
		if len(b.Rows) != 1 || b.Rows[0][0].Int() != 2 || b.Rows[0][1].Int() != 12 {
			t.Fatalf("batch: %+v", b)
		}
		if !b.Close.Equal(base.Add(time.Minute)) {
			t.Fatalf("close: %v", b.Close)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no batch arrived")
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	// After close, further heartbeats produce nothing.
	c.Advance("s", base.Add(3*time.Minute))
	select {
	case b, ok := <-sub.C:
		if ok {
			t.Fatalf("batch after close: %+v", b)
		}
	case <-time.After(200 * time.Millisecond):
	}
}

func TestClientValueRoundTrip(t *testing.T) {
	c := startServer(t)
	if _, err := c.Exec(`CREATE TABLE vals (b boolean, i bigint, f double, s varchar, t timestamp, iv interval)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO vals VALUES
		(true, -42, 2.5, 'héllo', timestamp '2009-01-04 09:30:00', interval '90 minutes'),
		(NULL, NULL, NULL, NULL, NULL, NULL)`); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(`SELECT * FROM vals ORDER BY i NULLS LAST`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 2 {
		t.Fatalf("rows: %v", rows.Data)
	}
	want := "true|-42|2.5|héllo|2009-01-04 09:30:00.000000|1 hour 30 minutes"
	var got string
	for _, r := range rows.Data {
		if !r[0].IsNull() {
			got = r.String()
		} else {
			for _, d := range r {
				if !d.IsNull() {
					t.Fatalf("NULL row came back with values: %v", r)
				}
			}
		}
	}
	if got != want {
		t.Fatalf("round trip: %q want %q", got, want)
	}
}

// TestConcurrentClients shares one Client between 8 goroutines, as the
// shard router shares its per-shard connection. Requests are encoded and
// written outside the client's state lock, so each caller checks that the
// response it gets is the one to its own request.
func TestConcurrentClients(t *testing.T) {
	c := startServer(t)
	const goroutines, rounds = 8, 25
	for g := 0; g < goroutines; g++ {
		for _, ddl := range []string{
			`CREATE STREAM s%d (g bigint, i bigint, at timestamp CQTIME USER)`,
			`CREATE TABLE t%d (g bigint, i bigint, at timestamp)`,
			`CREATE CHANNEL ch%d FROM s%d INTO t%d APPEND`,
		} {
			if _, err := c.Exec(strings.ReplaceAll(ddl, "%d", strconv.Itoa(g))); err != nil {
				t.Fatal(err)
			}
		}
	}
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			stream, table := "s"+strconv.Itoa(g), "t"+strconv.Itoa(g)
			for i := 0; i < rounds; i++ {
				at := types.NewTimestampMicros(int64(i+1) * 1e6)
				if err := c.Append(stream, client.Row{types.NewInt(int64(g)), types.NewInt(int64(i)), at}); err != nil {
					done <- err
					return
				}
				// Only this goroutine's request can produce this answer.
				tag := int64(g*1000 + i)
				rows, err := c.Query(`SELECT $1 + 0, count(*), min(g), max(g) FROM `+table, types.NewInt(tag))
				if err != nil {
					done <- err
					return
				}
				if r := rows.Data[0]; r[0].Int() != tag || r[1].Int() != int64(i+1) || r[2].Int() != int64(g) || r[3].Int() != int64(g) {
					done <- fmt.Errorf("goroutine %d round %d got another request's response: %v", g, i, r)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestNonFiniteFloats: a DOUBLE that is ±Inf or NaN used to fail
// encoding/json's encoder, which the server took for a dead socket — the
// connection dropped with no error frame, taking every subscription on it
// along. Each now crosses the wire, in both directions and as a CQ batch,
// and the connection stays usable.
func TestNonFiniteFloats(t *testing.T) {
	c := startServer(t)
	alive := func(after string) {
		t.Helper()
		rows, err := c.Query(`SELECT 1`)
		if err != nil || rows.Data[0][0].Int() != 1 {
			t.Fatalf("connection unusable after %s: %v, %v", after, rows, err)
		}
	}
	for _, q := range []struct {
		sql  string
		want func(float64) bool
	}{
		{`SELECT 1e308 * 10.0`, func(f float64) bool { return math.IsInf(f, 1) }},
		{`SELECT -1e308 * 10.0`, func(f float64) bool { return math.IsInf(f, -1) }},
		{`SELECT 1e308 * 10.0 - 1e308 * 10.0`, math.IsNaN},
	} {
		rows, err := c.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.sql, err)
		}
		if d := rows.Data[0][0]; d.Type() != types.TypeFloat || !q.want(d.Float()) {
			t.Fatalf("%s: got %v", q.sql, d)
		}
		alive(q.sql)
	}

	for _, ddl := range []string{
		`CREATE STREAM s (v double, at timestamp CQTIME USER)`,
		`CREATE TABLE raw (v double, at timestamp)`,
		`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := c.Subscribe(`SELECT sum(v) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	base := time.Date(2009, 1, 4, 9, 0, 0, 0, time.UTC)
	if err := c.Append("s", client.Row{types.NewFloat(math.Inf(1)), types.NewTimestamp(base)}); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(`SELECT v FROM raw`)
	if err != nil || len(rows.Data) != 1 || !math.IsInf(rows.Data[0][0].Float(), 1) {
		t.Fatalf("appended +Inf read back as %v, %v", rows, err)
	}
	alive("appending +Inf")

	// The first window closes over that row; in the second the sum itself
	// overflows.
	for i := 1; i <= 2; i++ {
		row := client.Row{types.NewFloat(math.MaxFloat64), types.NewTimestamp(base.Add(time.Minute + time.Duration(i)*time.Second))}
		if err := c.Append("s", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Advance("s", base.Add(5*time.Minute)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case b, ok := <-sub.C:
			if !ok || len(b.Rows) != 1 || !math.IsInf(b.Rows[0][0].Float(), 1) {
				t.Fatalf("batch %d: %v (open %v)", i, b, ok)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("batch %d with a +Inf sum never arrived", i)
		}
	}
	alive("a +Inf batch")
}

func TestServerCloseUnblocksClients(t *testing.T) {
	eng, _ := streamrel.Open(streamrel.Config{})
	defer eng.Close()
	srv := server.New(eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Calls now fail rather than hang.
	errCh := make(chan error, 1)
	go func() { errCh <- c.Ping() }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("ping succeeded after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping hung after server close")
	}
}

func TestClientQueryArgs(t *testing.T) {
	c := startServer(t)
	if _, err := c.Exec(`CREATE TABLE t (a bigint, s varchar)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES ($1, $2), ($3, $4)`,
		types.NewInt(1), types.NewString("x"), types.NewInt(2), types.NewString("y")); err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(`SELECT s FROM t WHERE a = $1`, types.NewInt(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 1 || rows.Data[0][0].Str() != "y" {
		t.Fatalf("rows: %v", rows.Data)
	}
	if _, err := c.Query(`SELECT s FROM t WHERE a = $5`, types.NewInt(2)); err == nil {
		t.Fatal("bad placeholder should error over the wire")
	}
}

// TestClientStats drives traffic through the server, then checks that
// Stats reflects it: non-zero stream row counters and server
// command-latency histogram series flattened to (metric, value) rows.
func TestClientStats(t *testing.T) {
	// Parallel mode so the scheduler pool's gauges register; the
	// subscribe below creates the pool.
	c := startServerCfg(t, streamrel.Config{ParallelCQ: 4})
	if _, err := c.Exec(`CREATE STREAM s (v bigint, at timestamp CQTIME USER)`); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	base := streamrel.MustTimestamp("2009-01-04 00:00:00")
	for i := 0; i < 10; i++ {
		if err := c.Append("s", client.Row{types.NewInt(int64(i)), types.NewTimestamp(base.Add(time.Duration(i) * time.Second))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Advance("s", base.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	<-sub.C // window fired, so fire metrics exist too

	rows, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 2 || rows.Columns[0].Name != "metric" || rows.Columns[1].Name != "value" {
		t.Fatalf("columns: %v", rows.Columns)
	}
	vals := make(map[string]float64, len(rows.Data))
	for _, r := range rows.Data {
		vals[r[0].Str()] = r[1].Float()
	}
	for metric, min := range map[string]float64{
		`streamrel_stream_rows_total{stream="s"}`:               10,
		`streamrel_server_connections`:                          1,
		`streamrel_server_command_seconds_count{op="append"}`:   10,
		`streamrel_server_command_seconds_p50{op="append"}`:     0,
		`streamrel_pipeline_windows_total{pipe="1",stream="s"}`: 1,
		`streamrel_stream_sources`:                              1,
		`streamrel_sched_workers`:                               0,
		`streamrel_plan_groups`:                                 0,
	} {
		got, ok := vals[metric]
		if !ok {
			t.Errorf("STATS missing %s (have %d rows)", metric, len(rows.Data))
		} else if got < min {
			t.Errorf("%s = %v, want >= %v", metric, got, min)
		}
	}
}

// TestClientStatsIsFlattenedGather: Stats is metrics.Flatten of the
// server's Gather carried by the "metrics" op — the same rows, in the same
// order, as flattening the registry in process — and an op the server does
// not know ("stats" is one now) is answered with an error frame on a
// connection that stays open.
func TestClientStatsIsFlattenedGather(t *testing.T) {
	eng, c := startEngineServer(t, streamrel.Config{})
	if _, err := c.Exec(`CREATE STREAM s (v bigint, at timestamp CQTIME USER)`); err != nil {
		t.Fatal(err)
	}
	if err := c.Append("s", client.Row{types.NewInt(1), types.NewTimestamp(streamrel.MustTimestamp("2009-01-04 00:00:00"))}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); err != nil { // the metrics op's own histogram has an observation from here on
		t.Fatal(err)
	}
	// Nothing runs between this Gather and the one inside the op: a
	// command's latency is observed after its response is built.
	want := metrics.Flatten(eng.Metrics().Gather())
	rows, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != len(want) {
		t.Fatalf("Stats has %d rows, the flattened Gather %d", len(rows.Data), len(want))
	}
	hist := 0
	for i, p := range want {
		if m, v := rows.Data[i][0].Str(), rows.Data[i][1].Float(); m != p.Name+p.Labels || v != p.Value {
			t.Errorf("row %d: Stats %s = %v, flattened Gather %s%s = %v", i, m, v, p.Name, p.Labels, p.Value)
		}
		if p.Kind == metrics.KindHistogram {
			hist++
		}
	}
	if hist == 0 {
		t.Fatal("no histogram rows compared")
	}

	if _, err := c.Do(&server.Request{Op: "stats"}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("stats op: err = %v, want an unknown-op error frame", err)
	}
	if _, err := c.Query(`SELECT 1`); err != nil {
		t.Fatalf("connection did not survive the unknown op: %v", err)
	}
}
