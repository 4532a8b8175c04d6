package shard

import (
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/server"
	"streamrel/internal/server/wiretest"
	"streamrel/internal/types"
)

// testCluster is N in-process shard engines behind a router.
type testCluster struct {
	engines []*streamrel.Engine
	servers []*server.Server
	router  *Router
	addr    string
}

func startCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{}
	var addrs []string
	for i := 0; i < n; i++ {
		eng, err := streamrel.Open(streamrel.Config{})
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		tc.engines = append(tc.engines, eng)
		tc.servers = append(tc.servers, srv)
		addrs = append(addrs, addr)
	}
	r, err := NewRouter(Options{Addrs: addrs, TraceSampleEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if up := r.WaitReady(5 * time.Second); up != n {
		t.Fatalf("only %d of %d shards came up", up, n)
	}
	addr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go r.Serve()
	tc.router = r
	tc.addr = addr
	t.Cleanup(func() {
		r.Close()
		for i := range tc.servers {
			tc.servers[i].Close()
			tc.engines[i].Close()
		}
	})
	return tc
}

func ts(t *testing.T, s string) time.Time {
	t.Helper()
	return streamrel.MustTimestamp(s)
}

func nextBatch(t *testing.T, sub *client.Subscription) client.Batch {
	t.Helper()
	select {
	case b, ok := <-sub.C:
		if !ok {
			t.Fatal("subscription closed")
		}
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for CQ batch")
	}
	return client.Batch{}
}

func TestRouterEndToEnd(t *testing.T) {
	tc := startCluster(t, 2)
	c, err := client.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, ddl := range []string{
		`CREATE STREAM s (k varchar(20), v bigint, at timestamp CQTIME USER) PARTITION BY k`,
		`CREATE STREAM s_now AS SELECT count(*) AS n, sum(v) AS sv, cq_close(*) AS stime
			FROM s <ADVANCE '1 minute'>`,
		`CREATE TABLE s_archive (n bigint, sv bigint, stime timestamp)`,
		`CREATE CHANNEL s_ch FROM s_now INTO s_archive APPEND`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	// DDL must exist on every shard.
	for i, eng := range tc.engines {
		if _, err := eng.Query(`SELECT n FROM s_archive`); err != nil {
			t.Fatalf("shard %d missing s_archive: %v", i, err)
		}
	}

	aggSub, err := c.Subscribe(`SELECT count(*) AS n, sum(v) AS sv, cq_close(*) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	keySub, err := c.Subscribe(`SELECT k, count(*) AS n FROM s <ADVANCE '1 minute'> GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}

	base := ts(t, "2009-01-04 00:00:00")
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	var rows []client.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, client.Row{
			types.NewString(keys[i%len(keys)]),
			types.NewInt(int64(i)),
			types.NewTimestamp(base.Add(time.Duration(i) * time.Second)),
		})
	}
	if err := c.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	b := nextBatch(t, aggSub)
	if b.Close.UnixMicro() != base.Add(time.Minute).UnixMicro() {
		t.Fatalf("close = %v", b.Close)
	}
	if len(b.Rows) != 1 {
		t.Fatalf("agg batch rows = %v", b.Rows)
	}
	if n := b.Rows[0][0].Int(); n != 30 {
		t.Fatalf("merged count = %d, want 30", n)
	}
	if sv := b.Rows[0][1].Int(); sv != 435 { // 0+1+…+29
		t.Fatalf("merged sum = %d, want 435", sv)
	}
	if b.Partial {
		t.Fatal("batch should not be partial")
	}

	kb := nextBatch(t, keySub)
	if len(kb.Rows) != len(keys) {
		t.Fatalf("per-key batch = %v", kb.Rows)
	}
	// Canonical order: sorted by key.
	for i := 1; i < len(kb.Rows); i++ {
		if strings.Compare(kb.Rows[i-1][0].Str(), kb.Rows[i][0].Str()) >= 0 {
			t.Fatalf("per-key rows not in canonical order: %v", kb.Rows)
		}
	}
	for _, r := range kb.Rows {
		if r[1].Int() != 5 {
			t.Fatalf("per-key count = %v", r)
		}
	}

	// Both shards got a sub-batch (keys spread across shards).
	counts := make([]int, 2)
	for i, eng := range tc.engines {
		res, err := eng.Query(`SELECT sum(n) FROM s_archive`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Data) != 1 || res.Data[0][0].IsNull() {
			t.Fatalf("shard %d archived nothing: %v", i, res.Data)
		}
		counts[i] = int(res.Data[0][0].Int())
	}
	if counts[0]+counts[1] != 30 || counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("per-shard archived counts = %v, want a split of 30", counts)
	}

	// Scatter-gathered snapshot over the partitioned Active Table.
	res, err := c.Query(`SELECT count(*), sum(n) FROM s_archive`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("query should not be partial")
	}
	if got := res.Data[0][1].Int(); got != 30 {
		t.Fatalf("scatter sum(n) = %d, want 30", got)
	}

	// avg scatters as its SUM+COUNT decomposition and recombines at the
	// router — the global average, not an average of per-shard averages.
	av, err := c.Query(`SELECT avg(n) FROM s_archive`)
	if err != nil {
		t.Fatal(err)
	}
	wantAvg := float64(res.Data[0][1].Int()) / float64(res.Data[0][0].Int())
	if got := av.Data[0][0].Float(); got != wantAvg {
		t.Fatalf("scatter avg(n) = %v, want %v", got, wantAvg)
	}
	if av.Columns[0].Name != "avg" {
		t.Fatalf("avg column = %+v", av.Columns[0])
	}

	// Merge-rejected shapes produce clear errors.
	if _, err := c.Query(`SELECT stddev(n) FROM s_archive`); err == nil || !strings.Contains(err.Error(), "re-combined") {
		t.Fatalf("stddev over shards: %v", err)
	}

	// Unpartitioned relations route to shard 0 only.
	if _, err := c.Exec(`CREATE TABLE plain (x bigint)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO plain VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	pr, err := c.Query(`SELECT count(*) FROM plain`)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Data[0][0].Int() != 2 {
		t.Fatalf("plain count = %v", pr.Data)
	}

	// INSERT into a partitioned stream is rejected with guidance.
	if _, err := c.Exec(`INSERT INTO s VALUES ('x', 1, TIMESTAMP '2009-01-04 00:02:00')`); err == nil ||
		!strings.Contains(err.Error(), "append") {
		t.Fatalf("insert into partitioned stream: %v", err)
	}
}

func TestRouterPartialOnShardDown(t *testing.T) {
	tc := startCluster(t, 2)
	c, err := client.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, ddl := range []string{
		`CREATE STREAM s (k bigint, v bigint, at timestamp CQTIME USER) PARTITION BY k`,
		`CREATE STREAM s_now AS SELECT k, count(*) AS n, cq_close(*) AS stime
			FROM s <ADVANCE '1 minute'> GROUP BY k`,
		`CREATE TABLE s_archive (k bigint, n bigint, stime timestamp)`,
		`CREATE CHANNEL s_ch FROM s_now INTO s_archive APPEND`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	base := ts(t, "2009-01-04 00:00:00")
	var rows []client.Row
	for i := 0; i < 64; i++ {
		rows = append(rows, client.Row{
			types.NewInt(int64(i)), types.NewInt(1), types.NewTimestamp(base.Add(time.Second)),
		})
	}
	if err := c.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	full, err := c.Query(`SELECT count(*) FROM s_archive`)
	if err != nil || full.Partial {
		t.Fatalf("full query: %v partial=%v", err, full.Partial)
	}
	if full.Data[0][0].Int() != 64 {
		t.Fatalf("full count = %v", full.Data)
	}

	// Kill shard 1; scatter queries degrade to partial.
	tc.servers[1].Close()
	tc.engines[1].Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := c.Query(`SELECT count(*) FROM s_archive`)
		if err == nil && res.Partial {
			if res.Data[0][0].Int() >= 64 {
				t.Fatalf("partial count should be < 64: %v", res.Data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw a partial result (err=%v)", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Keyed appends keep flowing to the surviving shard, flagged partial
	// at the response level. (Timestamps must be past the advance above —
	// streams are ordered on CQTIME.)
	var later []client.Row
	for i := 0; i < 64; i++ {
		later = append(later, client.Row{
			types.NewInt(int64(i)), types.NewInt(1), types.NewTimestamp(base.Add(2 * time.Minute)),
		})
	}
	resp, err := c.Do(&server.Request{Op: "append", Stream: "s", Rows: encodeWire(later)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatal("append with a downed shard should be partial")
	}
	if resp.Affected == 0 || resp.Affected >= 64 {
		t.Fatalf("partial append affected = %d", resp.Affected)
	}
}

// TestRouterSQLErrorKeepsShard: a shard's SQL error reaches the client as it
// is, whatever its text says, and leaves the shard's connection up, so a
// routed CQ subscribed over both shards before it still emits whole windows.
func TestRouterSQLErrorKeepsShard(t *testing.T) {
	tc := startCluster(t, 2)
	c, err := client.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE STREAM s (k bigint, at timestamp CQTIME USER) PARTITION BY k`); err != nil {
		t.Fatal(err)
	}

	sub, err := c.Subscribe(`SELECT k, count(*) AS n FROM s <ADVANCE '1 minute'> GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	if _, err := c.Query(`SELECT CAST('EOF' AS BIGINT)`); err == nil || !strings.Contains(err.Error(), `invalid integer "EOF"`) {
		t.Errorf("a shard's SQL error came back as %v", err)
	}
	base := ts(t, "2009-01-04 00:00:00")
	var rows []client.Row
	for k := 0; k < 8; k++ {
		rows = append(rows, client.Row{types.NewInt(int64(k)), types.NewTimestamp(base.Add(time.Second))})
	}
	if err := c.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if b := nextBatch(t, sub); b.Partial || len(b.Rows) != len(rows) {
		t.Fatalf("window after a SQL error: partial=%v with %d of %d groups", b.Partial, len(b.Rows), len(rows))
	}
}

func encodeWire(rows []client.Row) [][]server.WireValue {
	out := make([][]server.WireValue, len(rows))
	for i, r := range rows {
		out[i] = server.EncodeRow(r)
	}
	return out
}

// TestRouterSubscribeArgs binds a CQ's $1 through the router, on the merged
// path (a partitioned stream) and on the passthrough one (an unpartitioned
// stream on shard 0): each shard must see the client's arguments.
func TestRouterSubscribeArgs(t *testing.T) {
	tc := startCluster(t, 2)
	c, err := client.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := ts(t, "2009-01-04 00:00:00")
	for _, stream := range []string{"p", "u"} {
		ddl := `CREATE STREAM ` + stream + ` (k varchar(20), v bigint, at timestamp CQTIME USER)`
		if stream == "p" {
			ddl += ` PARTITION BY k`
		}
		if _, err := c.Exec(ddl); err != nil {
			t.Fatal(err)
		}
		sub, err := c.Subscribe(`SELECT count(*) AS n FROM `+stream+` <ADVANCE '1 minute'> WHERE v > $1`, types.NewInt(10))
		if err != nil {
			t.Fatalf("%s: %v", stream, err)
		}
		var rows []client.Row
		for i := 0; i < 30; i++ {
			rows = append(rows, client.Row{
				types.NewString([]string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}[i%6]), // on both shards
				types.NewInt(int64(i)),
				types.NewTimestamp(base.Add(time.Duration(i) * time.Second)),
			})
		}
		if err := c.Append(stream, rows...); err != nil {
			t.Fatal(err)
		}
		if err := c.Advance(stream, base.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
		if b := nextBatch(t, sub); len(b.Rows) != 1 || b.Rows[0][0].Int() != 19 {
			t.Fatalf("%s: batch = %v, want count 19 (v > 10 of 0…29)", stream, b.Rows)
		}
	}
}

// TestRouterWireTranscript plays the frozen session internal/server plays
// against its own front door through the router's: same frame reader, same
// codec, same bytes (the router's name in the unknown-op error apart).
func TestRouterWireTranscript(t *testing.T) {
	tc := startCluster(t, 1)
	conn, err := net.Dial("tcp", tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wiretest.Run(t, conn, wiretest.Transcript("router"))
}

// TestRouterScattersWhatItParsed: the query a router sends its shards when it
// splits an avg is sql.Format of the rewritten tree, so whatever parsed at the
// router parses at the shards and means the same — an INTERVAL and a
// TIMESTAMP literal, a quoted column that needs its quotes, a mixed-case one
// that would otherwise fold to another column — as a scatter query and as a
// subscription, equal to what one node answers. The parent scattered
// "(now() - 5 minutes)", "2020-01-01 00:00:00.000000", "sum(my col)" and
// MixedCase unquoted.
func TestRouterScattersWhatItParsed(t *testing.T) {
	tc := startCluster(t, 2)
	c, err := client.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	single, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, ddl := range []string{
		`CREATE STREAM s (k varchar, region varchar, "MixedCase" bigint, mixedcase bigint, "my col" bigint, at timestamp CQTIME USER) PARTITION BY k`,
		`CREATE TABLE raw (k varchar, region varchar, "MixedCase" bigint, mixedcase bigint, "my col" bigint, at timestamp)`,
		`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
		if _, err := single.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	const where = ` WHERE at > TIMESTAMP '2009-01-04 00:00:10' - INTERVAL '5 seconds' AND at < TIMESTAMP '2009-01-04T00:00:50Z'`
	const items = `SELECT region, avg("my col") AS m, avg("MixedCase"), avg(mixedcase) AS lower, count(*) FROM `
	cq := items + `s <VISIBLE '1 minute' ADVANCE '1 minute'>` + where + ` GROUP BY region`
	sub, err := c.Subscribe(cq)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.Subscribe(cq)
	if err != nil {
		t.Fatal(err)
	}

	base := ts(t, "2009-01-04 00:00:00")
	var rows []client.Row
	for i := 0; i < 60; i++ {
		rows = append(rows, client.Row{
			types.NewString([]string{"alpha", "bravo", "charlie", "delta", "echo"}[i%5]),
			types.NewString([]string{"eu", "us", "ap"}[i%3]),
			types.NewInt(int64(i * i)), types.NewInt(int64(-i)), types.NewInt(int64(7 * i)),
			types.NewTimestamp(base.Add(time.Duration(i) * time.Second)),
		})
	}
	if err := c.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := single.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := single.AdvanceTime("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	render := func(rows []types.Row) string {
		sortRows(rows)
		var lines []string
		for _, r := range rows {
			lines = append(lines, r.String())
		}
		return strings.Join(lines, "\n")
	}
	want, ok := ref.Next()
	if got := nextBatch(t, sub); !ok || len(want.Rows) != 3 || render(got.Rows) != render(want.Rows) {
		t.Fatalf("subscription through the router:\n%s\nsingle node:\n%s", render(got.Rows), render(want.Rows))
	}
	q := items + `raw` + where + ` GROUP BY region`
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	one, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Data) != 3 || render(got.Data) != render(one.Data) {
		t.Fatalf("query through the router:\n%s\nsingle node:\n%s", render(got.Data), render(one.Data))
	}
	if got.Columns[1].Name != "m" || got.Columns[2].Name != "avg" {
		t.Fatalf("columns %+v", got.Columns)
	}
}

// TestRouterMergesIntervalSums: a SUM over INTERVAL partials merges as one
// node sums them — the parent's merge widened every non-integer partial to a
// float and panicked on an interval, killing the router — and an AVG over an
// interval answers the error one node gives.
func TestRouterMergesIntervalSums(t *testing.T) {
	tc := startCluster(t, 2)
	c, err := client.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	single, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, ddl := range []string{
		`CREATE STREAM s (k varchar, d interval, at timestamp CQTIME USER) PARTITION BY k`,
		`CREATE TABLE raw (k varchar, d interval, at timestamp)`,
		`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
		if _, err := single.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	base := ts(t, "2009-01-04 00:00:00")
	var rows []client.Row
	for i := 0; i < 40; i++ {
		rows = append(rows, client.Row{
			types.NewString([]string{"alpha", "bravo", "charlie", "delta", "echo"}[i%5]),
			types.NewInterval(time.Duration(i+1) * time.Second),
			types.NewTimestamp(base.Add(time.Duration(i) * time.Second)),
		})
	}
	if err := c.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := single.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	for i, eng := range tc.engines {
		if n, err := eng.Query(`SELECT count(*) FROM raw`); err != nil || n.Data[0][0].Int() == 0 {
			t.Fatalf("shard %d archived nothing: %v", i, err)
		}
	}
	const q = `SELECT sum(d), count(*) FROM raw`
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	one, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(got.Data, one.Data) || got.Data[0][0].Type() != types.TypeInterval {
		t.Fatalf("router %v, single node %v", got.Data, one.Data)
	}
	_, err = c.Query(`SELECT avg(d) FROM raw`)
	_, oneErr := single.Query(`SELECT avg(d) FROM raw`)
	if err == nil || oneErr == nil || err.Error() != oneErr.Error() {
		t.Fatalf("avg over an interval: router %v, single node %v", err, oneErr)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("router after the interval merge: %v", err)
	}
}

// TestRouterGroupsLikeOneNode: the router groups the shards' partial rows as
// one node groups rows (types.Datum.AppendKey), so a DOUBLE key that is 0.0
// on one shard and -0.0 on the other is one group, through a scatter query
// and a routed CQ alike. The parent keyed its own map by the values' text and
// answered two groups, -0|8 and 0|32, where one node answers 0|40.
func TestRouterGroupsLikeOneNode(t *testing.T) {
	tc := startCluster(t, 2)
	c, err := client.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	single, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, ddl := range []string{
		`CREATE STREAM s (k varchar, g double, at timestamp CQTIME USER) PARTITION BY k`,
		`CREATE TABLE raw (k varchar, g double, at timestamp)`,
		`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
		if _, err := single.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	const cq = `SELECT g, count(*) FROM s <ADVANCE '1 minute'> GROUP BY g`
	sub, err := c.Subscribe(cq)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.Subscribe(cq)
	if err != nil {
		t.Fatal(err)
	}

	// A key on each shard: 0.0 on shard 0, first, and -0.0 on shard 1.
	m := Map{Addrs: make([]string, 2)}
	var keys [2]string
	for i := 0; keys[0] == "" || keys[1] == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		keys[m.ShardOf(types.NewString(k))] = k
	}
	base := ts(t, "2009-01-04 00:00:00")
	var rows []client.Row
	for i := 0; i < 40; i++ {
		shard, g := 0, 0.0
		if i >= 32 {
			shard, g = 1, math.Copysign(0, -1)
		}
		rows = append(rows, client.Row{types.NewString(keys[shard]), types.NewFloat(g),
			types.NewTimestamp(base.Add(time.Duration(i) * time.Second))})
	}
	if err := c.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := single.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := single.AdvanceTime("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	want, ok := ref.Next()
	if got := nextBatch(t, sub); !ok || !sameRows(got.Rows, want.Rows) {
		t.Fatalf("subscription through the router %v, single node %v", got.Rows, want.Rows)
	}
	const q = `SELECT g, count(*) FROM raw GROUP BY g`
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	one, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(got.Data, one.Data) {
		t.Fatalf("query through the router %v, single node %v", got.Data, one.Data)
	}
}

// TestRouterGroupsByAnUnselectedKey: a GROUP BY key the select list leaves out
// splits the groups through the router as on one node, as a snapshot query
// and as a CQ. The parent folded every shard's per-u rows into one.
func TestRouterGroupsByAnUnselectedKey(t *testing.T) {
	tc := startCluster(t, 2)
	c, err := client.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	single, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, ddl := range []string{
		`CREATE STREAM s (k varchar, u bigint, at timestamp CQTIME USER) PARTITION BY k`,
		`CREATE TABLE raw (k varchar, u bigint, at timestamp)`,
		`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
		if _, err := single.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	const cq = `SELECT count(*) FROM s <ADVANCE '1 minute'> GROUP BY u`
	sub, err := c.Subscribe(cq)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := single.Subscribe(cq)
	if err != nil {
		t.Fatal(err)
	}
	base := ts(t, "2009-01-04 00:00:00")
	var rows []client.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, client.Row{
			types.NewString([]string{"alpha", "bravo", "charlie", "delta", "echo"}[i%5]), // on both shards
			types.NewInt(int64(i % 4 % 3)), types.NewTimestamp(base.Add(time.Duration(i) * time.Second))})
	}
	if err := c.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := single.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := single.AdvanceTime("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	want, ok := ref.Next()
	sortRows(want.Rows)
	if got := nextBatch(t, sub); !ok || len(want.Rows) != 3 || !sameRows(got.Rows, want.Rows) {
		t.Fatalf("subscription through the router %v, single node %v", got.Rows, want.Rows)
	}
	const q = `SELECT count(*) FROM raw GROUP BY u`
	got, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	one, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sortRows(one.Data)
	if len(one.Data) != 3 || !sameRows(got.Data, one.Data) {
		t.Fatalf("query through the router %v, single node %v", got.Data, one.Data)
	}
}

// TestRouterFinishesAboveTheMerge: a HAVING off the partition key and an
// expression over aggregates run in the router's final block, with the
// request's $n bound there as on the shards, as a snapshot query and as a
// CQ, each as one node answers. The parent refused the HAVING and the
// expression.
func TestRouterFinishesAboveTheMerge(t *testing.T) {
	tc := startCluster(t, 2)
	c, err := client.Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	single, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, ddl := range []string{
		`CREATE STREAM s (k varchar, u bigint, v bigint, at timestamp CQTIME USER) PARTITION BY k`,
		`CREATE TABLE raw (k varchar, u bigint, v bigint, at timestamp)`,
		`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
		if _, err := single.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	// u = 0, 1, 2 hold 15, 8 and 7 rows, each group on both shards.
	queries := []struct {
		q   string
		arg int64
	}{
		{`SELECT u, count(*) FROM %s GROUP BY u HAVING count(*) > $1`, 7},
		{`SELECT u, sum(v) * $1 FROM %s GROUP BY u`, 2},
	}
	subs := make([]*client.Subscription, len(queries))
	refs := make([]*streamrel.CQ, len(queries))
	for i, q := range queries {
		cq := fmt.Sprintf(q.q, `s <ADVANCE '1 minute'>`)
		if subs[i], err = c.Subscribe(cq, types.NewInt(q.arg)); err != nil {
			t.Fatalf("%s: %v", cq, err)
		}
		if refs[i], err = single.SubscribeArgs(cq, types.NewInt(q.arg)); err != nil {
			t.Fatal(err)
		}
	}
	base := ts(t, "2009-01-04 00:00:00")
	var rows []client.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, client.Row{
			types.NewString([]string{"alpha", "bravo", "charlie", "delta", "echo"}[i%5]),
			types.NewInt(int64(i % 4 % 3)), types.NewInt(int64(i)), types.NewTimestamp(base.Add(time.Duration(i) * time.Second))})
	}
	if err := c.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := single.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := single.AdvanceTime("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	snapshot := func(q string, args ...types.Datum) {
		t.Helper()
		got, err := c.Query(q, args...)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		one, err := single.QueryArgs(q, args...)
		if err != nil {
			t.Fatal(err)
		}
		sortRows(one.Data)
		if len(one.Data) < 2 || !sameRows(got.Data, one.Data) {
			t.Fatalf("%s: query through the router %v, single node %v", q, got.Data, one.Data)
		}
	}
	for i, q := range queries {
		want, ok := refs[i].Next()
		sortRows(want.Rows)
		if got := nextBatch(t, subs[i]); !ok || len(want.Rows) < 2 || !sameRows(got.Rows, want.Rows) {
			t.Fatalf("%s: subscription through the router %v, single node %v", q.q, got.Rows, want.Rows)
		}
		snapshot(fmt.Sprintf(q.q, `raw`), types.NewInt(q.arg))
	}
	// A self-join on the partition key runs on each shard. Its two keys are
	// two columns of the split, and so are sum(a.v) and sum(b.v), though
	// each pair reads the same without its qualifiers.
	snapshot(`SELECT a.u * 10 + b.u, b.u * 10 + a.u, sum(a.v), sum(b.v) FROM raw a JOIN raw b ON a.k = b.k GROUP BY a.u * 10 + b.u, b.u * 10 + a.u`)
}
