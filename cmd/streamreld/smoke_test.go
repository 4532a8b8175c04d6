package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"streamrel/client"
	"streamrel/internal/metrics/metricstest"
	"streamrel/internal/types"
)

// daemonEnv makes the test binary run streamreld's main instead of its tests,
// so TestClusterSmoke boots each daemon from the binary already built.
const daemonEnv = "STREAMRELD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one streamreld process: its protocol address, its observability
// base URL ("http://host:port", empty without -metrics-addr) and a kill.
type daemon struct {
	addr       string
	metricsURL string
	stop       func()
}

// startDaemon runs streamreld with args and reads its bound addresses off
// the "streamreld listening on" and "metrics on" banners (the latter only
// awaited when -metrics-addr is among args). The test kills it at cleanup.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), daemonEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{stop: func() { cmd.Process.Kill(); cmd.Wait() }}
	t.Cleanup(d.stop)
	addrCh, metricsCh := make(chan string, 1), make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			ch, val := addrCh, ""
			switch line := sc.Text(); {
			case strings.HasPrefix(line, "streamreld listening on "):
				val = strings.Fields(line)[3]
			case strings.HasPrefix(line, "metrics on http://"):
				ch, val = metricsCh, strings.TrimSuffix(strings.Fields(line)[2], "/metrics")
			default:
				continue
			}
			select {
			case ch <- val:
			default:
			}
		}
	}()
	deadline := time.After(15 * time.Second)
	select {
	case d.addr = <-addrCh:
	case <-deadline:
		t.Fatalf("streamreld %v did not announce its address", args)
	}
	for _, a := range args {
		if a != "-metrics-addr" {
			continue
		}
		select {
		case d.metricsURL = <-metricsCh:
		case <-deadline:
			t.Fatalf("streamreld %v did not announce its metrics address", args)
		}
	}
	return d
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// httpGet fetches a probe or scrape URL: status (0 on a transport error),
// body and headers.
func httpGet(url string) (int, string, http.Header) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err.Error(), http.Header{}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header
}

// scrape parses one /metrics body into its samples by series ID, failing on
// any exposition-syntax error.
func scrape(t *testing.T, url string, status int, body string) map[string]metricstest.ParsedSample {
	t.Helper()
	if status != 200 {
		t.Fatalf("GET %s: status %d (%s)", url, status, body)
	}
	parsed, err := metricstest.ParseExposition(strings.NewReader(body))
	if err != nil {
		t.Fatalf("GET %s: invalid exposition: %v", url, err)
	}
	out := make(map[string]metricstest.ParsedSample, len(parsed))
	for _, p := range parsed {
		out[p.ID()] = p
	}
	return out
}

// canon renders rows in canonical order as one comparable string: the shard
// router emits canonical order, and the single-node reference is sorted into
// it here.
func canon(rows []client.Row) string {
	cp := append([]client.Row(nil), rows...)
	sort.SliceStable(cp, func(i, j int) bool { return types.CompareRows(cp[i], cp[j]) < 0 })
	var b strings.Builder
	for _, r := range cp {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func nextBatch(t *testing.T, who string, sub *client.Subscription) client.Batch {
	t.Helper()
	select {
	case b, ok := <-sub.C:
		if !ok {
			t.Fatalf("%s subscription closed", who)
		}
		return b
	case <-time.After(15 * time.Second):
		t.Fatalf("%s: timed out waiting for a CQ window", who)
	}
	return client.Batch{}
}

// eventually polls check every 50 ms for up to 20 s; check reports done and,
// if not, what it saw.
func eventually(t *testing.T, check func() (bool, string)) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		done, saw := check()
		if done {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal(saw)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterSmoke boots two shard daemons, a replica of shard 0, a router
// over both shards and a single-node reference as separate processes, drives
// the same keyed workload through the router and the reference, and checks
// that the router's merged CQ windows and scatter-gathered queries match the
// single node's exactly; that the replica converges read-only with lag
// metrics; that the probes answer and the router's federated /metrics agrees
// with each shard's own; and that losing a shard degrades the router to
// flagged partial results rather than errors.
func TestClusterSmoke(t *testing.T) {
	dir := t.TempDir()
	// Shards and router also expose the observability plane, on localhost:
	// it has no authentication.
	s0 := startDaemon(t, "-addr", "127.0.0.1:0", "-dir", filepath.Join(dir, "s0"), "-metrics-addr", "127.0.0.1:0")
	s1 := startDaemon(t, "-addr", "127.0.0.1:0", "-dir", filepath.Join(dir, "s1"), "-metrics-addr", "127.0.0.1:0")
	rep := startDaemon(t, "-addr", "127.0.0.1:0", "-dir", filepath.Join(dir, "rep"), "-replica-of", s0.addr)
	routerd := startDaemon(t, "-addr", "127.0.0.1:0", "-shards", s0.addr+","+s1.addr, "-metrics-addr", "127.0.0.1:0")
	refd := startDaemon(t, "-addr", "127.0.0.1:0", "-dir", filepath.Join(dir, "ref"))
	router, ref := dial(t, routerd.addr), dial(t, refd.addr)

	// Identical DDL through both paths; the router broadcasts it.
	for _, stmt := range []string{
		`CREATE STREAM s (k varchar(20), v bigint, at timestamp CQTIME USER) PARTITION BY k`,
		`CREATE STREAM s_now AS SELECT k, count(*) AS n, sum(v) AS sv, cq_close(*) AS stime
			FROM s <ADVANCE '1 minute'> GROUP BY k`,
		`CREATE TABLE s_archive (k varchar(20), n bigint, sv bigint, stime timestamp)`,
		`CREATE CHANNEL s_ch FROM s_now INTO s_archive APPEND`,
	} {
		for who, c := range map[string]*client.Client{"router": router, "ref": ref} {
			if _, err := c.Exec(stmt); err != nil {
				t.Fatalf("%s %s: %v", who, stmt, err)
			}
		}
	}
	const cq = `SELECT k, count(*) AS n FROM s <ADVANCE '1 minute'> GROUP BY k`
	rsub, err := router.Subscribe(cq)
	if err != nil {
		t.Fatalf("router subscribe: %v", err)
	}
	fsub, err := ref.Subscribe(cq)
	if err != nil {
		t.Fatalf("ref subscribe: %v", err)
	}

	// The same keyed workload into both paths: 6 keys, 120 rows over two
	// windows.
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	for w := 0; w < 2; w++ {
		var rows []client.Row
		for i := w * 60; i < w*60+60; i++ {
			rows = append(rows, client.Row{types.NewString(keys[i%len(keys)]), types.NewInt(int64(i)),
				types.NewTimestamp(base.Add(time.Duration(i) * time.Second))})
		}
		for who, c := range map[string]*client.Client{"router": router, "ref": ref} {
			if err := c.Append("s", rows...); err != nil {
				t.Fatalf("%s append: %v", who, err)
			}
			if err := c.Advance("s", base.Add(time.Duration(w+1)*time.Minute)); err != nil {
				t.Fatalf("%s advance: %v", who, err)
			}
		}
	}

	// The merged CQ output matches the single node's, window for window.
	for w := 0; w < 2; w++ {
		rb, fb := nextBatch(t, "router", rsub), nextBatch(t, "ref", fsub)
		if !rb.Close.Equal(fb.Close) {
			t.Fatalf("window %d close mismatch: router %v vs ref %v", w, rb.Close, fb.Close)
		}
		if rb.Partial {
			t.Fatalf("window %d unexpectedly partial", w)
		}
		if rc, fc := canon(rb.Rows), canon(fb.Rows); rc != fc {
			t.Fatalf("window %d CQ output diverged:\nrouter:\n%sref:\n%s", w, rc, fc)
		}
	}

	// Scatter-gathered snapshot queries match the single node's.
	for _, q := range []string{
		`SELECT count(*), sum(n), sum(sv), min(stime), max(stime) FROM s_archive`,
		`SELECT k, sum(n) FROM s_archive GROUP BY k`,
		// avg is scattered as SUM+COUNT and recombined by the router: the
		// merged value must be the global average the single node computes,
		// not an average of per-shard averages.
		`SELECT avg(sv) FROM s_archive`,
		`SELECT k, avg(sv) AS m, count(*) FROM s_archive GROUP BY k`,
		// The scattered text is printed from the rewritten tree: temporal
		// literals and a quoted name must reach the shards as they parsed.
		`SELECT k, avg(sv), count(*) AS "N" FROM s_archive WHERE stime > TIMESTAMP '2000-01-01' + INTERVAL '1 day' GROUP BY k`,
		// A HAVING off the partition key and an expression over aggregates
		// run in the router's final block, over the folded partials.
		`SELECT stime, sum(n) FROM s_archive GROUP BY stime HAVING sum(n) > 1`,
		`SELECT sum(sv) / count(*) + 1 FROM s_archive`,
	} {
		rres, err := router.Query(q)
		if err != nil {
			t.Fatalf("router %s: %v", q, err)
		}
		if rres.Partial {
			t.Fatalf("router %s: unexpectedly partial", q)
		}
		fres, err := ref.Query(q)
		if err != nil {
			t.Fatalf("ref %s: %v", q, err)
		}
		if rc, fc := canon(rres.Data), canon(fres.Data); rc != fc {
			t.Fatalf("%s diverged:\nrouter:\n%sref:\n%s", q, rc, fc)
		}
	}

	// Both shards hold data: the keys split.
	res, err := dial(t, s0.addr).Query(`SELECT count(*) FROM s_archive`)
	if err != nil {
		t.Fatalf("shard 0 query: %v", err)
	}
	shard0Rows := res.Data[0][0].Int()
	if shard0Rows == 0 || shard0Rows >= 12 { // 6 keys × 2 windows in all
		t.Fatalf("shard 0 holds %d of 12 archive rows — keys did not split", shard0Rows)
	}

	// The replica of shard 0 (plain replication, no router awareness)
	// converges on shard 0's slice…
	repc := dial(t, rep.addr)
	eventually(t, func() (bool, string) {
		res, err := repc.Query(`SELECT count(*) FROM s_archive`)
		if err == nil && len(res.Data) == 1 && res.Data[0][0].Int() == shard0Rows {
			return true, ""
		}
		got := "?"
		if err == nil && len(res.Data) == 1 {
			got = fmt.Sprint(res.Data[0][0].Int())
		}
		return false, fmt.Sprintf("replica did not converge on shard 0: %s/%d rows (err=%v)", got, shard0Rows, err)
	})
	// …serves it read-only, and exports settled lag metrics.
	if _, err := repc.Exec(`INSERT INTO s_archive VALUES ('no', 0, 0, NULL)`); err == nil {
		t.Fatal("replica accepted a write")
	}
	stats, err := repc.Stats()
	if err != nil {
		t.Fatalf("replica stats: %v", err)
	}
	seen := map[string]float64{}
	for _, r := range stats.Data {
		seen[r[0].Str()] = r[1].Float()
	}
	for _, m := range []string{"streamrel_repl_lag_lsn", "streamrel_repl_last_applied_lsn", "streamrel_repl_frames_applied_total"} {
		if _, ok := seen[m]; !ok {
			t.Fatalf("replica stats missing %s", m)
		}
	}
	if seen["streamrel_repl_last_applied_lsn"] == 0 {
		t.Fatal("replica applied nothing")
	}

	// Observability plane: probes answer on shards and router, and the
	// router's federated /metrics is the union of the shards' registries
	// with shard-labeled series (plus the router's own).
	for _, url := range []string{s0.metricsURL + "/healthz", s0.metricsURL + "/readyz",
		routerd.metricsURL + "/healthz", routerd.metricsURL + "/readyz"} {
		if status, _, _ := httpGet(url); status != 200 {
			t.Fatalf("%s returned %d, want 200", url, status)
		}
	}
	fedURL := routerd.metricsURL + "/metrics"
	status, body, hdr := httpGet(fedURL)
	if hdr.Get("X-Streamrel-Partial") == "true" {
		t.Fatal("federated /metrics flagged partial with every shard up")
	}
	fed := scrape(t, fedURL, status, body)
	sawRouter := false
	for id, p := range fed {
		if p.Labels["shard"] == "" {
			t.Fatalf("federated series %s has no shard label", id)
		}
		sawRouter = sawRouter || p.Labels["shard"] == "router"
	}
	if !sawRouter {
		t.Fatal(`federated /metrics has no shard="router" series`)
	}
	// A stable per-shard counter's federated value equals that shard's own
	// scrape, and the shard-labeled slices add up to the whole workload.
	const rowsSeries = `streamrel_stream_rows_total{stream="s"}`
	total := 0.0
	for i, d := range []*daemon{s0, s1} {
		url := d.metricsURL + "/metrics"
		status, body, _ := httpGet(url)
		own, ok := scrape(t, url, status, body)[rowsSeries]
		if !ok {
			t.Fatalf("shard %d /metrics missing %s", i, rowsSeries)
		}
		fedID := fmt.Sprintf(`streamrel_stream_rows_total{shard="%d",stream="s"}`, i)
		if got, ok := fed[fedID]; !ok || got.Value != own.Value {
			t.Fatalf("federated %s = %v (ok=%v), shard's own scrape says %v", fedID, got.Value, ok, own.Value)
		}
		total += fed[fedID].Value
	}
	if total != 120 {
		t.Fatalf("federated shard slices of %s sum to %v, want 120", rowsSeries, total)
	}

	// Kill shard 1: scatter queries degrade to flagged partial results, not
	// errors…
	s1.stop()
	eventually(t, func() (bool, string) {
		res, err := router.Query(`SELECT count(*) FROM s_archive`)
		if err == nil && res.Partial {
			if res.Data[0][0].Int() != shard0Rows {
				t.Fatalf("partial count = %d, want shard 0's %d", res.Data[0][0].Int(), shard0Rows)
			}
			return true, ""
		}
		return false, fmt.Sprintf("router never flagged a partial result after shard loss (err=%v)", err)
	})
	// …and the observability plane agrees: the router's /readyz degrades to
	// 503 and its federated /metrics flags partial.
	eventually(t, func() (bool, string) {
		readyStatus, readyBody, _ := httpGet(routerd.metricsURL + "/readyz")
		fedStatus, _, hdr := httpGet(fedURL)
		if readyStatus == 503 && fedStatus == 200 && hdr.Get("X-Streamrel-Partial") == "true" {
			if !strings.Contains(readyBody, "degraded") {
				t.Fatalf("router /readyz 503 body %q does not say degraded", readyBody)
			}
			return true, ""
		}
		return false, fmt.Sprintf("router probes never degraded after shard loss (readyz=%d, partial=%q)",
			readyStatus, hdr.Get("X-Streamrel-Partial"))
	})
}
