// Command clustersmoke is an end-to-end smoke test for horizontal
// scale-out: it builds streamreld, boots two shard servers, a shard
// router, a replica of shard 0, and a single-node reference daemon as
// separate processes, drives the same keyed workload through the router
// and the reference, and asserts the router's scatter-gathered query
// results and merged CQ windows match the single-node run exactly (after
// canonical row ordering, which the router guarantees and the reference
// is sorted into). The replica must converge read-only with settled lag
// metrics. It then kills one shard and asserts the router degrades to
// flagged partial results instead of failing.
//
// Run it via `make cluster-smoke`.
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
	"time"

	"streamrel/client"
	"streamrel/internal/metrics"
	"streamrel/internal/types"
)

// httpGet fetches a probe/scrape URL, returning status, body and headers
// (status 0 on transport error).
func httpGet(url string) (int, string, http.Header) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, err.Error(), http.Header{}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), resp.Header
}

// scrapeValues fetches one /metrics endpoint and returns series-ID → value,
// failing the smoke on any HTTP or exposition-syntax error.
func scrapeValues(url string) map[string]float64 {
	status, body, _ := httpGet(url)
	if status != 200 {
		fatalf("GET %s: status %d (%s)", url, status, body)
	}
	parsed, err := metrics.ParseExposition(strings.NewReader(body))
	if err != nil {
		fatalf("GET %s: invalid exposition: %v", url, err)
	}
	out := make(map[string]float64, len(parsed))
	for i := range parsed {
		out[parsed[i].ID()] = parsed[i].Value
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "clustersmoke: "+format+"\n", args...)
	os.Exit(1)
}

// daemon is one launched streamreld process: its protocol address, its
// debug/metrics base URL (when started with -metrics-addr), and a stop
// func.
type daemon struct {
	addr       string
	metricsURL string // "http://host:port", empty without -metrics-addr
	stop       func()
}

// startDaemon launches a streamreld process and returns its bound
// addresses, parsed from the "streamreld listening on" and "metrics on"
// banners (the latter only awaited when -metrics-addr is among args).
func startDaemon(bin string, args ...string) (*daemon, error) {
	wantMetrics := false
	for _, a := range args {
		if a == "-metrics-addr" {
			wantMetrics = true
		}
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stop := func() {
		cmd.Process.Kill()
		cmd.Wait()
	}
	sc := bufio.NewScanner(out)
	addrCh := make(chan string, 1)
	metricsCh := make(chan string, 1)
	go func() {
		for sc.Scan() {
			line := sc.Text()
			fmt.Println(line)
			if strings.HasPrefix(line, "streamreld listening on ") {
				fields := strings.Fields(line)
				select {
				case addrCh <- fields[3]:
				default:
				}
			}
			if strings.HasPrefix(line, "metrics on http://") {
				u := strings.TrimSuffix(strings.Fields(line)[2], "/metrics")
				select {
				case metricsCh <- u:
				default:
				}
			}
		}
	}()
	d := &daemon{stop: stop}
	deadline := time.After(15 * time.Second)
	select {
	case d.addr = <-addrCh:
	case <-deadline:
		stop()
		return nil, fmt.Errorf("daemon did not announce its address")
	}
	if wantMetrics {
		select {
		case d.metricsURL = <-metricsCh:
		case <-deadline:
			stop()
			return nil, fmt.Errorf("daemon did not announce its metrics address")
		}
	}
	return d, nil
}

// canon renders rows in canonical order as one comparable string — the
// shard router already emits canonical order; the single-node reference
// is sorted into it here.
func canon(rows []client.Row) string {
	cp := make([]client.Row, len(rows))
	copy(cp, rows)
	sort.SliceStable(cp, func(i, j int) bool { return types.CompareRows(cp[i], cp[j]) < 0 })
	var b strings.Builder
	for _, r := range cp {
		for i, d := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(d.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func nextBatch(who string, sub *client.Subscription) client.Batch {
	select {
	case b, ok := <-sub.C:
		if !ok {
			fatalf("%s subscription closed", who)
		}
		return b
	case <-time.After(15 * time.Second):
		fatalf("%s: timed out waiting for a CQ window", who)
	}
	return client.Batch{}
}

var ddl = []string{
	`CREATE STREAM s (k varchar(20), v bigint, at timestamp CQTIME USER) PARTITION BY k`,
	`CREATE STREAM s_now AS SELECT k, count(*) AS n, sum(v) AS sv, cq_close(*) AS stime
		FROM s <ADVANCE '1 minute'> GROUP BY k`,
	`CREATE TABLE s_archive (k varchar(20), n bigint, sv bigint, stime timestamp)`,
	`CREATE CHANNEL s_ch FROM s_now INTO s_archive APPEND`,
}

func main() {
	tmp, err := os.MkdirTemp("", "clustersmoke")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "streamreld")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/streamreld").CombinedOutput(); err != nil {
		fatalf("build streamreld: %v\n%s", err, out)
	}

	// Two shards, a replica following shard 0, the router over both
	// shards, and an unsharded reference node. Shards and router also
	// expose the observability plane (localhost-only — it has no auth).
	s0d, err := startDaemon(bin, "-addr", "127.0.0.1:0", "-dir", filepath.Join(tmp, "s0"),
		"-metrics-addr", "127.0.0.1:0")
	if err != nil {
		fatalf("start shard 0: %v", err)
	}
	defer s0d.stop()
	shard0 := s0d.addr
	s1d, err := startDaemon(bin, "-addr", "127.0.0.1:0", "-dir", filepath.Join(tmp, "s1"),
		"-metrics-addr", "127.0.0.1:0")
	if err != nil {
		fatalf("start shard 1: %v", err)
	}
	defer s1d.stop()
	shard1, stop1 := s1d.addr, s1d.stop
	repd, err := startDaemon(bin, "-addr", "127.0.0.1:0",
		"-dir", filepath.Join(tmp, "rep"), "-replica-of", shard0)
	if err != nil {
		fatalf("start replica: %v", err)
	}
	defer repd.stop()
	repAddr := repd.addr
	routerd, err := startDaemon(bin, "-addr", "127.0.0.1:0",
		"-shards", shard0+","+shard1, "-metrics-addr", "127.0.0.1:0")
	if err != nil {
		fatalf("start router: %v", err)
	}
	defer routerd.stop()
	refd, err := startDaemon(bin, "-addr", "127.0.0.1:0", "-dir", filepath.Join(tmp, "ref"))
	if err != nil {
		fatalf("start reference node: %v", err)
	}
	defer refd.stop()

	router, err := client.Dial(routerd.addr)
	if err != nil {
		fatalf("dial router: %v", err)
	}
	defer router.Close()
	ref, err := client.Dial(refd.addr)
	if err != nil {
		fatalf("dial reference: %v", err)
	}
	defer ref.Close()

	// Identical DDL through both paths; the router broadcasts it.
	for _, stmt := range ddl {
		if _, err := router.Exec(stmt); err != nil {
			fatalf("router %s: %v", stmt, err)
		}
		if _, err := ref.Exec(stmt); err != nil {
			fatalf("ref %s: %v", stmt, err)
		}
	}

	rsub, err := router.Subscribe(`SELECT k, count(*) AS n FROM s <ADVANCE '1 minute'> GROUP BY k`)
	if err != nil {
		fatalf("router subscribe: %v", err)
	}
	fsub, err := ref.Subscribe(`SELECT k, count(*) AS n FROM s <ADVANCE '1 minute'> GROUP BY k`)
	if err != nil {
		fatalf("ref subscribe: %v", err)
	}

	// The same keyed workload into both paths: 6 keys, 120 rows over two
	// windows.
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	keys := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot"}
	ingest := func(c *client.Client, who string, lo, hi int) {
		var rows []client.Row
		for i := lo; i < hi; i++ {
			rows = append(rows, client.Row{
				types.NewString(keys[i%len(keys)]),
				types.NewInt(int64(i)),
				types.NewTimestamp(base.Add(time.Duration(i) * time.Second)),
			})
		}
		if err := c.Append("s", rows...); err != nil {
			fatalf("%s append: %v", who, err)
		}
	}
	for w := 0; w < 2; w++ {
		ingest(router, "router", w*60, w*60+60)
		ingest(ref, "ref", w*60, w*60+60)
		edge := base.Add(time.Duration(w+1) * time.Minute)
		if err := router.Advance("s", edge); err != nil {
			fatalf("router advance: %v", err)
		}
		if err := ref.Advance("s", edge); err != nil {
			fatalf("ref advance: %v", err)
		}
	}

	// CQ merge output must match the single-node run window for window.
	for w := 0; w < 2; w++ {
		rb, fb := nextBatch("router", rsub), nextBatch("ref", fsub)
		if !rb.Close.Equal(fb.Close) {
			fatalf("window %d close mismatch: router %v vs ref %v", w, rb.Close, fb.Close)
		}
		if rb.Partial {
			fatalf("window %d unexpectedly partial", w)
		}
		if rc, fc := canon(rb.Rows), canon(fb.Rows); rc != fc {
			fatalf("window %d CQ output diverged:\nrouter:\n%sref:\n%s", w, rc, fc)
		}
	}

	// Scatter-gathered snapshot queries must match the single-node run.
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
	} {
		rres, err := router.Query(q)
		if err != nil {
			fatalf("router %s: %v", q, err)
		}
		if rres.Partial {
			fatalf("router %s: unexpectedly partial", q)
		}
		fres, err := ref.Query(q)
		if err != nil {
			fatalf("ref %s: %v", q, err)
		}
		if rc, fc := canon(rres.Data), canon(fres.Data); rc != fc {
			fatalf("%s diverged:\nrouter:\n%sref:\n%s", q, rc, fc)
		}
	}

	// Both shards must actually hold data (the split worked).
	s0c, err := client.Dial(shard0)
	if err != nil {
		fatalf("dial shard 0: %v", err)
	}
	defer s0c.Close()
	res, err := s0c.Query(`SELECT count(*) FROM s_archive`)
	if err != nil {
		fatalf("shard 0 query: %v", err)
	}
	shard0Rows := res.Data[0][0].Int()
	if shard0Rows == 0 || shard0Rows >= 12 { // 6 keys × 2 windows total
		fatalf("shard 0 holds %d of 12 archive rows — keys did not split", shard0Rows)
	}

	// The per-shard replica (plain internal/repl, no router awareness)
	// must converge on shard 0's slice.
	rep, err := client.Dial(repAddr)
	if err != nil {
		fatalf("dial replica: %v", err)
	}
	defer rep.Close()
	deadline := time.Now().Add(20 * time.Second)
	for {
		res, err := rep.Query(`SELECT count(*) FROM s_archive`)
		if err == nil && len(res.Data) == 1 && res.Data[0][0].Int() == shard0Rows {
			break
		}
		if time.Now().After(deadline) {
			got := "?"
			if err == nil && len(res.Data) == 1 {
				got = fmt.Sprint(res.Data[0][0].Int())
			}
			fatalf("replica did not converge on shard 0: %s/%d rows (err=%v)", got, shard0Rows, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// …serve it read-only, and export settled lag metrics.
	if _, err := rep.Exec(`INSERT INTO s_archive VALUES ('no', 0, 0, NULL)`); err == nil {
		fatalf("replica accepted a write")
	}
	stats, err := rep.Stats()
	if err != nil {
		fatalf("replica stats: %v", err)
	}
	seen := map[string]float64{}
	for _, r := range stats.Data {
		seen[r[0].Str()] = r[1].Float()
	}
	for _, m := range []string{"streamrel_repl_lag_lsn", "streamrel_repl_last_applied_lsn", "streamrel_repl_frames_applied_total"} {
		if _, ok := seen[m]; !ok {
			fatalf("replica stats missing %s", m)
		}
	}
	if seen["streamrel_repl_last_applied_lsn"] == 0 {
		fatalf("replica applied nothing")
	}

	// Observability plane: probes answer on shards and router, and the
	// router's federated /metrics is exactly the union of the shards'
	// registries with shard-labeled series (plus the router's own).
	for _, probe := range []struct{ who, url string }{
		{"shard 0 healthz", s0d.metricsURL + "/healthz"},
		{"shard 0 readyz", s0d.metricsURL + "/readyz"},
		{"router healthz", routerd.metricsURL + "/healthz"},
		{"router readyz", routerd.metricsURL + "/readyz"},
	} {
		status, _, _ := httpGet(probe.url)
		if status != 200 {
			fatalf("%s returned %d, want 200", probe.who, status)
		}
	}
	s0m := scrapeValues(s0d.metricsURL + "/metrics")
	s1m := scrapeValues(s1d.metricsURL + "/metrics")
	status, fedBody, fedHdr := httpGet(routerd.metricsURL + "/metrics")
	if status != 200 {
		fatalf("federated /metrics returned %d", status)
	}
	if fedHdr.Get("X-Streamrel-Partial") == "true" {
		fatalf("federated /metrics flagged partial with every shard up")
	}
	fed, err := metrics.ParseExposition(strings.NewReader(fedBody))
	if err != nil {
		fatalf("federated /metrics is not valid exposition: %v", err)
	}
	fedByID := map[string]float64{}
	sawRouterSeries := false
	for i := range fed {
		sh := fed[i].Labels["shard"]
		if sh == "" {
			fatalf("federated series %s has no shard label", fed[i].ID())
		}
		if sh == "router" {
			sawRouterSeries = true
		}
		fedByID[fed[i].ID()] = fed[i].Value
	}
	if !sawRouterSeries {
		fatalf(`federated /metrics has no shard="router" series`)
	}
	// The federated value of a stable per-shard counter must equal the
	// value that shard's own /metrics reports, and the shard-labeled
	// slices must add up to the whole workload.
	const rowsSeries = `streamrel_stream_rows_total{stream="s"}`
	for i, local := range []map[string]float64{s0m, s1m} {
		want, ok := local[rowsSeries]
		if !ok {
			fatalf("shard %d /metrics missing %s", i, rowsSeries)
		}
		fedID := fmt.Sprintf(`streamrel_stream_rows_total{shard="%d",stream="s"}`, i)
		if got, ok := fedByID[fedID]; !ok || got != want {
			fatalf("federated %s = %v (ok=%v), shard's own scrape says %v", fedID, got, ok, want)
		}
	}
	if total := fedByID[`streamrel_stream_rows_total{shard="0",stream="s"}`] +
		fedByID[`streamrel_stream_rows_total{shard="1",stream="s"}`]; total != 120 {
		fatalf("federated shard slices of %s sum to %v, want 120", rowsSeries, total)
	}

	// Kill shard 1: scatter queries must degrade to flagged partial
	// results, not errors.
	stop1()
	deadline = time.Now().Add(20 * time.Second)
	for {
		res, err := router.Query(`SELECT count(*) FROM s_archive`)
		if err == nil && res.Partial {
			if res.Data[0][0].Int() != shard0Rows {
				fatalf("partial count = %d, want shard 0's %d", res.Data[0][0].Int(), shard0Rows)
			}
			break
		}
		if time.Now().After(deadline) {
			fatalf("router never flagged a partial result after shard loss (err=%v)", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// …and the observability plane must agree: router /readyz degrades to
	// 503 naming the dead shard, federated /metrics flags partial.
	deadline = time.Now().Add(20 * time.Second)
	for {
		readyStatus, readyBody, _ := httpGet(routerd.metricsURL + "/readyz")
		fedStatus, _, hdr := httpGet(routerd.metricsURL + "/metrics")
		if readyStatus == 503 && fedStatus == 200 && hdr.Get("X-Streamrel-Partial") == "true" {
			if !strings.Contains(readyBody, "degraded") {
				fatalf("router /readyz 503 body %q does not say degraded", readyBody)
			}
			break
		}
		if time.Now().After(deadline) {
			fatalf("router probes never degraded after shard loss (readyz=%d, partial=%q)",
				readyStatus, hdr.Get("X-Streamrel-Partial"))
		}
		time.Sleep(50 * time.Millisecond)
	}

	fmt.Printf("clustersmoke: OK — 2 shards matched single-node byte for byte, replica converged on %d rows, shard loss degraded to partial\n", shard0Rows)
}
