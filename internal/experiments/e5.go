package experiments

import (
	"fmt"
	"time"

	"streamrel"
	"streamrel/internal/workload"
)

// E5 measures the stream-table combinations §3.3 and §6 call out: (a)
// enriching fact data with dimension-table data inside a CQ, and (b) the
// Example 5 historical comparison — current metrics joined against the
// Active Table's past metrics.
func E5(s Scale) (*Table, error) {
	n := s.n(150_000)
	t := &Table{
		ID:     "E5",
		Title:  "§3.3/§6 stream-table joins: dimension enrichment and historical comparison",
		Header: []string{"query", "events", "windows", "output rows", "ingest time", "throughput"},
	}

	// (a) Enrichment join: impressions ⋈ campaigns dimension, fired from a
	// window-state store (the stream aggregated by campaign below the join,
	// O(groups) rows joined per close) and, as the oracle, re-executed over
	// the window's rows. The two arms' transcripts are compared before
	// either is reported.
	enrich := func(override streamrel.StateOverride) (elapsed time.Duration, fires []streamrel.Batch, strategy string, err error) {
		eng, err := streamrel.Open(streamrel.Config{StateOverride: override})
		if err != nil {
			return 0, nil, "", err
		}
		defer eng.Close()
		if err := eng.ExecScript(`
			CREATE TABLE campaigns (id bigint, advertiser varchar, daily_budget bigint);
			CREATE STREAM imp_stream (itime timestamp CQTIME USER, campaign bigint, publisher bigint, cost bigint);
		`); err != nil {
			return 0, nil, "", err
		}
		var dim []streamrel.Row
		for i := int64(0); i < 50; i++ {
			dim = append(dim, streamrel.Row{
				streamrel.Int(i), streamrel.String(fmt.Sprintf("advertiser-%d", i%10)),
				streamrel.Int(1_000_000 + i*10_000),
			})
		}
		if err := eng.BulkInsert("campaigns", dim); err != nil {
			return 0, nil, "", err
		}
		cq, err := eng.Subscribe(`
			SELECT c.advertiser, sum(i.cost) AS spend
			FROM imp_stream <ADVANCE '1 minute'> i
			JOIN campaigns c ON i.campaign = c.id
			GROUP BY c.advertiser`)
		if err != nil {
			return 0, nil, "", err
		}
		defer cq.Close()
		gen := workload.NewImpressions(workload.ImpressionConfig{Seed: 6, EventsPerSec: 500})
		rows := gen.Take(n)
		start := time.Now()
		if err := eng.Append("imp_stream", rows...); err != nil {
			return 0, nil, "", err
		}
		eng.AdvanceTime("imp_stream", time.UnixMicro(gen.Now()+60_000_000).UTC())
		return time.Since(start), cq.Drain(), cq.Strategy, nil
	}
	var want string
	for _, arm := range []struct {
		name     string
		override streamrel.StateOverride
		strategy string
	}{
		{"enrichment (stream ⋈ dim), re-executed", streamrel.StateReexec, "reexec"},
		{"enrichment (stream ⋈ dim), from the store", streamrel.StateAuto, "incremental"},
	} {
		elapsed, fires, strategy, err := enrich(arm.override)
		if err != nil {
			return nil, err
		}
		if strategy != arm.strategy {
			return nil, fmt.Errorf("E5: %s: strategy %s, want %s", arm.name, strategy, arm.strategy)
		}
		got := transcript(fires)
		if want == "" {
			want = got
		}
		if got != want || got == "" {
			return nil, fmt.Errorf("E5: the enrichment CQ's windows differ between the store and reexec arms (or none fired)")
		}
		out := 0
		for _, b := range fires {
			out += len(b.Rows)
		}
		t.Rows = append(t.Rows, []string{
			arm.name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(fires)),
			fmt.Sprintf("%d", out), fmtDur(elapsed), fmtRate(n, elapsed),
		})
	}

	// (b) Historical comparison (Example 5): current window total joined
	// with the total archived ADVANCE ago.
	eng2, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		return nil, err
	}
	defer eng2.Close()
	if err := eng2.ExecScript(`
		CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar);
		CREATE STREAM urls_now AS
			SELECT url, count(*) AS scnt, cq_close(*) AS stime
			FROM url_stream <ADVANCE '1 minute'>
			GROUP BY url;
		CREATE TABLE urls_archive (url varchar, scnt bigint, stime timestamp);
		CREATE CHANNEL urls_ch FROM urls_now INTO urls_archive APPEND;
	`); err != nil {
		return nil, err
	}
	histo, err := eng2.Subscribe(`
		select c.scnt, h.scnt, c.stime
		from (select sum(scnt) as scnt, cq_close(*) as stime
		      from urls_now <slices 1 windows>) c,
		     urls_archive h
		where c.stime - '1 minute'::interval = h.stime AND h.url = '/page/0001'`)
	if err != nil {
		return nil, err
	}
	gen2 := workload.NewClickstream(workload.ClickConfig{Seed: 6, EventsPerSec: 400})
	rows2 := gen2.Take(n)
	start := time.Now()
	if err := eng2.Append("url_stream", rows2...); err != nil {
		return nil, err
	}
	eng2.AdvanceTime("url_stream", time.UnixMicro(gen2.Now()+60_000_000).UTC())
	elapsed := time.Since(start)
	windows, out := 0, 0
	for _, b := range histo.Drain() {
		windows++
		out += len(b.Rows)
	}
	histo.Close()
	t.Rows = append(t.Rows, []string{
		"historical (Example 5)", fmt.Sprintf("%d", n), fmt.Sprintf("%d", windows),
		fmt.Sprintf("%d", out), fmtDur(elapsed), fmtRate(n, elapsed),
	})
	t.Notes = append(t.Notes,
		"both queries run under window consistency: each window close sees a boundary snapshot of the tables",
		"the enrichment CQ's two arms' window transcripts compared byte for byte before reporting")
	return t, nil
}
