// Dashboard: an ad-network monitoring scenario showing the breadth of a
// stream-relational system (paper §6): several continuous queries with the
// same shape share one slice aggregation ("Jellybean processing"), a CQ
// enriches the fact stream with a dimension table under window
// consistency, and a REPLACE channel keeps a "latest minute" Active Table
// that a dashboard would poll with plain SQL.
//
//	go run ./examples/dashboard
package main

import (
	"fmt"
	"log"
	"time"

	"streamrel"
	"streamrel/internal/workload"
)

func main() {
	eng, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	err = eng.ExecScript(`
		CREATE TABLE campaigns (id bigint, advertiser varchar, daily_budget bigint);
		CREATE STREAM imp_stream (
			itime timestamp CQTIME USER, campaign bigint, publisher bigint, cost bigint);

		-- REPLACE channel: the Active Table always holds exactly the
		-- latest minute's totals.
		CREATE STREAM rev_now AS
			SELECT campaign, sum(cost) AS revenue, count(*) AS impressions, cq_close(*)
			FROM imp_stream <ADVANCE '1 minute'>
			GROUP BY campaign;
		CREATE TABLE rev_latest (campaign bigint, revenue bigint, impressions bigint, stime timestamp);
		CREATE CHANNEL rev_ch FROM rev_now INTO rev_latest REPLACE;
	`)
	if err != nil {
		log.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		if _, err := eng.Exec(fmt.Sprintf(
			`INSERT INTO campaigns VALUES (%d, 'advertiser-%d', %d)`, i, i%8, 500_000+i*1000)); err != nil {
			log.Fatal(err)
		}
	}

	// Three dashboard widgets = three CQs. The first two have identical
	// filter/grouping/aggregates and ADVANCE, so the engine computes their
	// slices once and shares them.
	spend5m, err := eng.Subscribe(`
		SELECT campaign, sum(cost) FROM imp_stream <VISIBLE '5 minutes' ADVANCE '1 minute'>
		GROUP BY campaign`)
	if err != nil {
		log.Fatal(err)
	}
	defer spend5m.Close()
	spend15m, err := eng.Subscribe(`
		SELECT campaign, sum(cost) FROM imp_stream <VISIBLE '15 minutes' ADVANCE '1 minute'>
		GROUP BY campaign`)
	if err != nil {
		log.Fatal(err)
	}
	defer spend15m.Close()
	byAdvertiser, err := eng.Subscribe(`
		SELECT c.advertiser, sum(i.cost) AS spend
		FROM imp_stream <ADVANCE '1 minute'> i
		JOIN campaigns c ON i.campaign = c.id
		GROUP BY c.advertiser
		ORDER BY spend DESC
		LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	defer byAdvertiser.Close()

	fmt.Printf("window state: spend5m=%s spend15m=%s (one store, same slices!)  join CQ=%s\n",
		spend5m.Strategy, spend15m.Strategy, byAdvertiser.Strategy)

	// Stream 20 minutes of impressions.
	gen := workload.NewImpressions(workload.ImpressionConfig{
		Seed: 3, Campaigns: 40, EventsPerSec: 300,
		Start: streamrel.MustTimestamp("2009-01-04 12:00:00"),
	})
	if err := eng.Append("imp_stream", gen.Take(360_000)...); err != nil {
		log.Fatal(err)
	}
	eng.AdvanceTime("imp_stream", time.UnixMicro(gen.Now()).UTC().Add(time.Minute))

	stats := eng.Stats()
	fmt.Printf("runtime: %d pipelines, %d window-state stores, %d windows fired\n\n",
		stats.Pipelines, stats.PlanGroups, stats.WindowsFired)

	// Dashboard poll: the REPLACE Active Table holds the latest minute.
	rows, err := eng.Query(`
		SELECT campaign, revenue, impressions FROM rev_latest
		ORDER BY revenue DESC LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== latest minute (REPLACE active table) ==")
	fmt.Println("campaign | revenue | impressions")
	for _, r := range rows.Data {
		fmt.Println(r)
	}

	// The advertiser leaderboard from the enrichment join's last window. A
	// batch TryNext hands out stays valid until the handle takes its next,
	// and the TryNext that finds none takes nothing, so last stays valid.
	var last streamrel.Batch
	for {
		b, ok := byAdvertiser.TryNext()
		if !ok {
			break
		}
		last = b
	}
	fmt.Println("\n== top advertisers, final window (stream ⋈ dimension) ==")
	for _, r := range last.Rows {
		fmt.Printf("%s: $%.2f\n", r[0], float64(r[1].Int())/1e6)
	}
}
