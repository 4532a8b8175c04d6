package experiments

import (
	"fmt"
	"time"

	"streamrel"
	"streamrel/internal/workload"
)

// F1 reproduces Figure 1: a window clause turns a stream into a sequence
// of relations, each evaluated by the ordinary relational plan. The table
// verifies the sequence semantics (windows fired, rows per window) and
// measures per-window-kind throughput. A row window runs twice, on its
// store and re-executing, and the two arms' windows must be the same.
func F1(s Scale) (*Table, error) {
	n := s.n(200_000)
	const rows = `SELECT url, count(*) FROM url_stream <VISIBLE 10000 ROWS ADVANCE 1000 ROWS> GROUP BY url`
	kinds := []struct {
		name     string
		query    string
		override streamrel.StateOverride
	}{
		{"tumbling 1m", `SELECT url, count(*) FROM url_stream <ADVANCE '1 minute'> GROUP BY url`, streamrel.StateAuto},
		{"sliding 5m/1m", `SELECT url, count(*) FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url`, streamrel.StateAuto},
		{"sliding 30m/1m", `SELECT url, count(*) FROM url_stream <VISIBLE '30 minutes' ADVANCE '1 minute'> GROUP BY url`, streamrel.StateAuto},
		{"rows 10k/1k", rows, streamrel.StateAuto},
		{"rows 10k/1k (reexec)", rows, streamrel.StateReexec},
		{"filter only", `SELECT url, atime FROM url_stream <ADVANCE '1 minute'> WHERE url LIKE '/page/000%'`, streamrel.StateAuto},
	}
	t := &Table{
		ID:     "F1",
		Title:  "Windows produce a sequence of tables (Fig. 1): window kinds, correctness and throughput",
		Header: []string{"window", "state", "events", "windows fired", "result rows", "ingest time", "throughput"},
	}
	first := map[string]string{} // query → the first arm's transcript
	for _, k := range kinds {
		eng, err := streamrel.Open(streamrel.Config{StateOverride: k.override})
		if err != nil {
			return nil, err
		}
		if _, err := eng.Exec(`CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`); err != nil {
			return nil, err
		}
		cq, err := eng.Subscribe(k.query)
		if err != nil {
			return nil, err
		}
		gen := workload.NewClickstream(workload.ClickConfig{Seed: 1, EventsPerSec: 150})
		rows := gen.Take(n)
		start := time.Now()
		if err := eng.Append("url_stream", rows...); err != nil {
			return nil, err
		}
		if err := eng.AdvanceTime("url_stream", time.UnixMicro(gen.Now()+60_000_000).UTC()); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		batches := cq.Drain()
		resultRows := 0
		for _, b := range batches {
			resultRows += len(b.Rows)
		}
		tr := transcript(batches)
		if want, ok := first[k.query]; ok && tr != want || tr == "" {
			return nil, fmt.Errorf("F1: %s: no window fired, or its windows differ from the first arm's over the same query", k.name)
		}
		first[k.query] = tr
		cq.Close()
		eng.Close()
		t.Rows = append(t.Rows, []string{
			k.name, cq.Strategy, fmt.Sprintf("%d", n), fmt.Sprintf("%d", len(batches)),
			fmt.Sprintf("%d", resultRows), fmtDur(elapsed), fmtRate(n, elapsed),
		})
	}
	t.Notes = append(t.Notes,
		"each window close materializes one relation and runs the same iterator operators a snapshot query uses",
		"the rows 10k/1k arms' window transcripts, store and re-executing, compared byte for byte before reporting")
	return t, nil
}
