package experiments

import (
	"fmt"
	"strings"
	"time"

	"streamrel"
	"streamrel/internal/workload"
)

// E3 measures the paper's shared ("Jellybean") processing (§2.2, refs
// [4],[12]): k continuous queries with the same shape over one stream.
// The shared arm is the engine's own choice (StateAuto) — one
// slice-partial store, its window kept materialized and moved by deltas;
// the unshared arm is StateReexec, where each CQ buffers and re-aggregates
// every row. Expected shape: unshared cost grows linearly in k, shared cost
// stays flat in k (per fire the store moves once and delivers k times). The
// two arms' per-CQ window transcripts are compared before any ratio is
// reported.
func E3(s Scale) (*Table, error) {
	n := s.n(150_000)
	ks := []int{1, 2, 4, 8, 16}
	t := &Table{
		ID:     "E3",
		Title:  "§2.2 shared processing: k identical CQs, shared vs unshared slice aggregation",
		Header: []string{"k CQs", "reexec ingest", "store ingest", "speedup", "stores"},
	}
	run := func(k int, override streamrel.StateOverride) (time.Duration, int, []string, error) {
		eng, err := streamrel.Open(streamrel.Config{StateOverride: override})
		if err != nil {
			return 0, 0, nil, err
		}
		defer eng.Close()
		if _, err := eng.Exec(`CREATE STREAM url_stream (url varchar, atime timestamp CQTIME USER, client_ip varchar)`); err != nil {
			return 0, 0, nil, err
		}
		var cqs []*streamrel.CQ
		for i := 0; i < k; i++ {
			cq, err := eng.Subscribe(`SELECT url, count(*), sum(length(client_ip))
				FROM url_stream <VISIBLE '5 minutes' ADVANCE '1 minute'> GROUP BY url`)
			if err != nil {
				return 0, 0, nil, err
			}
			cqs = append(cqs, cq)
		}
		gen := workload.NewClickstream(workload.ClickConfig{Seed: 2, EventsPerSec: 400})
		rows := gen.Take(n)
		start := time.Now()
		if err := eng.Append("url_stream", rows...); err != nil {
			return 0, 0, nil, err
		}
		eng.AdvanceTime("url_stream", time.UnixMicro(gen.Now()+60_000_000).UTC())
		elapsed := time.Since(start)
		stats := eng.Stats()
		transcripts := make([]string, len(cqs))
		for i, cq := range cqs {
			transcripts[i] = transcript(cq.Drain())
			cq.Close()
		}
		return elapsed, stats.PlanGroups, transcripts, nil
	}
	for _, k := range ks {
		unshared, _, want, err := run(k, streamrel.StateReexec)
		if err != nil {
			return nil, err
		}
		shared, aggs, got, err := run(k, streamrel.StateAuto)
		if err != nil {
			return nil, err
		}
		for i := range want {
			if got[i] != want[i] || want[i] == "" {
				return nil, fmt.Errorf("E3: k=%d: CQ %d's windows differ between the store and reexec arms (or none fired)", k, i)
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), fmtDur(unshared), fmtDur(shared),
			fmtX(float64(unshared) / float64(shared)),
			fmt.Sprintf("%d", aggs),
		})
	}
	t.Notes = append(t.Notes,
		"identical fingerprints attach to one slice-partial store; speedup approaches k for large k",
		"both arms' per-CQ window transcripts compared byte for byte before reporting")
	return t, nil
}

// transcript renders a CQ's window fires, close then rows, for the check
// that two configurations emitted the same windows.
func transcript(batches []streamrel.Batch) string {
	var sb strings.Builder
	for _, b := range batches {
		sb.WriteString(b.Close.UTC().Format(time.RFC3339Nano))
		for _, r := range b.Rows {
			sb.WriteByte('\n')
			sb.WriteString(r.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
