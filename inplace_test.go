package streamrel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestInPlaceViewModeChange: a view read by an enrichment post stage alone
// writes its rows in place. An identity CQ on the same VISIBLE, attached at
// close 100 and closed after close 200, keeps every batch it is handed: the
// view carves every row afresh for it, and again when it leaves. Every batch
// it kept still reads as delivered, and both CQs' transcripts equal
// re-execution's — the identity CQ's from its first window wholly after the
// attach — with the producer draining and under the scheduler pool. Quiet
// gaps longer than the window empty it, so groups leave and come back.
func TestInPlaceViewModeChange(t *testing.T) {
	const window = `<VISIBLE '10 seconds' ADVANCE '1 second'>`
	after := time.UnixMicro(ivmBase).Add(110 * time.Second)
	run := func(cfg Config) (enrich, ident []string) {
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
		mustExec(t, e, `CREATE TABLE urls (url varchar, category varchar)`)
		for i := 0; i < 40; i++ {
			mustExec(t, e, fmt.Sprintf(`INSERT INTO urls VALUES ('/u%02d', 'cat-%d')`, i, i%5))
		}
		join, err := e.Subscribe(`SELECT u.category, count(*) AS n, sum(h.bytes) AS total FROM hits h ` + window + `, urls u
			WHERE h.url = u.url GROUP BY u.category`)
		if err != nil {
			t.Fatal(err)
		}
		defer join.Close()
		var cq *CQ
		var kept []Batch
		var delivered []string
		drain := func() {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, b := range join.Drain() {
				enrich = append(enrich, renderBatch(b))
			}
			if cq == nil {
				return
			}
			for _, b := range cq.Drain() {
				kept = append(kept, b)
				delivered = append(delivered, renderBatch(b))
				if !b.Close.Before(after) {
					ident = append(ident, renderBatch(b))
				}
			}
		}
		rng := rand.New(rand.NewSource(39))
		for sec := int64(0); sec < 300; sec++ {
			switch sec {
			case 100:
				if cq, err = e.Subscribe(`SELECT url, count(*) AS n, sum(bytes) AS total FROM hits ` + window + ` GROUP BY url`); err != nil {
					t.Fatal(err)
				}
			case 201:
				cq.Close()
				cq = nil
			}
			ts := ivmBase + sec*1_000_000
			if sec%50 >= 20 && sec%50 < 33 {
				e.AdvanceTime("hits", time.UnixMicro(ts).UTC())
				drain()
				continue
			}
			rows := make([]Row, rng.Intn(8)+1)
			for i := range rows {
				u := rng.Float64()
				ts += int64(rng.Intn(100_000))
				rows[i] = Row{String(fmt.Sprintf("/u%02d", int(u*u*u*40))), Timestamp(time.UnixMicro(ts).UTC()), Int(int64(rng.Intn(100)))}
			}
			if err := e.Append("hits", rows...); err != nil {
				t.Fatal(err)
			}
			drain()
		}
		if len(kept) < 100 {
			t.Fatalf("the identity CQ saw %d closes, want ≥ 100", len(kept))
		}
		for i, b := range kept {
			if now := renderBatch(b); now != delivered[i] {
				t.Fatalf("the identity CQ's batch %d changed after delivery:\nwas %s\nnow %s", i, delivered[i], now)
			}
		}
		return enrich, ident
	}
	wantEnrich, wantIdent := run(Config{StateOverride: StateReexec})
	for _, parallel := range []int{0, 4} {
		enrich, ident := run(Config{ParallelCQ: parallel})
		if a, b := strings.Join(enrich, "\n"), strings.Join(wantEnrich, "\n"); a != b || len(enrich) < 290 {
			t.Fatalf("ParallelCQ %d: the enrichment CQ's %d closes differ from re-execution's %d:\nstore:\n%s\nreexec:\n%s", parallel, len(enrich), len(wantEnrich), a, b)
		}
		if a, b := strings.Join(ident, "\n"), strings.Join(wantIdent, "\n"); a != b {
			t.Fatalf("ParallelCQ %d: the identity CQ's closes differ from re-execution's:\nstore:\n%s\nreexec:\n%s", parallel, a, b)
		}
	}
}
