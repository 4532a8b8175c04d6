package streamrel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestInPlaceViewModeChange: a view read by an enrichment post stage alone
// writes every close into a frame the post set hands back at its next close.
// An identity CQ on the same VISIBLE, attached at close 100 and closed after
// close 200, keeps every batch it is handed (Drain): the view writes each
// close into a fresh frame while it is attached, and takes its frames back
// again once it has left. Every batch it kept still reads as delivered, and
// both CQs' transcripts equal re-execution's — the identity CQ's from its
// first window wholly after the attach — with the producer draining and under
// the scheduler pool. Quiet gaps longer than the window empty it, so groups
// leave and come back.
func TestInPlaceViewModeChange(t *testing.T) {
	const window = `<VISIBLE '10 seconds' ADVANCE '1 second'>`
	after := time.UnixMicro(ivmBase).Add(110 * time.Second)
	run := func(cfg Config) (enrich, ident []string, made [3]float64) {
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
			case 90, 190, 290: // frames made before the identity CQ, while it reads, after it left
				made[sec/100] = framesMade(e) - made[sec/100]
			case 10, 110, 210:
				made[sec/100] = framesMade(e)
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
		return enrich, ident, made
	}
	wantEnrich, wantIdent, _ := run(Config{StateOverride: StateReexec})
	for _, parallel := range []int{0, 4} {
		enrich, ident, made := run(Config{ParallelCQ: parallel})
		if made[0] != 0 || made[1] < 80 || made[2] != 0 {
			t.Errorf("ParallelCQ %d: frames made over 80 closes %v before the identity CQ, while it kept its batches and after it left: want 0, one a close, 0",
				parallel, made)
		}
		if a, b := strings.Join(enrich, "\n"), strings.Join(wantEnrich, "\n"); a != b || len(enrich) < 290 {
			t.Fatalf("ParallelCQ %d: the enrichment CQ's %d closes differ from re-execution's %d:\nstore:\n%s\nreexec:\n%s", parallel, len(enrich), len(wantEnrich), a, b)
		}
		if a, b := strings.Join(ident, "\n"), strings.Join(wantIdent, "\n"); a != b {
			t.Fatalf("ParallelCQ %d: the identity CQ's closes differ from re-execution's:\nstore:\n%s\nreexec:\n%s", parallel, a, b)
		}
	}
}

// TestTopNViewFiresInPlace: a store-backed CQ whose post stage is ORDER BY …
// LIMIT reads its view through a top-k sort, which copies the rows it keeps,
// so the CQ is handed the sort's rows and no frame, and its post set hands
// each frame back at the next close, though the CQ is read with Drain. Every
// URL is hit every second and a new one joins every 10 seconds, so no group
// dies: once the first two closes have made their frames (the second's while
// the post set holds the first), the view makes no frame, and writes every
// group's row at each close, every group having changed. Every batch the CQ
// delivered still reads as delivered at the end, and the transcript equals
// re-execution's, with the producer draining and under the scheduler pool.
func TestTopNViewFiresInPlace(t *testing.T) {
	const q = `SELECT url, count(*) AS n FROM hits <VISIBLE '10 seconds' ADVANCE '1 second'>
		GROUP BY url ORDER BY n DESC, url LIMIT 3`
	run := func(cfg Config) (transcript []string, made float64) {
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER)`)
		if plan := strings.Join(rowStrings(mustExec(t, e, "EXPLAIN "+q).Rows), "\n"); cfg.StateOverride == 0 && !strings.Contains(plan, "state: store ") {
			t.Fatalf("the top-N CQ keeps no store:\n%s", plan)
		}
		cq, err := e.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		defer cq.Close()
		var kept []Batch
		rng := rand.New(rand.NewSource(60))
		var madeAt5 float64
		for sec := int64(0); sec < 150; sec++ {
			ts := ivmBase + sec*1_000_000
			rows := []Row(nil)
			for u := int64(0); u <= sec/10; u++ {
				for range 1 + rng.Intn(3) {
					ts += int64(rng.Intn(20_000))
					rows = append(rows, Row{String(fmt.Sprintf("/u%02d", u)), Timestamp(time.UnixMicro(ts).UTC())})
				}
			}
			if err := e.Append("hits", rows...); err != nil {
				t.Fatal(err)
			}
			if sec == 149 {
				e.AdvanceTime("hits", time.UnixMicro(ivmBase+150*1_000_000).UTC())
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			for _, b := range cq.Drain() {
				kept = append(kept, b)
				transcript = append(transcript, renderBatch(b))
			}
			if sec == 5 {
				madeAt5 = framesMade(e)
			}
		}
		if len(kept) < 100 {
			t.Fatalf("the CQ saw %d closes, want ≥ 100", len(kept))
		}
		for i, b := range kept {
			if now := renderBatch(b); now != transcript[i] {
				t.Fatalf("batch %d changed after delivery:\nwas %s\nnow %s", i, transcript[i], now)
			}
		}
		return transcript, framesMade(e) - madeAt5
	}
	want, _ := run(Config{StateOverride: StateReexec})
	for _, parallel := range []int{0, 4} {
		got, made := run(Config{ParallelCQ: parallel})
		if a, b := strings.Join(got, "\n"), strings.Join(want, "\n"); a != b {
			t.Fatalf("ParallelCQ %d: the top-N CQ's closes differ from re-execution's:\nstore:\n%s\nreexec:\n%s", parallel, a, b)
		}
		if made != 0 {
			t.Errorf("ParallelCQ %d: the view made %.0f frames after its fifth close, want 0", parallel, made)
		}
	}
}
