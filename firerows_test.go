package streamrel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// fireRowsQueries are the CQs TestFireRowsStayValid retains every batch of:
// a sliding materialized view twice over (two members of one post set, and
// the derived stream d below is a third), a stddev view, re-merged at every
// retract, a tumbling one, a HAVING + ORDER BY + LIMIT post stage, which
// passes the view's rows on by reference through three operators, a paired
// store, whose closes move two slices, a projection on a VISIBLE of its own,
// whose view — read by the projection alone — writes its rows in place, and
// a HAVING + LIMIT one, whose view's rows pass by reference to the result.
var fireRowsQueries = []string{
	`SELECT url, count(*) AS n, sum(v) AS total FROM s <VISIBLE '10 seconds' ADVANCE '1 second'> GROUP BY url`,
	`SELECT url, count(*) AS n, sum(v) AS total FROM s <VISIBLE '10 seconds' ADVANCE '1 second'> GROUP BY url`,
	`SELECT url, count(*), stddev(v) FROM s <VISIBLE '10 seconds' ADVANCE '1 second'> GROUP BY url`,
	`SELECT url, count(*), sum(v) FROM s <VISIBLE '5 seconds' ADVANCE '5 seconds'> GROUP BY url`,
	`SELECT url, count(*) AS n, sum(v) FROM s <VISIBLE '20 seconds' ADVANCE '1 second'> GROUP BY url
		HAVING count(*) > 1 ORDER BY n DESC, url LIMIT 5`,
	`SELECT url, count(*), sum(v), max(v) FROM s <VISIBLE '7500 milliseconds' ADVANCE '1 second'> GROUP BY url`,
	`SELECT url, sum(v) * 2 AS twice FROM s <VISIBLE '15 seconds' ADVANCE '1 second'> GROUP BY url`,
	`SELECT url, count(*) AS n FROM s <VISIBLE '30 seconds' ADVANCE '1 second'> GROUP BY url HAVING count(*) > 2 LIMIT 4`,
}

func renderBatch(b Batch) string {
	var sb strings.Builder
	sb.WriteString(b.Close.UTC().Format(time.RFC3339))
	for _, r := range b.Rows {
		sb.WriteString("|" + r.String())
	}
	return sb.String()
}

// runFireRows feeds 330 seconds of a skewed stream — a hot head changed by
// every close, a cold tail that sits in the window untouched, leaves and
// comes back, and a quiet gap that empties every window — and returns, per
// CQ, every batch and its rendering at delivery, plus the Active Table the
// derived stream's channel filled. Every batch of the first CQ is also
// appended to a CQTIME SYSTEM stream, which stamps its third column.
func runFireRows(t *testing.T, cfg Config) (batches [][]Batch, delivered [][]string, archive []string) {
	t.Helper()
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ExecScript(`
		CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint);
		CREATE STREAM d AS ` + fireRowsQueries[0] + `;
		CREATE TABLE arch (url varchar, n bigint, total bigint);
		CREATE CHANNEL ch FROM d INTO arch APPEND;
		CREATE STREAM restamped (url varchar, n bigint, at timestamp CQTIME SYSTEM);
	`); err != nil {
		t.Fatal(err)
	}
	cqs := make([]*CQ, len(fireRowsQueries))
	for i, q := range fireRowsQueries {
		if cqs[i], err = e.Subscribe(q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		defer cqs[i].Close()
	}
	batches = make([][]Batch, len(cqs))
	delivered = make([][]string, len(cqs))
	drain := func() {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		for i, cq := range cqs {
			for _, b := range cq.Drain() {
				batches[i] = append(batches[i], b)
				delivered[i] = append(delivered[i], renderBatch(b))
				if i == 0 && len(b.Rows) > 0 {
					if err := e.Append("restamped", b.Rows...); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	for sec := int64(0); sec < 330; sec++ {
		ts := ivmBase + sec*1_000_000
		if sec >= 150 && sec < 175 { // longer than the widest window
			e.AdvanceTime("s", time.UnixMicro(ts).UTC())
			drain()
			continue
		}
		rows := make([]Row, rng.Intn(8))
		for i := range rows {
			u := rng.Float64()
			ts += int64(rng.Intn(100_000))
			rows[i] = Row{String(fmt.Sprintf("/u%02d", int(u*u*u*40))), Timestamp(time.UnixMicro(ts).UTC()), Int(int64(rng.Intn(100)))}
		}
		if err := e.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		drain()
	}
	e.AdvanceTime("s", time.UnixMicro(ivmBase).Add(6*time.Minute).UTC())
	drain()
	return batches, delivered, rowStrings(mustQuery(t, e, `SELECT url, n, total FROM arch ORDER BY url, n, total`))
}

// TestFireRowsStayValid: a store-backed fire hands out rows it holds on to —
// the row of a group a close did not change is delivered again at the next,
// to every member, through every by-reference post stage, into derived
// streams and channels. Nothing downstream may write into one and no later
// fire may rewrite one: every batch retained over 300 closes still reads as
// it did when it was delivered, and all of it equals what re-execution,
// which shares nothing, produces.
func TestFireRowsStayValid(t *testing.T) {
	_, want, wantArchive := runFireRows(t, Config{StateOverride: StateReexec})
	for _, parallel := range []int{0, 4} {
		batches, delivered, archive := runFireRows(t, Config{ParallelCQ: parallel})
		for qi := range fireRowsQueries {
			if qi != 3 && len(batches[qi]) < 300 {
				t.Fatalf("ParallelCQ %d query %d: %d closes, want ≥ 300", parallel, qi, len(batches[qi]))
			}
			for bi, b := range batches[qi] {
				if now := renderBatch(b); now != delivered[qi][bi] {
					t.Fatalf("ParallelCQ %d query %d: batch %d changed after delivery:\nwas %s\nnow %s", parallel, qi, bi, delivered[qi][bi], now)
				}
			}
			if a, b := strings.Join(delivered[qi], "\n"), strings.Join(want[qi], "\n"); a != b {
				t.Fatalf("ParallelCQ %d query %d: store and re-exec transcripts differ:\nstore:\n%s\nreexec:\n%s", parallel, qi, a, b)
			}
		}
		if a, b := strings.Join(archive, "\n"), strings.Join(wantArchive, "\n"); a != b || len(archive) == 0 {
			t.Fatalf("ParallelCQ %d: Active Table behind the derived stream differs from re-exec's (%d rows, %d)", parallel, len(archive), len(wantArchive))
		}
	}
}
