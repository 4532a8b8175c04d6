package streamrel

import (
	"fmt"
	"testing"
	"time"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// TestLentFramesComeBack: each reader of a close hands its frame back when it
// takes the next batch, so a steady close allocates nothing for the rows it
// delivers — a sliding CQ read with Next and eight plan-shared members of
// another VISIBLE, each read with Next — and the views make no frame after
// their first closes. A transient post stage beside them (a projection over a
// third view, whose tree copies what it reads) holds its frame until its next
// close: a close allocates no more with the readers than the post stage's own
// output does alone. At ParallelCQ 0 and 4. Under types.Poison the batch the
// sliding CQ took before its last Next reads expr.Sentinel: its frame came
// back, filled.
func TestLentFramesComeBack(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		readers := lentCloseAllocs(t, parallel, true, false)
		both := lentCloseAllocs(t, parallel, true, true)
		post := lentCloseAllocs(t, parallel, false, true)
		t.Logf("ParallelCQ %d: a close allocates %.1f times for the readers, %.1f with the post stage, %.1f for the post stage alone", parallel, readers, both, post)
		if racing {
			continue // the detector's own allocations
		}
		if readers != 0 || both > post {
			t.Errorf("ParallelCQ %d: a close allocates %.1f times for nine readers that lend their frames back (want 0), %.1f beside a post stage that allocates %.1f alone",
				parallel, readers, both, post)
		}
	}
}

// lentCloseAllocs runs one close a second over 40 urls into the CQs asked
// for, each read with Next, and returns what a steady close allocates, the
// append and every Next included: Next waits for a close the pool delivers,
// where Flush would allocate. It checks that no frame was made in the
// measured closes and, under types.Poison, that a batch kept past its
// reader's next take reads the sentinel.
func lentCloseAllocs(t *testing.T, parallel int, readers, post bool) float64 {
	t.Helper()
	const urls, warm, runs = 40, 40, 50
	e, err := Open(Config{ParallelCQ: parallel, TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
	var cqs []*CQ
	subscribe := func(q string) {
		cq, err := e.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		if cq.Strategy != "incremental" {
			t.Fatalf("%s: %s", q, cq.Strategy)
		}
		cqs = append(cqs, cq)
	}
	if readers {
		subscribe(`SELECT url, count(*) AS n, sum(bytes) AS total FROM hits <VISIBLE '10 seconds' ADVANCE '1 second'> GROUP BY url`)
		for range 8 {
			subscribe(`SELECT url, count(*) AS n, sum(bytes) AS total FROM hits <VISIBLE '20 seconds' ADVANCE '1 second'> GROUP BY url`)
		}
	}
	if post {
		subscribe(`SELECT url, count(*) * 2 AS n2 FROM hits <VISIBLE '30 seconds' ADVANCE '1 second'> GROUP BY url`)
	}
	batches := make([][]Row, warm+runs+3)
	for k := range batches {
		for i := range urls {
			at := time.UnixMicro(ivmBase + int64(k)*1_000_000 + int64(i)*1000).UTC()
			batches[k] = append(batches[k], Row{String(fmt.Sprintf("/u%02d", (i*7+k)%urls)), Timestamp(at), Int(int64(k + i))})
		}
	}
	k := 0
	var last Batch // the sliding CQ's, or the first CQ's
	step := func() {
		if err := e.Append("hits", batches[k]...); err != nil {
			t.Fatal(err)
		}
		if k++; k == 1 {
			return // the clock starts
		}
		for i, cq := range cqs {
			b, ok := cq.Next() // under the pool, waits for the close
			if !ok {
				t.Fatalf("second %d: CQ %d is closed", k, i)
			}
			if i == 0 {
				last = b
			}
		}
	}
	for k < warm {
		step()
	}
	made := framesMade(e)
	allocs := testing.AllocsPerRun(runs, step)
	if n := framesMade(e) - made; n != 0 {
		t.Errorf("ParallelCQ %d: the views made %.0f frames over %d steady closes, want 0", parallel, n, runs+1)
	}
	if types.Poison && readers {
		kept := last
		step()
		if v := kept.Rows[0][1]; !v.Equal(expr.Sentinel) {
			t.Errorf("ParallelCQ %d: a batch kept past its reader's next take reads %v, not the sentinel its returned frame holds", parallel, v)
		}
	}
	return allocs
}

// framesMade sums streamrel_ivm_frames_made_total over the engine's streams.
func framesMade(e *Engine) (n float64) {
	for _, s := range e.Metrics().Gather() {
		if s.Name == "streamrel_ivm_frames_made_total" {
			n += s.Value
		}
	}
	return n
}
