package streamrel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// TestContinuousEqualsSnapshot is the paper's central semantic claim
// turned into a property test: "stored data is simply streaming data that
// has been entered into persistent structures" (§2.3). For each window a
// continuous query reports, running the equivalent snapshot query over
// the same rows loaded into a table must give identical results.
//
// The harness generates random event streams, runs a tumbling-window CQ,
// and for every window close re-runs the query as plain SQL over a table
// containing exactly that window's rows.
func TestContinuousEqualsSnapshot(t *testing.T) {
	queries := []struct {
		cq       string // over the stream (with window)
		snapshot string // over the table
	}{
		{
			`SELECT url, count(*) AS n FROM s <ADVANCE '1 minute'> GROUP BY url ORDER BY url`,
			`SELECT url, count(*) AS n FROM w GROUP BY url ORDER BY url`,
		},
		{
			`SELECT count(*), sum(v), min(v), max(v), avg(v) FROM s <ADVANCE '1 minute'>`,
			`SELECT count(*), sum(v), min(v), max(v), avg(v) FROM w`,
		},
		{
			`SELECT url, sum(v) FROM s <ADVANCE '1 minute'> WHERE v % 3 = 0 GROUP BY url HAVING count(*) > 1 ORDER BY url`,
			`SELECT url, sum(v) FROM w WHERE v % 3 = 0 GROUP BY url HAVING count(*) > 1 ORDER BY url`,
		},
		{
			`SELECT DISTINCT url FROM s <ADVANCE '1 minute'> ORDER BY url LIMIT 5`,
			`SELECT DISTINCT url FROM w ORDER BY url LIMIT 5`,
		},
		{
			`SELECT url, count(distinct v) FROM s <ADVANCE '1 minute'> GROUP BY url ORDER BY url`,
			`SELECT url, count(distinct v) FROM w GROUP BY url ORDER BY url`,
		},
		{
			`SELECT upper(url), v * 2 FROM s <ADVANCE '1 minute'> WHERE v > 50 ORDER BY 2 DESC, 1 LIMIT 10`,
			`SELECT upper(url), v * 2 FROM w WHERE v > 50 ORDER BY 2 DESC, 1 LIMIT 10`,
		},
	}

	for qi, q := range queries {
		for _, mode := range []string{"incremental", "reexec"} {
			rng := rand.New(rand.NewSource(int64(qi) + 100))
			eng := openMemMode(t, mode)
			mustExec(t, eng, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
			mustExec(t, eng, `CREATE TABLE w (url varchar, at timestamp, v bigint)`)
			cq, err := eng.Subscribe(q.cq)
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}

			// Generate ~8 minutes of random events, tracking each minute's
			// rows (the windows a tumbling 1m CQ will see).
			base := MustTimestamp("2009-01-04 00:00:00")
			byMinute := map[int64][]Row{}
			ts := base.UnixMicro()
			for i := 0; i < 3000; i++ {
				ts += int64(rng.Intn(300_000)) // 0-0.3s gaps
				row := Row{
					String(fmt.Sprintf("/u%d", rng.Intn(8))),
					Timestamp(time.UnixMicro(ts)),
					Int(int64(rng.Intn(100))),
				}
				if err := eng.Append("s", row); err != nil {
					t.Fatal(err)
				}
				byMinute[ts/60_000_000] = append(byMinute[ts/60_000_000], row)
			}
			eng.AdvanceTime("s", time.UnixMicro(ts).Add(2*time.Minute).UTC())

			checked := 0
			for {
				b, ok := cq.TryNext()
				if !ok {
					break
				}
				// Load exactly this window's rows into w and run the
				// snapshot query.
				mustExec(t, eng, `TRUNCATE TABLE w`)
				minute := b.Close.UnixMicro()/60_000_000 - 1
				if rows := byMinute[minute]; len(rows) > 0 {
					if err := eng.BulkInsert("w", rows); err != nil {
						t.Fatal(err)
					}
				}
				snap := mustQuery(t, eng, q.snapshot)
				got := make([]string, len(b.Rows))
				for i, r := range b.Rows {
					got[i] = r.String()
				}
				want := make([]string, len(snap.Data))
				for i, r := range snap.Data {
					want[i] = r.String()
				}
				if strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("query %d mode=%s window %s:\ncontinuous:\n%s\nsnapshot:\n%s",
						qi, mode, b.Close, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
				checked++
			}
			if checked < 5 {
				t.Fatalf("query %d: only %d windows compared", qi, checked)
			}
			cq.Close()
			eng.Close()
		}
	}
}

// openMemMode opens an engine under one setting of Config.StateOverride,
// named by the strategy a sliceable count/sum CQ then reports:
// "incremental" (automatic: materialized stores) or "reexec" (StateReexec:
// per-fire plan re-execution only).
func openMemMode(t *testing.T, mode string) *Engine {
	t.Helper()
	return openMemModeCfg(t, mode, Config{})
}

// openMemModeCfg is openMemMode over a caller-supplied base Config.
func openMemModeCfg(t *testing.T, mode string, cfg Config) *Engine {
	t.Helper()
	switch mode {
	case "incremental":
	case "reexec":
		cfg.StateOverride = StateReexec
	default:
		t.Fatalf("unknown mode %q", mode)
	}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestSlidingWindowEqualsSnapshot does the same for sliding windows: each
// close of a VISIBLE 3m / ADVANCE 1m window must equal the snapshot query
// over the union of the last three minutes' rows.
func TestSlidingWindowEqualsSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	eng := openMem(t)
	mustExec(t, eng, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
	mustExec(t, eng, `CREATE TABLE w (url varchar, at timestamp, v bigint)`)
	cq, err := eng.Subscribe(
		`SELECT url, count(*), sum(v) FROM s <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY url ORDER BY url`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()

	base := MustTimestamp("2009-01-04 00:00:00")
	byMinute := map[int64][]Row{}
	ts := base.UnixMicro()
	for i := 0; i < 4000; i++ {
		ts += int64(rng.Intn(200_000))
		row := Row{
			String(fmt.Sprintf("/u%d", rng.Intn(6))),
			Timestamp(time.UnixMicro(ts)),
			Int(int64(rng.Intn(50))),
		}
		if err := eng.Append("s", row); err != nil {
			t.Fatal(err)
		}
		byMinute[ts/60_000_000] = append(byMinute[ts/60_000_000], row)
	}
	eng.AdvanceTime("s", time.UnixMicro(ts).Add(2*time.Minute).UTC())

	checked := 0
	for {
		b, ok := cq.TryNext()
		if !ok {
			break
		}
		mustExec(t, eng, `TRUNCATE TABLE w`)
		endMinute := b.Close.UnixMicro() / 60_000_000
		for m := endMinute - 3; m < endMinute; m++ {
			if rows := byMinute[m]; len(rows) > 0 {
				if err := eng.BulkInsert("w", rows); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap := mustQuery(t, eng, `SELECT url, count(*), sum(v) FROM w GROUP BY url ORDER BY url`)
		if len(b.Rows) != len(snap.Data) {
			t.Fatalf("window %s: %d continuous rows vs %d snapshot rows", b.Close, len(b.Rows), len(snap.Data))
		}
		for i := range b.Rows {
			if b.Rows[i].String() != snap.Data[i].String() {
				t.Fatalf("window %s row %d: %s vs %s", b.Close, i, b.Rows[i], snap.Data[i])
			}
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("only %d windows compared", checked)
	}
}
