package streamrel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// transcript renders a CQ's queued batches deterministically so fire
// sequences can be compared byte-for-byte.
func transcript(cq *CQ) string {
	var b strings.Builder
	for {
		batch, ok := cq.TryNext()
		if !ok {
			return b.String()
		}
		fmt.Fprintf(&b, "close=%s\n", batch.Close.UTC().Format(time.RFC3339Nano))
		for _, r := range batch.Rows {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
	}
}

// feedPlanShare pushes a deterministic workload: minutes of traffic over a
// few URL keys, then a heartbeat that closes the trailing windows.
func feedPlanShare(t *testing.T, e *Engine, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := MustTimestamp("2009-01-04 00:00:00")
	urls := []string{"/a", "/b", "/c", "/d"}
	for i := 0; i < 400; i++ {
		at := base.Add(time.Duration(i) * 3 * time.Second)
		row := Row{String(urls[rng.Intn(len(urls))]), Timestamp(at), Int(int64(rng.Intn(50)))}
		if err := e.Append("s", row); err != nil {
			t.Fatal(err)
		}
	}
	e.AdvanceTime("s", base.Add(25*time.Minute))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanSharingTranscriptsIdentical: k identical CQs attach to ONE
// store with ONE view and ONE post set over it, and every
// subscriber's fire transcript is byte-identical — in the synchronous
// engine and under the work-stealing scheduler (run with -race). Closing
// one subscriber mid-stream must not disturb the others.
func TestPlanSharingTranscriptsIdentical(t *testing.T) {
	const k = 8
	const q = `SELECT url, count(*) AS n, sum(v) AS sv
		FROM s <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY url`

	var perMode []string // one reference transcript per mode
	for _, parallel := range []int{0, 4} {
		e, err := Open(Config{ParallelCQ: parallel})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
		cqs := make([]*CQ, k)
		for i := range cqs {
			if cqs[i], err = e.Subscribe(q); err != nil {
				t.Fatal(err)
			}
			if cqs[i].Strategy != "incremental" {
				t.Fatalf("parallel=%d cq %d: expected a materialized store, got %s", parallel, i, cqs[i].Strategy)
			}
		}
		st := e.Stats()
		if st.PlanGroups != 1 || st.PlanSubscribers != k {
			t.Fatalf("parallel=%d: stats %+v", parallel, st)
		}

		feedPlanShare(t, e, 42)

		// One subscriber leaves; the survivors keep firing undisturbed.
		cqs[k-1].Close()
		closedAt := transcript(cqs[k-1])
		base := MustTimestamp("2009-01-04 00:00:00")
		e.AdvanceTime("s", base.Add(30*time.Minute))
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}

		ref := transcript(cqs[0])
		if ref == "" {
			t.Fatalf("parallel=%d: no fires recorded", parallel)
		}
		for i := 1; i < k-1; i++ {
			if got := transcript(cqs[i]); got != ref {
				t.Fatalf("parallel=%d: subscriber %d transcript differs from subscriber 0", parallel, i)
			}
		}
		if !strings.HasPrefix(ref, closedAt) || closedAt == ref {
			t.Fatalf("parallel=%d: closed subscriber should hold a strict prefix of the survivors' transcript", parallel)
		}
		if st := e.Stats(); st.PlanSubscribers != k-1 {
			t.Fatalf("parallel=%d: stats after close %+v", parallel, st)
		}
		perMode = append(perMode, ref)
		e.Close()
	}
	if perMode[0] != perMode[1] {
		t.Fatal("serial and work-stealing transcripts differ")
	}
}

// TestPlanSharingSubsumption: CQs that differ only in a residual WHERE
// over the group key (and in projection/ORDER BY) are subsumed into the
// same store — one shared state, one post stage per distinct shape — and
// each still answers exactly as if it ran alone.
func TestPlanSharingSubsumption(t *testing.T) {
	run := func(cfg Config) (full, filtered, ordered string, st RuntimeStats) {
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
		base := `SELECT url, count(*) AS n FROM s <VISIBLE '2 minutes' ADVANCE '1 minute'> GROUP BY url`
		cqFull, err := e.Subscribe(base)
		if err != nil {
			t.Fatal(err)
		}
		cqFiltered, err := e.Subscribe(`SELECT url, count(*) AS n FROM s <VISIBLE '2 minutes' ADVANCE '1 minute'>
			WHERE url = '/a' GROUP BY url`)
		if err != nil {
			t.Fatal(err)
		}
		cqOrdered, err := e.Subscribe(base + ` ORDER BY n DESC, url`)
		if err != nil {
			t.Fatal(err)
		}
		feedPlanShare(t, e, 7)
		st = e.Stats()
		return transcript(cqFull), transcript(cqFiltered), transcript(cqOrdered), st
	}

	full, filtered, ordered, st := run(Config{})
	// The residual filter and the ORDER BY run in post stages over the
	// store's rows, so all three attach to one store.
	if st.PlanGroups != 1 || st.PlanSubscribers != 3 {
		t.Fatalf("stats with sharing: %+v", st)
	}
	soloFull, soloFiltered, soloOrdered, soloSt := run(Config{StateOverride: StatePrivate})
	if soloSt.PlanGroups != 3 || soloSt.PlanSubscribers != 3 {
		t.Fatalf("stats with a store apiece: %+v", soloSt)
	}
	if full != soloFull {
		t.Error("shared full-group transcript differs from unshared run")
	}
	if filtered != soloFiltered {
		t.Error("subsumed (residual WHERE) transcript differs from unshared run")
	}
	if ordered != soloOrdered {
		t.Error("subsumed (ORDER BY) transcript differs from unshared run")
	}
	if filtered == full {
		t.Error("residual filter had no effect")
	}
}

// TestPlanSharingHiddenSort: an aggregate CQ whose ORDER BY leads with an
// aggregate it does not select keeps a store, shared with a plain dashboard
// of the same fingerprint — its post stage is the plan's own sort over the
// store's rows — and its transcript is re-execution's, serial and under the
// pool.
func TestPlanSharingHiddenSort(t *testing.T) {
	const (
		dashboard = `SELECT url, count(*) AS n, sum(v) AS sv FROM s <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY url`
		hidden    = `SELECT url, count(*) AS n FROM s <VISIBLE '3 minutes' ADVANCE '1 minute'> GROUP BY url ORDER BY sum(v) DESC, url LIMIT 3`
	)
	run := func(cfg Config) string {
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
		if _, err := e.Subscribe(dashboard); err != nil {
			t.Fatal(err)
		}
		cq, err := e.Subscribe(hidden)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.StateOverride == StateAuto {
			key, why := cq.pipe.Plan().WindowState(StateAuto)
			if cq.Strategy != "incremental" {
				t.Fatalf("parallel=%d: hidden sort is %s (%s), want incremental", cfg.ParallelCQ, cq.Strategy, why)
			}
			if n := e.rt.StoreMembers("s", key); n != 2 {
				t.Fatalf("parallel=%d: store %s has %d members, want the dashboard and the hidden sort", cfg.ParallelCQ, key, n)
			}
		}
		feedPlanShare(t, e, 11)
		return transcript(cq)
	}
	for _, parallel := range []int{0, 4} {
		got := run(Config{ParallelCQ: parallel})
		want := run(Config{ParallelCQ: parallel, StateOverride: StateReexec})
		if want == "" {
			t.Fatalf("parallel=%d: no fires recorded", parallel)
		}
		if got != want {
			t.Fatalf("parallel=%d: store transcript differs from StateReexec:\n%s\nwant:\n%s", parallel, got, want)
		}
	}
}

// TestRowWindowStoreSharing: two ROWS CQs of one fingerprint at VISIBLEs of
// one remainder mod ADVANCE share one store, two views of it, and each
// answers as re-execution does; a time CQ of the same fingerprint whose
// ADVANCE is numerically equal — 3 µs against 3 rows — keeps a store of its
// own.
func TestRowWindowStoreSharing(t *testing.T) {
	const (
		narrow = `SELECT url, count(*) AS n, sum(v) AS sv FROM s <VISIBLE 5 ROWS ADVANCE 3 ROWS> GROUP BY url`
		wide   = `SELECT url, count(*) AS n, sum(v) AS sv FROM s <VISIBLE 11 ROWS ADVANCE 3 ROWS> GROUP BY url`
		timed  = `SELECT url, count(*) AS n, sum(v) AS sv FROM s <VISIBLE '5 microseconds' ADVANCE '3 microseconds'> GROUP BY url`
	)
	explain := func(e *Engine, q string) string {
		return strings.Join(rowStrings(mustExec(t, e, "EXPLAIN "+q).Rows), "\n")
	}
	run := func(cfg Config) []string {
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint)`)
		var cqs []*CQ
		for _, q := range []string{narrow, wide} {
			cq, err := e.Subscribe(q)
			if err != nil {
				t.Fatal(err)
			}
			cqs = append(cqs, cq)
		}
		if cfg.StateOverride == StateAuto {
			const key = `s|W:|G:url;|A:count(*);sum(v);@3R+1`
			if plan := explain(e, wide); !strings.Contains(plan, "state: store "+key+" view 11 ROWS (materialized), 2 members") {
				t.Fatalf("the two ROWS CQs do not share one store:\n%s", plan)
			}
			if plan := explain(e, timed); !strings.Contains(plan, "@3+1 view 5µs (materialized), 0 members") {
				t.Fatalf("the time CQ would join the ROWS CQs' store:\n%s", plan)
			}
			cq, err := e.Subscribe(timed)
			if err != nil {
				t.Fatal(err)
			}
			if st := e.Stats(); st.PlanGroups != 2 || e.rt.StoreMembers("s", key) != 2 {
				t.Fatalf("%d stores, %d members of %s: want 2 and 2", st.PlanGroups, e.rt.StoreMembers("s", key), key)
			}
			cq.Close() // before the feed: it would close a window every 3 µs
		}
		feedPlanShare(t, e, 13)
		return []string{transcript(cqs[0]), transcript(cqs[1])}
	}
	for _, parallel := range []int{0, 4} {
		got := run(Config{ParallelCQ: parallel})
		want := run(Config{ParallelCQ: parallel, StateOverride: StateReexec})
		for i := range want {
			if want[i] == "" || got[i] != want[i] {
				t.Fatalf("parallel=%d: CQ %d's store transcript differs from StateReexec:\n%s\nwant:\n%s", parallel, i, got[i], want[i])
			}
		}
	}
}
