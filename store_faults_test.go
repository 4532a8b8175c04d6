package streamrel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"streamrel/internal/ivm"
	"streamrel/internal/sql"
	"streamrel/internal/stream"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// Fault tests for CQs on feeds: three views of one store — one fingerprint
// at VISIBLE 10/30/60 s over ADVANCE 10 s — and beside them one CQ of each
// window kind that re-executes (a subquery over a time, a row-count and a
// SLICES window), on a feed of its own, and an aggregate over a row-count
// and over a SLICES window, each on a store of its own. Each runs with the
// producer draining the mailboxes (ParallelCQ 0) and with the scheduler pool
// (ParallelCQ 4).

const faultShape = `SELECT url, count(*) AS n, sum(v) AS sv FROM s <VISIBLE '%d seconds' ADVANCE '10 seconds'> GROUP BY url`

// faultDDL declares the stream and a derived stream for the SLICES windows
// (its own CQ keeps a second store: min never fails to evaluate).
const faultDDL = `
	CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint);
	CREATE STREAM d AS SELECT url, min(v) AS m FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url;
`

// kindShapes take an aggregate over their stream's value column col in
// place of %s; store says whether the CQ keeps a store.
var kindShapes = []struct {
	name, sql, col string
	store          bool
}{
	{"nearmiss", `SELECT url, %s AS a FROM (SELECT url, v FROM s <VISIBLE '25 seconds' ADVANCE '10 seconds'>) x GROUP BY url`, "v", false},
	{"nearmiss-rows", `SELECT url, %s AS a FROM (SELECT url, v FROM s <VISIBLE 20 ROWS ADVANCE 5 ROWS>) x GROUP BY url`, "v", false},
	{"nearmiss-slices", `SELECT url, %s AS a FROM (SELECT url, m FROM d <SLICES 3 WINDOWS>) x GROUP BY url`, "m", false},
	{"rows", `SELECT url, %s AS a FROM s <VISIBLE 20 ROWS ADVANCE 5 ROWS> GROUP BY url`, "v", true},
	{"slices", `SELECT url, %s AS a FROM d <SLICES 3 WINDOWS> GROUP BY url`, "m", true},
}

// kindShape instantiates shape i with agg, an aggregate with %s for the
// value column.
func kindShape(i int, agg string) string {
	return fmt.Sprintf(kindShapes[i].sql, fmt.Sprintf(agg, kindShapes[i].col))
}

// liveFeeds counts the feeds on the engine's delivery lists: each has a
// queue-depth gauge until it is stopped.
func liveFeeds(e *Engine) int {
	n := 0
	for _, s := range e.Metrics().Gather() {
		if s.Name == "streamrel_pipeline_queue_depth" {
			n++
		}
	}
	return n
}

// failingSink subscribes sqlText straight on the runtime with a sink that
// counts its calls and returns err on the failAt-th.
type failingSink struct {
	calls  int
	failAt int
	err    error
}

func (l *failingSink) subscribe(t *testing.T, e *Engine, sqlText string) {
	t.Helper()
	subscribeSink(t, e, sqlText, func(trace.Ctx, int64, []types.Row, *ivm.Frame) error {
		if l.calls++; l.calls == l.failAt {
			return l.err
		}
		return nil
	})
}

// subscribeSink subscribes sqlText straight on the runtime with sink.
func subscribeSink(t *testing.T, e *Engine, sqlText string, sink stream.Sink) {
	t.Helper()
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.planner.BuildSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = e.rt.Subscribe(p, sink); err != nil {
		t.Fatal(err)
	}
}

// faultFeed appends a seeded burst-and-gap workload in steps and returns
// every error the producer calls reported, the final Flush included. A
// zeroAt ≥ 0 makes the first row appended at or after that step carry
// v = 0.
func faultFeed(t *testing.T, e *Engine, seed int64, zeroAt int) []error {
	t.Helper()
	var errs []error
	note := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ts := ivmBase
	for step := 0; step < 60; step++ {
		if rng.Intn(5) == 0 {
			ts += int64(rng.Intn(40)+1) * 1_000_000
			note(e.AdvanceTime("s", time.UnixMicro(ts).UTC()))
			continue
		}
		rows := make([]Row, rng.Intn(20)+1)
		for i := range rows {
			ts += int64(rng.Intn(900_000))
			rows[i] = Row{String(fmt.Sprintf("/u%d", rng.Intn(4))),
				Timestamp(time.UnixMicro(ts).UTC()), Int(int64(rng.Intn(50) + 1))}
		}
		if zeroAt >= 0 && step >= zeroAt {
			rows[0][2], zeroAt = Int(0), -1
		}
		note(e.Append("s", rows...))
	}
	note(e.AdvanceTime("s", time.UnixMicro(ts).Add(2*time.Minute).UTC()))
	note(e.Flush())
	// A failure surfaces once: nothing is left for a later call to report.
	if err := e.Flush(); err != nil {
		t.Errorf("second Flush reported again: %v", err)
	}
	return errs
}

func countErr(errs []error, text string) int {
	n := 0
	for _, err := range errs {
		n += strings.Count(err.Error(), text)
	}
	return n
}

// TestStoreMemberSinkFailureIsolated: beside three views of one store and
// one CQ of each kind shape, one more CQ's sink fails mid-run. Only
// that CQ is detached, its error surfaces once, its sink is never called
// again, and every peer's transcript is byte-identical to a run in which it
// never subscribed — whether it was the only one on the store's widest view
// (the view and the store's retention go with it), shared a post set with a
// peer, or had a feed to itself, which then retires with it.
func TestStoreMemberSinkFailureIsolated(t *testing.T) {
	boom := errors.New("sink boom")
	failing := []struct{ name, sql string }{
		{"fail60s", fmt.Sprintf(faultShape, 60)},
		{"fail30s", fmt.Sprintf(faultShape, 30)},
	}
	for i, shape := range kindShapes {
		failing = append(failing, struct{ name, sql string }{shape.name, kindShape(i, "sum(%s)")})
	}
	for _, parallel := range []int{0, 4} {
		for _, fail := range failing {
			t.Run(fmt.Sprintf("parallel%d/%s", parallel, fail.name), func(t *testing.T) {
				run := func(withFailing bool) ([]string, *failingSink, []error) {
					e, err := Open(Config{ParallelCQ: parallel})
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					if err := e.ExecScript(faultDDL); err != nil {
						t.Fatal(err)
					}
					var peers []*CQ
					subscribe := func(sqlText string) {
						cq, err := e.Subscribe(sqlText)
						if err != nil {
							t.Fatal(err)
						}
						peers = append(peers, cq)
					}
					for _, v := range []int{10, 30, 60} {
						if v == 60 && fail.name == "fail60s" {
							continue // the failing member is alone on the widest view
						}
						subscribe(fmt.Sprintf(faultShape, v))
					}
					for i := range kindShapes {
						subscribe(kindShape(i, "count(%s)"))
					}
					pipelines, feeds := e.Stats().Pipelines, liveFeeds(e)
					sink := &failingSink{failAt: 4, err: boom}
					if withFailing {
						sink.subscribe(t, e, fail.sql)
					}
					errs := faultFeed(t, e, 11, -1)
					if got := e.Stats().Pipelines; got != pipelines {
						t.Errorf("withFailing=%v: %d pipelines left, want the %d peers and the derived stream's", withFailing, got, pipelines)
					}
					if got := liveFeeds(e); got != feeds {
						t.Errorf("withFailing=%v: %d feeds left, want %d: a feed retires with its last subscriber", withFailing, got, feeds)
					}
					out := make([]string, len(peers))
					for i, cq := range peers {
						out[i] = strings.Join(collectBatches(t, cq), "\n")
						if out[i] == "" {
							t.Fatalf("peer %d never fired", i)
						}
					}
					return out, sink, errs
				}
				want, _, errs := run(false)
				if len(errs) != 0 {
					t.Fatalf("run without the failing CQ: %v", errs)
				}
				got, sink, errs := run(true)
				if n := countErr(errs, boom.Error()); n != 1 || len(errs) != 1 {
					t.Errorf("sink error surfaced %d times in %v, want once", n, errs)
				}
				if sink.calls != sink.failAt {
					t.Errorf("failing sink called %d times, want %d (never after its error)", sink.calls, sink.failAt)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("peer %d transcript changed by a failing neighbour:\n%s\n--\n%s", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestStoreEvalErrorFailsEveryMember: an evaluation error while folding a
// row into shared state (sum(10/v) meeting v = 0) is the store's failure,
// not one member's: every CQ attached to that state stops at once and the
// error surfaces once per store. The same error in a re-executing CQ is its
// post stage's — the whole plan over the window's rows — and stops that CQ
// alone, once. Unrelated CQs on the same streams, store-backed and
// re-executing, keep the transcripts they have without any of them.
func TestStoreEvalErrorFailsEveryMember(t *testing.T) {
	const unrelated = `SELECT url, count(*) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`
	const failShape = `SELECT url, sum(10/v) AS r FROM s <VISIBLE '%d seconds' ADVANCE '10 seconds'> GROUP BY url`
	for _, parallel := range []int{0, 4} {
		t.Run(fmt.Sprintf("parallel%d", parallel), func(t *testing.T) {
			run := func(withFailing bool) ([]string, [][]string, []error, int) {
				e, err := Open(Config{ParallelCQ: parallel})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if err := e.ExecScript(faultDDL); err != nil {
					t.Fatal(err)
				}
				subscribe := func(sqlText string) *CQ {
					cq, err := e.Subscribe(sqlText)
					if err != nil {
						t.Fatal(err)
					}
					return cq
				}
				healthy := []*CQ{subscribe(unrelated)}
				for i := range kindShapes {
					healthy = append(healthy, subscribe(kindShape(i, "count(%s)")))
				}
				pipelines, feeds, stores := e.Stats().Pipelines, liveFeeds(e), e.Stats().PlanGroups
				var failing []*CQ // the store's three members, then one per kind shape
				if withFailing {
					for _, v := range []int{10, 30, 60} {
						failing = append(failing, subscribe(fmt.Sprintf(failShape, v)))
					}
					for i := range kindShapes {
						failing = append(failing, subscribe(kindShape(i, "sum(10/%s)")))
					}
				}
				stores = e.Stats().PlanGroups - stores
				errs := faultFeed(t, e, 23, 30)
				if got := e.Stats().Pipelines; got != pipelines {
					t.Errorf("withFailing=%v: %d pipelines left, want only the %d unrelated ones", withFailing, got, pipelines)
				}
				if got := liveFeeds(e); got != feeds {
					t.Errorf("withFailing=%v: %d feeds left, want %d: a feed retires with its last subscriber", withFailing, got, feeds)
				}
				out := make([][]string, len(failing))
				for i, cq := range failing {
					out[i] = collectBatches(t, cq)
				}
				transcripts := make([]string, len(healthy))
				for i, cq := range healthy {
					transcripts[i] = strings.Join(collectBatches(t, cq), "\n")
				}
				return transcripts, out, errs, stores
			}
			want, _, errs, _ := run(false)
			if len(errs) != 0 || want[0] == "" {
				t.Fatalf("run without the failing CQs: %q, %v", want, errs)
			}
			got, failing, errs, stores := run(true)
			wantStores, reexec := 1, 0
			for _, shape := range kindShapes {
				if shape.store {
					wantStores++
				} else {
					reexec++
				}
			}
			if n := countErr(errs, types.ErrDivisionByZero.Error()); n != stores+reexec || stores != wantStores {
				t.Errorf("division error surfaced %d times in %v, want once per store (%d, want %d) and per re-executing CQ (%d)",
					n, errs, stores, wantStores, reexec)
			}
			for _, err := range errs {
				if !errors.Is(err, types.ErrDivisionByZero) {
					t.Errorf("unexpected error %v", err)
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("unrelated CQ %d's transcript changed:\n%s\n--\n%s", i, got[i], want[i])
				}
			}
			// Every member stopped at the failure: a grouped CQ fires at every
			// boundary, so all three saw the same closes and the run went on
			// past them. Each CQ of a kind shape fired until its own window
			// met the zero.
			members, fired := failing[:3], strings.Count(got[0], "\n")+1
			for i, m := range members {
				if len(m) == 0 || len(m) != len(members[0]) {
					t.Errorf("member %d fired %d windows, member 0 fired %d", i, len(m), len(members[0]))
				}
			}
			if len(members[0]) >= fired {
				t.Errorf("members fired %d windows, the unrelated CQ %d: the failure was not mid-run", len(members[0]), fired)
			}
			for i, m := range failing[3:] {
				if healthyFired := strings.Count(got[1+i], "\n") + 1; len(m) == 0 || len(m) >= healthyFired {
					t.Errorf("%s CQ fired %d windows, its healthy twin %d: the failure was not mid-run",
						kindShapes[i].name, len(m), healthyFired)
				}
			}
		})
	}
}

// TestQueueDepthBehindStalledFeed: a store's feed is backed up behind one
// member's stalled sink. Every CQ on that feed reports the backlog it waits
// behind — sys.pipelines.queue_depth is the feed's mailbox depth, not a
// constant 0 for whoever has no mailbox of their own.
func TestQueueDepthBehindStalledFeed(t *testing.T) {
	e, err := Open(Config{ParallelCQ: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ExecScript(faultDDL); err != nil { // d's CQ is a second feed: the pool drains, not the producer
		t.Fatal(err)
	}
	derived := e.Stats().PerPipeline[0].ID
	for _, v := range []int{10, 30} {
		if _, err := e.Subscribe(fmt.Sprintf(faultShape, v)); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	subscribeSink(t, e, fmt.Sprintf(faultShape, 60), func(trace.Ctx, int64, []types.Row, *ivm.Frame) error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	})
	at := func(sec int) Row {
		return Row{String("/u"), Timestamp(time.UnixMicro(ivmBase).Add(time.Duration(sec) * time.Second).UTC()), Int(1)}
	}
	const backlog = 3 // below the mailbox bound of 4, so the producer is not blocked
	for _, sec := range []int{1, 11} {
		if err := e.Append("s", at(sec)); err != nil {
			t.Fatal(err)
		}
	}
	<-entered // the close at 10 s is inside the stalled sink, its task dequeued
	for i := 0; i < backlog; i++ {
		if err := e.Append("s", at(12+i)); err != nil {
			t.Fatal(err)
		}
	}
	members := 0
	for _, ps := range e.Stats().PerPipeline {
		if ps.ID == derived {
			continue
		}
		members++
		if ps.QueueDepth != backlog {
			t.Errorf("pipeline %d behind the stalled feed reports queue depth %d, want %d", ps.ID, ps.QueueDepth, backlog)
		}
	}
	if members != 3 {
		t.Errorf("%d CQs on the stalled feed, want 3", members)
	}
	close(release)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, ps := range e.Stats().PerPipeline {
		if ps.QueueDepth != 0 {
			t.Errorf("pipeline %d reports queue depth %d after Flush", ps.ID, ps.QueueDepth)
		}
	}
}

// TestStoreRecoveryActiveTables generalises TestIVMRecoveryActiveTables:
// three derived streams of one fingerprint at VISIBLE 10/30/60 s archive
// into Active Tables through APPEND channels over a durable directory.
// The engine is stopped after a seeded random prefix with each table
// having lost a different number of trailing windows (a crash between the
// members' channel commits), so the members resume from different
// max(cq_close) high-water marks off one boundary clock. The prefix ends
// in a quiet stretch, so no window with rows straddles the restart, and the
// reopened run's tables must equal an uninterrupted run's: no duplicate
// and no missing window.
func TestStoreRecoveryActiveTables(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		for seed := int64(1); seed <= 20; seed++ {
			straight := runStoreRecovery(t, parallel, seed, false, false)
			restarted := runStoreRecovery(t, parallel, seed, true, false)
			if straight != restarted {
				t.Fatalf("parallel %d seed %d: Active Tables diverged:\nuninterrupted:\n%s\nrestarted:\n%s",
					parallel, seed, straight, restarted)
			}
		}
	}
}

// TestStoreRecoveryReplaysHistory is the same restart with the stop at an
// arbitrary point — windows with rows straddle it — and the history
// replayed into the reopened engine, as from an archive: every member's
// windows up to its own high-water mark stay muted while the store refills,
// each view is first built from the slices in its extent however much
// older history was replayed, and the tables again equal an uninterrupted
// run's. (State that fired everything it had been fed got the first window
// after a replay wrong.)
func TestStoreRecoveryReplaysHistory(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		for seed := int64(1); seed <= 20; seed++ {
			straight := runStoreRecovery(t, parallel, seed, false, true)
			restarted := runStoreRecovery(t, parallel, seed, true, true)
			if straight != restarted {
				t.Fatalf("parallel %d seed %d: Active Tables diverged:\nuninterrupted:\n%s\nrestarted:\n%s",
					parallel, seed, straight, restarted)
			}
		}
	}
}

const storeRecoveryDDL = `
	CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint);
	CREATE STREAM a10 AS SELECT cq_close(*) AS closed, count(*) AS n, sum(v) AS total
		FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'>;
	CREATE STREAM a30 AS SELECT cq_close(*) AS closed, count(*) AS n, sum(v) AS total
		FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'>;
	CREATE STREAM a60 AS SELECT cq_close(*) AS closed, count(*) AS n, sum(v) AS total
		FROM s <VISIBLE '60 seconds' ADVANCE '10 seconds'>;
	CREATE TABLE t10 (closed timestamp, n bigint, total bigint);
	CREATE TABLE t30 (closed timestamp, n bigint, total bigint);
	CREATE TABLE t60 (closed timestamp, n bigint, total bigint);
	CREATE CHANNEL c10 FROM a10 INTO t10 APPEND;
	CREATE CHANNEL c30 FROM a30 INTO t30 APPEND;
	CREATE CHANNEL c60 FROM a60 INTO t60 APPEND;
`

// runStoreRecovery feeds seed's workload through a durable engine and
// dumps the three Active Tables. With restart it stops the engine after a
// random prefix, having dropped up to three trailing windows per table,
// and reopens it. Without replay the prefix is followed by a quiet,
// heartbeat-closed stretch, so window state is empty at the restart; with
// replay the prefix ends anywhere and is appended again after reopening,
// the way history is replayed from an archive.
func runStoreRecovery(t *testing.T, parallel int, seed int64, restart, replay bool) string {
	t.Helper()
	cfg := Config{Dir: t.TempDir(), ParallelCQ: parallel}
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	if err := e.ExecScript(storeRecoveryDDL); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ts := ivmBase
	burst := func() []Row {
		rows := make([]Row, rng.Intn(30)+1)
		for i := range rows {
			ts += int64(rng.Intn(1_500_000))
			rows[i] = Row{String(fmt.Sprintf("/u%d", rng.Intn(3))),
				Timestamp(time.UnixMicro(ts).UTC()), Int(int64(rng.Intn(50)))}
		}
		return rows
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var prefix [][]Row
	for i, n := 0, rng.Intn(12)+3; i < n; i++ {
		prefix = append(prefix, burst())
		must(e.Append("s", prefix[i]...))
	}
	if !replay {
		// Long enough that the widest window over the last row, and the
		// three windows a table can lose after it, have all closed empty.
		ts += 100_000_000
		must(e.AdvanceTime("s", time.UnixMicro(ts).UTC()))
	}
	lose := [3]int{rng.Intn(4), rng.Intn(4), rng.Intn(4)}
	if restart {
		must(e.Flush())
		for i, tbl := range []string{"t10", "t30", "t60"} {
			hwm := mustQuery(t, e, `SELECT max(closed) FROM `+tbl).Data[0][0]
			if hwm.IsNull() {
				continue
			}
			cut := hwm.Time().Add(-time.Duration(lose[i]) * 10 * time.Second)
			mustExec(t, e, fmt.Sprintf(`DELETE FROM %s WHERE closed > timestamp '%s'`,
				tbl, cut.UTC().Format("2006-01-02 15:04:05")))
		}
		must(e.Close())
		if e, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		if replay {
			for _, rows := range prefix {
				must(e.Append("s", rows...))
			}
		}
	}
	for i, n := 0, rng.Intn(12)+3; i < n; i++ {
		must(e.Append("s", burst()...))
	}
	must(e.AdvanceTime("s", time.UnixMicro(ts).Add(90*time.Second).UTC()))
	must(e.Flush())
	var sb strings.Builder
	for _, tbl := range []string{"t10", "t30", "t60"} {
		fmt.Fprintf(&sb, "%s:\n", tbl)
		for _, row := range mustQuery(t, e, `SELECT * FROM `+tbl+` ORDER BY closed`).Data {
			sb.WriteString(row.String() + "\n")
		}
	}
	return sb.String()
}
