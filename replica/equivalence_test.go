package replica_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/repl"
	"streamrel/internal/wal"
	"streamrel/replica"
)

// transcript renders an engine's durable state as the replication snapshot
// sees it: the DDL log, every visible row of every table under its RowID, and
// each table's next RowID (the trailing gaps aborted transactions leave).
func transcript(t *testing.T, e *streamrel.Engine) string {
	t.Helper()
	var b strings.Builder
	err := e.Repl().Snapshot(func(ev repl.Event) error {
		for _, rec := range ev.Recs {
			switch rec.Kind {
			case wal.RecDDL:
				fmt.Fprintf(&b, "ddl %s\n", rec.SQL)
			case wal.RecNext:
				fmt.Fprintf(&b, "%s next %d\n", rec.Table, rec.RowID)
			default:
				fmt.Fprintf(&b, "%s %d %s\n", rec.Table, rec.RowID, rec.Row)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func sameTranscript(t *testing.T, what string, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d is %q, the primary's %q (%d lines against %d)", what, i, g[i], w[i], len(g), len(w))
		}
	}
	t.Fatalf("%s: %d lines, the primary has %d", what, len(g), len(w))
}

// spy tails a hub from its first event and tallies what crossed the link, by
// kind and by the stream (appends, archives) or table (WAL batches) it names.
type spy struct {
	mu    sync.Mutex
	count map[string]int
	runs  int // the most RowID runs one archived batch needed
	lsn   atomic.Uint64
	close func()
}

func startSpy(t *testing.T, n *node) *spy {
	t.Helper()
	c, err := client.DialOptions(n.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Replicate(0, n.eng.Repl().RunID())
	if err != nil {
		t.Fatal(err)
	}
	s := &spy{count: map[string]int{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			ev, err := rs.R.ReadEvent()
			if err != nil {
				return
			}
			s.mu.Lock()
			switch ev.Kind {
			case repl.KindAppend:
				s.count["append/"+ev.Stream]++
			case repl.KindArchive:
				s.count["archive/"+ev.Stream]++
				s.runs = max(s.runs, len(ev.Runs))
			case repl.KindWAL:
				if rec := ev.Recs[0]; rec.Kind != wal.RecDDL {
					s.count["wal/"+rec.Table]++
				}
			}
			s.mu.Unlock()
			if ev.LSN > s.lsn.Load() {
				s.lsn.Store(ev.LSN)
			}
		}
	}()
	s.close = func() { rs.Close(); c.Close(); <-done }
	return s
}

// seen waits until the spy has read lsn and returns its tally.
func (s *spy) seen(t *testing.T, lsn uint64) map[string]int {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); s.lsn.Load() < lsn; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the spy read up to lsn %d of %d", s.lsn.Load(), lsn)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	for k, v := range s.count {
		out[k] = v
	}
	return out
}

// drained renders everything a CQ has fired so far.
func drained(cq *streamrel.CQ) string {
	var b strings.Builder
	for _, batch := range cq.Drain() {
		fmt.Fprintf(&b, "close %s\n", batch.Close.UTC().Format(time.RFC3339Nano))
		for _, row := range batch.Rows {
			fmt.Fprintf(&b, "  %s\n", row)
		}
	}
	return b.String()
}

const equivalenceDDL = `
	CREATE STREAM s1 (k bigint, v bigint, at timestamp CQTIME USER);
	CREATE STREAM s2 (k bigint, v bigint, at timestamp CQTIME USER);
	CREATE TABLE raw (k bigint, v bigint, at timestamp);
	CREATE CHANNEL c1 FROM s1 INTO raw APPEND;
	CREATE CHANNEL c2 FROM s2 INTO raw APPEND;
	CREATE STREAM s3 (k bigint, v double, at timestamp CQTIME USER);
	CREATE TABLE casted (k bigint, v double, at timestamp);
	CREATE CHANNEL c3 FROM s3 INTO casted APPEND;
	CREATE STREAM s4 (k bigint, v bigint, at timestamp CQTIME USER);
	CREATE TABLE dup_a (k bigint, v bigint, at timestamp);
	CREATE TABLE dup_b (k bigint, v bigint, at timestamp);
	CREATE CHANNEL c4a FROM s4 INTO dup_a APPEND;
	CREATE CHANNEL c4b FROM s4 INTO dup_b APPEND;`

// TestArchiveReplicationEquivalence: whatever path a row took across the
// link — one KindArchive event for s1 and s2, whose raw channels share a
// table with each other and with INSERT, DELETE and an aborted transaction;
// an append and a WAL batch for s3, whose channel casts, and for s4, which
// feeds two — every follower ends with the primary's (table, RowID, row)
// transcript: one that followed from the start, one restarted mid-run from
// its resume point, one that joined mid-run from a snapshot overlapping live
// events, and one chained off the first. A checkpoint falls mid-run. The
// first follower's CQs over the replicated stream fire what the primary's do.
// Then it is promoted and fed directly: its own channels resume, each row is
// archived once, and the chained follower keeps up with it.
func TestArchiveReplicationEquivalence(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		t.Run(fmt.Sprintf("ParallelCQ=%d", parallel), func(t *testing.T) { archiveEquivalence(t, parallel) })
	}
}

func archiveEquivalence(t *testing.T, parallel int) {
	prim := startServing(t, streamrel.Config{Dir: t.TempDir(), ParallelCQ: parallel}, "127.0.0.1:0")
	primStopped := false
	defer func() {
		if !primStopped {
			prim.stop()
		}
	}()
	if err := prim.eng.ExecScript(equivalenceDDL); err != nil {
		t.Fatal(err)
	}
	watch := startSpy(t, prim)
	defer watch.close()

	first := startServing(t, streamrel.Config{ParallelCQ: parallel}, "127.0.0.1:0")
	defer first.stop()
	firstRep := follow(t, first.eng, prim.addr)
	defer firstRep.Stop()
	restartedDir := t.TempDir()
	restarted := startServing(t, streamrel.Config{Dir: restartedDir}, "127.0.0.1:0")
	restartedRep := follow(t, restarted.eng, prim.addr)
	chained := startServing(t, streamrel.Config{}, "127.0.0.1:0")
	defer chained.stop()
	chainedRep := follow(t, chained.eng, first.addr)
	defer chainedRep.Stop()
	for _, rep := range []*replica.Replica{restartedRep, chainedRep} {
		if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	chainWatch := startSpy(t, first)
	defer chainWatch.close()

	// Two feeds on s1, so that under a pool its batches go to the workers.
	cqSQL := []string{
		`SELECT k, count(*), sum(v) FROM s1 <VISIBLE '2 seconds' ADVANCE '1 second'> GROUP BY k ORDER BY k`,
		`SELECT count(*), min(v), max(v) FROM s1 <VISIBLE '3 seconds' ADVANCE '3 seconds'>`,
	}
	var primCQs, firstCQs []*streamrel.CQ
	for _, q := range cqSQL {
		for eng, cqs := range map[*streamrel.Engine]*[]*streamrel.CQ{prim.eng: &primCQs, first.eng: &firstCQs} {
			cq, err := eng.Subscribe(q)
			if err != nil {
				t.Fatal(err)
			}
			defer cq.Close()
			*cqs = append(*cqs, cq)
		}
	}

	// One producer per stream (a stream's order is its producer's), a writer
	// of plain DML on the shared table, all concurrent.
	const batchRows = 8
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	batch := func(k, n int, float bool) []streamrel.Row {
		rows := make([]streamrel.Row, batchRows)
		for i := range rows {
			seq := n*batchRows + i
			v := streamrel.Int(int64(seq % 100))
			if float && i%2 == 0 {
				v = streamrel.Float(float64(seq%100) + 0.5)
			}
			rows[i] = streamrel.Row{streamrel.Int(int64(k)), v, streamrel.Timestamp(base.Add(time.Duration(seq) * 10 * time.Millisecond))}
		}
		return rows
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	batches := make([]int, 5) // by stream number
	for k := 1; k <= 4; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					batches[k] = n
					return
				default:
				}
				// s3's DOUBLE column is handed BIGINTs in every batch, and
				// DOUBLEs beside them: its channel casts.
				if err := prim.eng.Append(fmt.Sprintf("s%d", k), batch(k, n, k == 3)...); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(k)
	}
	var dmlBatches, s1Deleted int
	wg.Add(1)
	go func() {
		defer wg.Done()
		exec := func(sql string) int {
			res, err := prim.eng.Exec(sql)
			if err != nil {
				t.Error(err)
				return 0
			}
			if res.RowsAffected > 0 {
				dmlBatches++
			}
			return res.RowsAffected
		}
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			exec(fmt.Sprintf(`INSERT INTO raw VALUES (%d, %d, timestamp '2026-01-01 00:00:00')`, -i, i))
			if i%3 == 0 {
				exec(fmt.Sprintf(`DELETE FROM raw WHERE k = %d`, -(i - 1)))
			}
			if i%5 == 0 {
				s1Deleted += exec(fmt.Sprintf(`DELETE FROM raw WHERE k = 1 AND v = %d`, i%100))
			}
			if i%4 == 0 {
				// An aborted transaction: two rows reach the heap, the third
				// cannot be cast, and the RowIDs the two took stay a gap.
				err := prim.eng.BulkInsert("raw", []streamrel.Row{
					{streamrel.Int(-1), streamrel.Int(0), streamrel.Timestamp(base)},
					{streamrel.Int(-1), streamrel.Int(0), streamrel.Timestamp(base)},
					{streamrel.Int(-1), streamrel.String("not a number"), streamrel.Timestamp(base)},
				})
				if err == nil {
					t.Error("a string went into a BIGINT column")
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	running := func(d time.Duration) { time.Sleep(d) }
	running(100 * time.Millisecond)
	if err := prim.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	running(50 * time.Millisecond)

	// Restart the durable follower under load: it recovers its tables from
	// its own log and resumes from the ring, taking no snapshot.
	restartedRep.Stop()
	restarted.stop()
	running(100 * time.Millisecond)
	restarted = startServing(t, streamrel.Config{Dir: restartedDir}, "127.0.0.1:0")
	defer restarted.stop()
	restartedRep = follow(t, restarted.eng, prim.addr)
	defer restartedRep.Stop()

	// A fresh follower joins under load: its snapshot overlaps the archive
	// events published since its subscription began.
	late := startServing(t, streamrel.Config{}, "127.0.0.1:0")
	defer late.stop()
	lateRep := follow(t, late.eng, prim.addr)
	defer lateRep.Stop()
	running(150 * time.Millisecond)
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	// A follower learns of the RowIDs an aborted transaction took from the
	// next insert beyond them (or from a snapshot's next-RowID record): end on one.
	mustExec(t, prim.eng, `INSERT INTO raw VALUES (0, 0, timestamp '2026-01-01 00:00:00')`)
	dmlBatches++

	end := base.Add(time.Hour)
	for k := 1; k <= 4; k++ {
		if err := prim.eng.AdvanceTime(fmt.Sprintf("s%d", k), end); err != nil {
			t.Fatal(err)
		}
	}
	if err := prim.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	lsn := prim.eng.Repl().LSN()
	for name, rep := range map[string]*replica.Replica{"first": firstRep, "restarted": restartedRep, "late": lateRep} {
		if err := rep.WaitFor(lsn, 20*time.Second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := chainedRep.WaitFor(first.eng.Repl().LSN(), 20*time.Second); err != nil {
		t.Fatalf("chained: %v", err)
	}

	want := transcript(t, prim.eng)
	for name, n := range map[string]*node{"first": first, "restarted": restarted, "late": late, "chained": chained} {
		sameTranscript(t, name, transcript(t, n.eng), want)
	}
	if snaps := metric(t, restarted.eng, "streamrel_repl_snapshots_received_total"); snaps != 0 {
		t.Errorf("the restarted follower took %v snapshots, want a resume from the ring", snaps)
	}
	if snaps := metric(t, late.eng, "streamrel_repl_snapshots_received_total"); snaps != 1 {
		t.Errorf("the late follower took %v snapshots, want 1", snaps)
	}

	// Each row of s2 was archived once; s1's too, less the ones DELETEd.
	for _, n := range []*node{prim, first} {
		if got, want := dump(t, n.eng, `SELECT count(*) FROM raw WHERE k = 2`), fmt.Sprintf("%d\n", batches[2]*batchRows); got != want {
			t.Errorf("raw holds %s rows of s2, want %s", got, want)
		}
		if got, want := dump(t, n.eng, `SELECT count(*) FROM raw WHERE k = 1`), fmt.Sprintf("%d\n", batches[1]*batchRows-s1Deleted); got != want {
			t.Errorf("raw holds %s rows of s1, want %s", got, want)
		}
	}

	// What crossed the link, primary to followers and first follower to the
	// chained one: an archived batch once, the other shapes as ever.
	for hub, tally := range map[string]map[string]int{"primary": watch.seen(t, lsn), "first follower": chainWatch.seen(t, first.eng.Repl().LSN())} {
		for key, want := range map[string]int{
			"archive/s1": batches[1], "append/s1": 0,
			"archive/s2": batches[2], "append/s2": 0,
			"archive/s3": 0, "append/s3": batches[3], "wal/casted": batches[3],
			"archive/s4": 0, "append/s4": batches[4], "wal/dup_a": batches[4], "wal/dup_b": batches[4],
			"wal/raw": dmlBatches,
		} {
			if tally[key] != want {
				t.Errorf("%s published %d × %s, want %d", hub, tally[key], key, want)
			}
		}
	}
	t.Logf("%d+%d archived batches, at most %d RowID runs in one; %d DML batches", batches[1], batches[2], watch.runs, dmlBatches)
	for reason, want := range map[string]int{"cast": batches[3], "second_channel": 2 * batches[4], "commit_failed": 0} {
		if got := metric(t, prim.eng, `streamrel_repl_unfused_batches_total{reason="`+reason+`"}`); got != float64(want) {
			t.Errorf("unfused batches for %s: %v, want %d", reason, got, want)
		}
	}

	if err := first.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range cqSQL {
		got, want := drained(firstCQs[i]), drained(primCQs[i])
		if want == "" || got != want {
			t.Errorf("%s\non the follower fired:\n%s\non the primary:\n%s", cqSQL[i], got, want)
		}
	}

	// The primary dies; the first follower takes over and is fed directly.
	prim.stop()
	primStopped = true
	if err := firstRep.Promote(); err != nil {
		t.Fatal(err)
	}
	const more = 10
	for n := 0; n < more; n++ {
		rows := batch(2, batches[2]+n, false)
		for i := range rows {
			rows[i][2] = streamrel.Timestamp(end.Add(time.Duration(n*batchRows+i+1) * time.Millisecond))
		}
		if err := first.eng.Append("s2", rows...); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dump(t, first.eng, `SELECT count(*) FROM raw WHERE k = 2`), fmt.Sprintf("%d\n", (batches[2]+more)*batchRows); got != want {
		t.Fatalf("after promotion raw holds %s rows of s2, want %s", got, want)
	}
	promotedLSN := first.eng.Repl().LSN()
	if err := chainedRep.WaitFor(promotedLSN, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	sameTranscript(t, "chained, after promotion", transcript(t, chained.eng), transcript(t, first.eng))
	if tally := chainWatch.seen(t, promotedLSN); tally["archive/s2"] != batches[2]+more || tally["append/s2"] != 0 {
		t.Errorf("the promoted node published %d × archive/s2 and %d × append/s2, want %d and 0",
			tally["archive/s2"], tally["append/s2"], batches[2]+more)
	}
}

// TestCutEquivalence: a checkpoint is a local matter and a snapshot's boundary
// is cut with its state. While a stream archives into one table, its derived
// stream's windows commit into another (on pool workers at ParallelCQ 4) and
// DML with deletes and aborted transactions churns an indexed third, the
// primary runs DDL and takes a checkpoint every few milliseconds — and
// followers bootstrap across all of it, one after another: each DDL statement
// and each event reaches a follower in its snapshot or after its boundary,
// never both (a statement applied twice would fail, forever), and no RowID
// moved under it. A durable follower is followed in turn by a chained one
// attached before the first has anything, DDL included; the durable one takes
// a checkpoint of its own, which its follower must not notice, and is then
// restarted: it recovers its tables and its resume point from that checkpoint
// and its log and catches up from the ring. All of them end with the
// primary's (table, RowID, row) transcript.
func TestCutEquivalence(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		t.Run(fmt.Sprintf("ParallelCQ=%d", parallel), func(t *testing.T) { cutEquivalence(t, parallel) })
	}
}

func cutEquivalence(t *testing.T, parallel int) {
	prim := startServing(t, streamrel.Config{Dir: t.TempDir(), ParallelCQ: parallel}, "127.0.0.1:0")
	defer prim.stop()
	if err := prim.eng.ExecScript(`
		CREATE STREAM s (k bigint, v bigint, at timestamp CQTIME USER);
		CREATE TABLE raw (k bigint, v bigint, at timestamp);
		CREATE CHANNEL c FROM s INTO raw APPEND;
		CREATE STREAM agg AS SELECT k, count(*) AS n, cq_close(*) AS w FROM s <ADVANCE '1 second'> GROUP BY k;
		CREATE TABLE agg_t (k bigint, n bigint, w timestamp);
		CREATE CHANNEL agg_ch FROM agg INTO agg_t APPEND;
		CREATE TABLE kv (k bigint, v bigint);
		CREATE INDEX kv_k ON kv (k);`); err != nil {
		t.Fatal(err)
	}
	// Something to bootstrap from, half of it dead: what the first checkpoint
	// reclaims, and what the parent's renumbered the rest over.
	preload := make([]streamrel.Row, 20000)
	for i := range preload {
		preload[i] = streamrel.Row{streamrel.Int(int64(i)), streamrel.Int(int64(i % 7))}
	}
	if err := prim.eng.BulkInsert("kv", preload); err != nil {
		t.Fatal(err)
	}
	mustExec(t, prim.eng, `DELETE FROM kv WHERE v < 3`)

	durableDir := t.TempDir()
	durable := startServing(t, streamrel.Config{Dir: durableDir, ParallelCQ: parallel}, "127.0.0.1:0")
	durableRep := follow(t, durable.eng, prim.addr)
	chained := startServing(t, streamrel.Config{}, "127.0.0.1:0")
	defer chained.stop()
	chainedRep := follow(t, chained.eng, durable.addr)
	defer chainedRep.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer halt()
	running := func(what func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				what(i)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	exec := func(sql string) {
		if _, err := prim.eng.Exec(sql); err != nil {
			t.Error(err)
		}
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	running(func(n int) { // a batch spans 0.8 s: nearly each one closes a window of agg
		rows := make([]streamrel.Row, 8)
		for i := range rows {
			seq := n*len(rows) + i
			rows[i] = streamrel.Row{streamrel.Int(int64(seq % 5)), streamrel.Int(int64(seq)), streamrel.Timestamp(base.Add(time.Duration(seq) * 100 * time.Millisecond))}
		}
		if err := prim.eng.Append("s", rows...); err != nil {
			t.Error(err)
		}
	})
	running(func(i int) {
		exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, %d), (%d, 0)`, -i, i, -i))
		if i%2 == 0 {
			exec(fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, -(i - 1)))
		}
		if i%4 == 0 { // an aborted transaction: the RowIDs it took stay a gap
			if prim.eng.BulkInsert("kv", []streamrel.Row{{streamrel.Int(0), streamrel.Int(0)}, {streamrel.Int(0), streamrel.String("x")}}) == nil {
				t.Error("a string went into a BIGINT column")
			}
		}
	})
	extras := 0
	running(func(i int) {
		exec(fmt.Sprintf(`CREATE TABLE extra_%d (a bigint)`, i))
		exec(fmt.Sprintf(`INSERT INTO extra_%d VALUES (%d)`, i, i))
		if err := prim.eng.Checkpoint(); err != nil {
			t.Error(err)
		}
		extras = i
	})

	followers := map[string]*node{"chained": chained}
	reps := map[string]*replica.Replica{}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("late %d", i)
		late := startServing(t, streamrel.Config{ParallelCQ: parallel}, "127.0.0.1:0")
		defer late.stop()
		followers[name], reps[name] = late, follow(t, late.eng, prim.addr)
		defer reps[name].Stop()
		time.Sleep(40 * time.Millisecond)
	}
	// Once it has a resume point to put in it (its snapshot has ended), the
	// durable follower takes a checkpoint of its own.
	if err := durableRep.WaitFor(1, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := durable.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond)

	// The durable follower goes down under load, and its own follower with it.
	durableRep.Stop()
	if err := chainedRep.WaitFor(durable.eng.Repl().LSN(), 20*time.Second); err != nil {
		t.Fatalf("chained: %v", err)
	}
	chainedRep.Stop()
	sameTranscript(t, "chained, of the durable follower", transcript(t, chained.eng), transcript(t, durable.eng))
	for id, want := range map[string]float64{"streamrel_repl_snapshots_received_total": 1, "streamrel_repl_reconnects_total": 0} {
		if got := metric(t, chained.eng, id); got != want {
			t.Errorf("chained follower: %s = %v, want %v: its upstream's checkpoint disturbed it", id, got, want)
		}
	}
	durable.stop()
	delete(followers, "chained")
	time.Sleep(40 * time.Millisecond)
	durable = startServing(t, streamrel.Config{Dir: durableDir, ParallelCQ: parallel}, "127.0.0.1:0")
	defer durable.stop()
	followers["durable"], reps["durable"] = durable, follow(t, durable.eng, prim.addr)
	defer reps["durable"].Stop()
	time.Sleep(40 * time.Millisecond)
	halt()
	if t.Failed() {
		return
	}
	// A follower learns of the RowIDs an aborted transaction took from the
	// next insert beyond them (or from a snapshot's next-RowID record): end on one.
	mustExec(t, prim.eng, `INSERT INTO kv VALUES (0, 0)`)
	if err := prim.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	lsn := prim.eng.Repl().LSN()
	want := transcript(t, prim.eng)
	if !strings.Contains(want, fmt.Sprintf("extra_%d 0 %d\n", extras, extras)) || !strings.Contains(want, "\nagg_t 0 ") {
		t.Fatalf("the primary ran %d DDL rounds and its transcript lacks the last, or agg_t is empty", extras)
	}
	for name, n := range followers {
		if err := reps[name].WaitFor(lsn, 20*time.Second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameTranscript(t, name, transcript(t, n.eng), want)
		wantSnaps := 1.0
		if name == "durable" {
			wantSnaps = 0 // since its restart: it resumed from the mark its checkpoint and log hold
		}
		if got := metric(t, n.eng, "streamrel_repl_snapshots_received_total"); got != wantSnaps {
			t.Errorf("%s took %v snapshots, want %v", name, got, wantSnaps)
		}
		if got := metric(t, n.eng, "streamrel_repl_reconnects_total"); got != 0 {
			t.Errorf("%s reconnected %v times: an event failed to apply", name, got)
		}
	}
	t.Logf("%d DDL statements and checkpoints under %d followers' bootstraps", extras, len(followers))
}

// TestResetEquivalence: a follower made to bootstrap again drops what it held
// (ReplicaReset), and what it held its own follower holds too. The primary is
// replaced, at its address, by one of another run that never had table gone_t
// and numbers kept_t's rows otherwise; the first follower reconnects, is sent a
// snapshot and resets — under load, the new primary writing and running DDL
// meanwhile. Its hub begins a new run with it: the chained follower is cut
// loose, reconnects under the old run and bootstraps again too, rather than
// keep gone_t and its rows and fail, forever, on the CREATE TABLE kept_t the
// first follower republishes. Both end with the new primary's transcript.
func TestResetEquivalence(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		t.Run(fmt.Sprintf("ParallelCQ=%d", parallel), func(t *testing.T) { resetEquivalence(t, parallel) })
	}
}

func resetEquivalence(t *testing.T, parallel int) {
	prim := startServing(t, streamrel.Config{ParallelCQ: parallel}, "127.0.0.1:0")
	if err := prim.eng.ExecScript(`
		CREATE STREAM s (k bigint, at timestamp CQTIME USER);
		CREATE STREAM agg AS SELECT k, count(*) AS n, cq_close(*) AS w FROM s <ADVANCE '1 second'> GROUP BY k;
		CREATE TABLE gone_w (k bigint, n bigint, w timestamp);
		CREATE CHANNEL gone_ch FROM agg INTO gone_w APPEND;
		CREATE TABLE gone_t (k bigint);
		CREATE VIEW gone_v AS SELECT k FROM gone_t;
		CREATE TABLE kept_t (k bigint, v bigint);
		CREATE INDEX kept_k ON kept_t (k);
		INSERT INTO gone_t VALUES (1), (2), (3);
		INSERT INTO kept_t VALUES (1, 1), (2, 2), (3, 3);
		DELETE FROM kept_t WHERE k = 2;`); err != nil {
		prim.stop()
		t.Fatal(err)
	}
	first := startServing(t, streamrel.Config{Dir: t.TempDir(), ParallelCQ: parallel}, "127.0.0.1:0")
	defer first.stop()
	firstRep := follow(t, first.eng, prim.addr)
	defer firstRep.Stop()
	chained := startServing(t, streamrel.Config{ParallelCQ: parallel}, "127.0.0.1:0")
	defer chained.stop()
	chainedRep := follow(t, chained.eng, first.addr)
	defer chainedRep.Stop()
	converged := func(n *node, on *node) {
		t.Helper()
		var got, want string
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if got, want = transcript(t, n.eng), transcript(t, on.eng); got == want {
				return
			}
		}
		sameTranscript(t, "follower of "+on.addr, got, want)
	}
	converged(first, prim)
	converged(chained, prim)
	oldRun := first.eng.Repl().RunID()

	addr := prim.addr
	prim.stop()
	prim = startServing(t, streamrel.Config{ParallelCQ: parallel}, addr)
	defer prim.stop()
	if err := prim.eng.ExecScript(`
		CREATE TABLE kept_t (k bigint, v bigint);
		CREATE INDEX kept_k ON kept_t (k);
		INSERT INTO kept_t VALUES (10, 10);`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mustExec(t, prim.eng, fmt.Sprintf(`INSERT INTO kept_t VALUES (%d, %d)`, 100+i, i))
		if i%50 == 0 {
			mustExec(t, prim.eng, fmt.Sprintf(`CREATE TABLE new_%d (a bigint)`, i))
		}
		if i%3 == 0 {
			mustExec(t, prim.eng, fmt.Sprintf(`DELETE FROM kept_t WHERE k = %d`, 100+i-1))
		}
		time.Sleep(time.Millisecond)
	}
	converged(first, prim)
	converged(chained, prim)
	if want := transcript(t, prim.eng); strings.Contains(want, "gone_t") || !strings.Contains(want, "kept_t 0 10|10\n") {
		t.Fatalf("the new primary's transcript:\n%s", want)
	}
	if run := first.eng.Repl().RunID(); run == oldRun {
		t.Error("the first follower reset and kept its run ID")
	}
	for name, n := range map[string]*node{"first": first, "chained": chained} {
		if got := metric(t, n.eng, "streamrel_repl_snapshots_received_total"); got != 2 {
			t.Errorf("%s took %v snapshots, want 2: one of each primary's state", name, got)
		}
	}
}
