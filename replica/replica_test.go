package replica_test

import (
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"streamrel"
	"streamrel/internal/server"
	"streamrel/replica"
)

// node is one engine + TCP server pair.
type node struct {
	eng  *streamrel.Engine
	srv  *server.Server
	addr string
}

func startNode(t *testing.T, dir, listen string) *node {
	t.Helper()
	return startServing(t, streamrel.Config{Dir: dir}, listen)
}

// startServing opens an engine and serves it on listen, replication included.
func startServing(t *testing.T, cfg streamrel.Config, listen string) *node {
	t.Helper()
	cfg.Replicate = true
	eng, err := streamrel.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng)
	srv.Replicate = eng.Repl().ServeConn
	addr, err := srv.Listen(listen)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	return &node{eng: eng, srv: srv, addr: addr}
}

func (n *node) stop() {
	n.srv.Close()
	n.eng.Close()
}

func startReplica(t *testing.T, addr, dir string) (*streamrel.Engine, *replica.Replica) {
	t.Helper()
	eng, err := streamrel.Open(streamrel.Config{Dir: dir, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng, follow(t, eng, addr)
}

// follow starts a replica of addr on eng.
func follow(t *testing.T, eng *streamrel.Engine, addr string) *replica.Replica {
	t.Helper()
	rep, err := replica.New(replica.Options{
		Addr:       addr,
		Engine:     eng,
		BackoffMin: 20 * time.Millisecond,
		BackoffMax: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Start()
	return rep
}

func mustExec(t *testing.T, e *streamrel.Engine, sql string) {
	t.Helper()
	if _, err := e.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// dump renders a query result as one deterministic string.
func dump(t *testing.T, e *streamrel.Engine, sql string) string {
	t.Helper()
	rows, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var b strings.Builder
	for _, r := range rows.Data {
		for i, d := range r {
			if i > 0 {
				b.WriteByte('|')
			}
			b.WriteString(d.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// waitConverged polls until the query renders identically (and non-empty,
// unless allowEmpty) on both engines.
func waitConverged(t *testing.T, a, b *streamrel.Engine, sql string, allowEmpty bool) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var da, db string
	for time.Now().Before(deadline) {
		da, db = dump(t, a, sql), dump(t, b, sql)
		if da == db && (allowEmpty || da != "") {
			return da
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no convergence on %q:\nprimary:\n%s\nreplica:\n%s", sql, da, db)
	return ""
}

func metric(t *testing.T, e *streamrel.Engine, id string) float64 {
	t.Helper()
	for _, s := range e.Metrics().Gather() {
		if s.ID() == id {
			return s.Value
		}
	}
	return 0
}

// TestReplicaConvergesUnderConcurrentIngest drives table writes and
// stream ingest concurrently while a fresh replica bootstraps from a
// snapshot, then checks tables, archived CQ results, and the stream
// clock all converge.
func TestReplicaConvergesUnderConcurrentIngest(t *testing.T) {
	prim := startNode(t, "", "127.0.0.1:0")
	defer prim.stop()
	mustExec(t, prim.eng, `CREATE TABLE kv (k bigint, v varchar)`)
	mustExec(t, prim.eng, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, prim.eng, `CREATE STREAM agg AS SELECT sum(v) AS total, cq_close(*) AS w FROM s <ADVANCE '1 minute'>`)
	mustExec(t, prim.eng, `CREATE TABLE agg_t (total bigint, w timestamp)`)
	mustExec(t, prim.eng, `CREATE CHANNEL ch FROM agg INTO agg_t APPEND`)

	reng, rep := startReplica(t, prim.addr, "")
	defer reng.Close()
	defer rep.Stop()

	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := prim.eng.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'v%d')`, i, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 120; i++ {
			ts := base.Add(time.Duration(i) * 30 * time.Second)
			if err := prim.eng.Append("s", streamrel.Row{streamrel.Int(int64(i)), streamrel.Timestamp(ts)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// Close every window.
	if err := prim.eng.AdvanceTime("s", base.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}

	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, prim.eng, reng, `SELECT k, v FROM kv ORDER BY k`, false)
	waitConverged(t, prim.eng, reng, `SELECT total, w FROM agg_t ORDER BY w`, false)

	// Writes on the replica are rejected while it follows.
	if _, err := reng.Exec(`INSERT INTO kv VALUES (999, 'no')`); !errors.Is(err, streamrel.ErrReadReplica) {
		t.Fatalf("replica write: got %v, want ErrReadReplica", err)
	}
	if err := reng.Append("s", streamrel.Row{streamrel.Int(1), streamrel.Timestamp(base)}); !errors.Is(err, streamrel.ErrReadReplica) {
		t.Fatalf("replica append: got %v, want ErrReadReplica", err)
	}

	// Lag metrics are exported and settled.
	if lag := metric(t, reng, "streamrel_repl_lag_lsn"); lag != 0 {
		t.Fatalf("repl_lag_lsn = %v, want 0", lag)
	}
	if applied := metric(t, reng, "streamrel_repl_last_applied_lsn"); applied == 0 {
		t.Fatal("repl_last_applied_lsn not exported")
	}
}

// TestReplicaRestartResumesIncrementally stops a durable replica, writes
// more on the primary, restarts the replica from its data directory, and
// checks it catches up from its persisted LSN without a new snapshot.
func TestReplicaRestartResumesIncrementally(t *testing.T) {
	prim := startNode(t, "", "127.0.0.1:0")
	defer prim.stop()
	mustExec(t, prim.eng, `CREATE TABLE t (a bigint)`)
	for i := 0; i < 10; i++ {
		mustExec(t, prim.eng, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}

	dir := t.TempDir()
	reng, rep := startReplica(t, prim.addr, dir)
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, prim.eng, reng, `SELECT a FROM t ORDER BY a`, false)
	resumeAt := rep.LastLSN()
	rep.Stop()
	if err := reng.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 10; i < 20; i++ {
		mustExec(t, prim.eng, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}

	reng2, rep2 := startReplica(t, prim.addr, dir)
	defer reng2.Close()
	defer rep2.Stop()
	// startReplica has already started streaming, so the resume point may
	// have moved on from the persisted one — never back to zero.
	if got := rep2.LastLSN(); got < resumeAt {
		t.Fatalf("restarted replica resumes at %d, want persisted %d", got, resumeAt)
	}
	if err := rep2.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, prim.eng, reng2, `SELECT a FROM t ORDER BY a`, false)
	if snaps := metric(t, reng2, "streamrel_repl_snapshots_received_total"); snaps != 0 {
		t.Fatalf("restart took %v snapshots, want incremental resume", snaps)
	}
}

// TestReplicaResyncsAfterPrimaryRestart restarts the primary (new run
// ID, same data) and checks the replica detects the epoch change and
// rebuilds from a fresh snapshot.
func TestReplicaResyncsAfterPrimaryRestart(t *testing.T) {
	pdir := t.TempDir()
	prim := startNode(t, pdir, "127.0.0.1:0")
	mustExec(t, prim.eng, `CREATE TABLE t (a bigint)`)
	mustExec(t, prim.eng, `INSERT INTO t VALUES (1), (2)`)

	reng, rep := startReplica(t, prim.addr, t.TempDir())
	defer reng.Close()
	defer rep.Stop()
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	addr := prim.addr
	prim.stop()
	prim2 := startNode(t, pdir, addr) // same address, new run ID
	defer prim2.stop()
	mustExec(t, prim2.eng, `INSERT INTO t VALUES (3)`)

	// WaitCaughtUp can be satisfied by the replica's view of the old primary,
	// with the reset under way and t dropped: wait for the row itself.
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if rows, err := reng.Query(`SELECT a FROM t WHERE a = 3`); err == nil && len(rows.Data) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the replica did not resync")
		}
	}
	waitConverged(t, prim2.eng, reng, `SELECT a FROM t ORDER BY a`, false)
	if snaps := metric(t, reng, "streamrel_repl_snapshots_received_total"); snaps < 2 {
		t.Fatalf("snapshots received = %v, want initial + post-restart resync", snaps)
	}
}

// TestPromoteAfterPrimaryDeath kills the primary, promotes the replica,
// and checks writes succeed on the promoted node.
func TestPromoteAfterPrimaryDeath(t *testing.T) {
	prim := startNode(t, "", "127.0.0.1:0")
	mustExec(t, prim.eng, `CREATE TABLE t (a bigint)`)
	mustExec(t, prim.eng, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	mustExec(t, prim.eng, `INSERT INTO t VALUES (1)`)

	reng, rep := startReplica(t, prim.addr, "")
	defer reng.Close()
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	prim.stop()
	if err := rep.Promote(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, reng, `INSERT INTO t VALUES (2)`)
	if got := dump(t, reng, `SELECT a FROM t ORDER BY a`); got != "1\n2\n" {
		t.Fatalf("after promote:\n%s", got)
	}
	// Stream ingest works again too (channel taps and stamping resume).
	if err := reng.Append("s", streamrel.Row{streamrel.Int(1), streamrel.Timestamp(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))}); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaResumePointRecoversWithState: a durable replica's resume point is
// in its log, in the batch that logged the event it is the point after — DDL
// included, the one apply that cannot be done twice. The replica dies the
// moment it has applied a CREATE TABLE; the image of its directory holds that
// statement and, as if the parent had written it, a repl.state one event
// behind. An engine opened on the image ignores that file and knows exactly
// where it is: the new replica resumes after the statement — no snapshot, no
// reconnect, which a second CREATE TABLE would force forever — skips nothing
// and ends with the primary's transcript. A replica over an engine with no
// directory has no point to resume from, and starts from a snapshot.
func TestReplicaResumePointRecoversWithState(t *testing.T) {
	prim := startNode(t, "", "127.0.0.1:0")
	defer prim.stop()
	mustExec(t, prim.eng, `CREATE TABLE a (x bigint)`)
	mustExec(t, prim.eng, `INSERT INTO a VALUES (1)`)

	dir := t.TempDir()
	reng, rep := startReplica(t, prim.addr, dir)
	if err := rep.WaitCaughtUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	mustExec(t, prim.eng, `INSERT INTO a VALUES (2)`)
	mustExec(t, prim.eng, `CREATE TABLE b (y bigint)`)
	ddlLSN := prim.eng.Repl().LSN()
	if err := rep.WaitFor(ddlLSN, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	image := t.TempDir()
	for _, name := range []string{"checkpoint", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		} else if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := fmt.Sprintf(`{"run":%q,"lsn":%d}`, prim.eng.Repl().RunID(), ddlLSN-1)
	if err := os.WriteFile(filepath.Join(image, "repl.state"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	rep.Stop()
	reng.Close()

	mustExec(t, prim.eng, `INSERT INTO b VALUES (7)`)
	mustExec(t, prim.eng, `INSERT INTO a VALUES (3)`)
	reng2, err := streamrel.Open(streamrel.Config{Dir: image, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer reng2.Close()
	if run, lsn := reng2.ReplicaMark(); run != prim.eng.Repl().RunID() || lsn != ddlLSN {
		t.Fatalf("recovered the resume point (%q, %d), want the CREATE TABLE's (%q, %d)", run, lsn, prim.eng.Repl().RunID(), ddlLSN)
	}
	rep2 := follow(t, reng2, prim.addr)
	defer rep2.Stop()
	if err := rep2.WaitFor(prim.eng.Repl().LSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sameTranscript(t, "the restarted replica", transcript(t, reng2), transcript(t, prim.eng))
	for _, id := range []string{"streamrel_repl_snapshots_received_total", "streamrel_repl_reconnects_total"} {
		if got := metric(t, reng2, id); got != 0 {
			t.Errorf("%s = %v after the restart, want 0", id, got)
		}
	}

	mem, memRep := startReplica(t, prim.addr, "")
	defer mem.Close()
	defer memRep.Stop()
	if err := memRep.WaitFor(prim.eng.Repl().LSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	sameTranscript(t, "the in-memory replica", transcript(t, mem), transcript(t, prim.eng))
	if got := metric(t, mem, "streamrel_repl_snapshots_received_total"); got != 1 {
		t.Errorf("the in-memory replica took %v snapshots, want 1", got)
	}
}

// TestUpgradeFromParentDirectory: the data directory of a durable replica as
// earlier commits left it still replays, to the rows that build recovered.
// From 6204023: a checkpoint written when the primary's marker made the
// replica compact, so with renumbered RowIDs and no next RowID, generation or
// mark; a log behind it with an insert, DDL and a delete by compacted RowID;
// and beside them a repl.state, here naming the live primary's run and an LSN
// its ring still covers — the file is not read and the engine holds no resume
// point. From 2bf6392, the last commit to log an insert a row at a time: a
// stamped checkpoint of per-row batches at the primary's RowIDs (gaps and all),
// next RowIDs and the mark of the event it was taken after, and a log whose
// batches — a delete and an insert, an archived row, DDL — each end in their
// event's mark: the engine resumes from the last, of a run that is not this
// primary's. Either way the replica takes exactly one snapshot, after which it
// follows like any other.
func TestUpgradeFromParentDirectory(t *testing.T) {
	prim := startNode(t, "", "127.0.0.1:0")
	defer prim.stop()
	mustExec(t, prim.eng, `CREATE TABLE t (a bigint, b varchar)`)
	mustExec(t, prim.eng, `CREATE INDEX t_a ON t (a)`)
	mustExec(t, prim.eng, `INSERT INTO t VALUES (4, 'r4'), (5, 'five'), (6, 'six'), (8, 'new')`)

	for _, parent := range []struct {
		files     map[string]string
		t, others string // SELECT a, b FROM t; the other table's rows
		run       string
		lsn       uint64
	}{
		{files: map[string]string{
			"checkpoint": "535257414c4602004200000032325289020124435245415445205441424c45207420286120626967696e742c2062207661726368617229011943524541544520494e44455820745f61204f4e207420286129170000004fa06d3e0202017400020306050272330201740102030805027234",
			"wal.log":    "535257414c4602000e00000056c4f141010201740202030a0504666976651c00000012008cfb010119435245415445205441424c45207520287820626967696e74290800000037662e09010201750001030e0d00000093c5745b010201740302030c05037369780500000086a766a30103017400",
			"repl.state": hex.EncodeToString([]byte(fmt.Sprintf(`{"run":%q,"lsn":%d}`, prim.eng.Repl().RunID(), prim.eng.Repl().LSN()))),
		}, t: "4|r4\n5|five\n6|six\n", others: "SELECT x FROM u: 7\n"},
		{files: map[string]string{
			"checkpoint": "535257414c46020004000000044a34e801050001d10000003952217a050124435245415445205441424c45207420286120626967696e742c2062207661726368617229011943524541544520494e44455820745f61204f4e20742028612901344352454154452053545245414d207320286b20626967696e742c2061742074696d657374616d7020435154494d452055534552290129435245415445205441424c452072617720286b20626967696e742c2061742074696d657374616d7029012c435245415445204348414e4e454c207261775f63682046524f4d207320494e544f2072617720415050454e4437000000d94b0ebe0302037261770202030206c09ac4af9be7af040203726177030203040680b5d0af9be7af0402037261770702030606c0cfdcaf9be7af0418000000fef0bb310202017400020308050272340201740402030c05037369780b0000008b86f753020403726177080401740514000000465ffb130105106361666562616265303130323033303408",
			"wal.log":    "535257414c46020004000000044a34e80105000125000000eb2b1ccd0303017400020174050203080504666f75720510636166656261626530313032303330340926000000a6f5a9100202037261770802030806c0a3beb09be7af040510636166656261626530313032303330340b2f0000004604858e020119435245415445205441424c45207520287820626967696e74290510636166656261626530313032303330340c",
		}, t: "4|four\n6|six\n", others: "SELECT k FROM raw ORDER BY k: 1\n2\n3\n4\nSELECT count(*) FROM u: 0\n", run: "cafebabe01020304", lsn: 12},
	} {
		dir := t.TempDir()
		for name, written := range parent.files {
			data, err := hex.DecodeString(written)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		reng, err := streamrel.Open(streamrel.Config{Dir: dir, Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		defer reng.Close()
		got := dump(t, reng, `SELECT a, b FROM t WHERE a > 0 ORDER BY a`)
		want := parent.t
		for _, q := range strings.SplitAfter(parent.others, "\n") {
			if sql, rows, ok := strings.Cut(q, ": "); ok {
				got, want = got+dump(t, reng, sql), want+rows
			} else {
				want += q
			}
		}
		if got != want {
			t.Fatalf("the parent's directory replayed as\n%swant\n%s", got, want)
		}
		if run, lsn := reng.ReplicaMark(); run != parent.run || lsn != parent.lsn {
			t.Fatalf("a resume point (%q, %d) from files that hold (%q, %d)", run, lsn, parent.run, parent.lsn)
		}
		rep := follow(t, reng, prim.addr)
		defer rep.Stop()
		mustExec(t, prim.eng, `INSERT INTO t VALUES (9, 'later')`)
		// The LSN it recovered is another run's: it says nothing until the
		// snapshot has begun.
		for deadline := time.Now().Add(10 * time.Second); metric(t, reng, "streamrel_repl_snapshots_received_total") == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no snapshot began")
			}
		}
		if err := rep.WaitFor(prim.eng.Repl().LSN(), 10*time.Second); err != nil {
			t.Fatal(err)
		}
		sameTranscript(t, "the upgraded replica", transcript(t, reng), transcript(t, prim.eng))
		for id, want := range map[string]float64{"streamrel_repl_snapshots_received_total": 1, "streamrel_repl_reconnects_total": 0} {
			if got := metric(t, reng, id); got != want {
				t.Errorf("%s = %v after the upgrade, want %v", id, got, want)
			}
		}
	}
}
