package streamrel

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamrel/internal/wal"
)

func openDir(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := Open(Config{Dir: dir, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRecoveryTablesAndData(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	mustExec(t, e, `CREATE TABLE t (a bigint, b varchar)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
	mustExec(t, e, `DELETE FROM t WHERE a = 1`)
	mustExec(t, e, `UPDATE t SET b = 'z' WHERE a = 2`)
	e.Close()

	e2 := openDir(t, dir)
	defer e2.Close()
	expectData(t, mustQuery(t, e2, `SELECT a, b FROM t`), "2|z")
}

func TestRecoveryDDLObjects(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	err := e.ExecScript(`
		CREATE STREAM s (v bigint, at timestamp CQTIME USER);
		CREATE STREAM d AS SELECT sum(v), cq_close(*) FROM s <ADVANCE '1 minute'>;
		CREATE TABLE arch (total bigint, stime timestamp);
		CREATE CHANNEL ch FROM d INTO arch;
		CREATE VIEW v_arch AS SELECT total FROM arch;
		CREATE INDEX arch_stime ON arch (stime);
	`)
	if err != nil {
		t.Fatal(err)
	}
	base := MustTimestamp("2009-01-04 00:00:00")
	e.Append("s", Row{Int(5), Timestamp(base.Add(time.Second))})
	e.AdvanceTime("s", base.Add(time.Minute))
	e.Close()

	e2 := openDir(t, dir)
	defer e2.Close()
	// All objects exist after recovery.
	expectData(t, mustExec(t, e2, `SHOW STREAMS`).Rows, "d", "s")
	expectData(t, mustExec(t, e2, `SHOW CHANNELS`).Rows, "ch")
	expectData(t, mustExec(t, e2, `SHOW VIEWS`).Rows, "v_arch")
	// Archived window survived.
	expectData(t, mustQuery(t, e2, `SELECT total FROM arch`), "5")
	// The index works after recovery.
	expectData(t, mustQuery(t, e2, `SELECT total FROM arch WHERE stime = timestamp '2009-01-04 00:01:00'`), "5")
	// The CQ keeps running from where it left off.
	e2.Append("s", Row{Int(7), Timestamp(base.Add(61 * time.Second))})
	e2.AdvanceTime("s", base.Add(2*time.Minute))
	expectData(t, mustQuery(t, e2, `SELECT total FROM arch ORDER BY stime`), "5", "7")
}

// TestRecoveryResumesFromActiveTable checks the paper-§4 mechanism: after
// restart the CQ resumes from the Active Table's newest window instead of
// re-emitting archived windows.
func TestRecoveryResumesFromActiveTable(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	e.ExecScript(`
		CREATE STREAM s (v bigint, at timestamp CQTIME USER);
		CREATE STREAM d AS SELECT count(*), cq_close(*) FROM s <ADVANCE '1 minute'>;
		CREATE TABLE arch (n bigint, stime timestamp);
		CREATE CHANNEL ch FROM d INTO arch;
	`)
	base := MustTimestamp("2009-01-04 00:00:00")
	for m := 0; m < 3; m++ {
		e.Append("s", Row{Int(1), Timestamp(base.Add(time.Duration(m)*time.Minute + time.Second))})
	}
	e.AdvanceTime("s", base.Add(3*time.Minute))
	expectData(t, mustQuery(t, e, `SELECT count(*) FROM arch`), "3")
	e.Close()

	e2 := openDir(t, dir)
	defer e2.Close()
	// Heartbeats covering already-archived boundaries must not duplicate.
	e2.AdvanceTime("s", base.Add(3*time.Minute))
	expectData(t, mustQuery(t, e2, `SELECT count(*) FROM arch`), "3")
	// The next genuine window appends exactly one row.
	e2.Append("s", Row{Int(1), Timestamp(base.Add(3*time.Minute + time.Second))})
	e2.AdvanceTime("s", base.Add(4*time.Minute))
	expectData(t, mustQuery(t, e2, `SELECT count(*) FROM arch`), "4")
	expectData(t, mustQuery(t, e2, `SELECT n, stime FROM arch ORDER BY stime DESC LIMIT 1`),
		"1|2009-01-04 00:04:00.000000")
}

func TestCheckpointAndWALTruncate(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	for i := 0; i < 50; i++ {
		mustExec(t, e, `INSERT INTO t VALUES (1)`)
	}
	mustExec(t, e, `DELETE FROM t WHERE a = 1`)
	mustExec(t, e, `INSERT INTO t VALUES (42)`)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// The WAL now holds the checkpoint's generation and nothing else; more
	// writes follow the checkpoint.
	var left []wal.Record
	err := wal.Replay(filepath.Join(dir, "wal.log"), func(recs []wal.Record) error {
		left = append(left, recs...)
		return nil
	})
	if err != nil || len(left) != 1 || left[0].Kind != wal.RecMark || left[0].SQL != "" || left[0].RowID != 1 {
		t.Fatalf("wal after checkpoint: %v, %v", left, err)
	}
	mustExec(t, e, `INSERT INTO t VALUES (43)`)
	mustExec(t, e, `DELETE FROM t WHERE a = 42`)
	e.Close()

	e2 := openDir(t, dir)
	defer e2.Close()
	expectData(t, mustQuery(t, e2, `SELECT a FROM t ORDER BY a`), "43")
}

func TestCheckpointWithIndexes(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	mustExec(t, e, `CREATE INDEX ix ON t (a)`)
	for i := 0; i < 20; i++ {
		mustExec(t, e, `INSERT INTO t VALUES (7)`)
	}
	mustExec(t, e, `DELETE FROM t WHERE a = 7`)
	mustExec(t, e, `INSERT INTO t VALUES (9)`)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint rowids must align for replayed deletes.
	mustExec(t, e, `DELETE FROM t WHERE a = 9`)
	mustExec(t, e, `INSERT INTO t VALUES (11)`)
	e.Close()

	e2 := openDir(t, dir)
	defer e2.Close()
	expectData(t, mustQuery(t, e2, `SELECT a FROM t WHERE a >= 0 ORDER BY a`), "11")
}

// TestTornWALTailIgnored simulates a crash mid-commit: the torn trailing
// batch is discarded and everything before it survives.
func TestTornWALTailIgnored(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	mustExec(t, e, `INSERT INTO t VALUES (1)`)
	mustExec(t, e, `INSERT INTO t VALUES (2)`)
	e.Close()

	walPath := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := openDir(t, dir)
	defer e2.Close()
	expectData(t, mustQuery(t, e2, `SELECT a FROM t`), "1")
}

func TestFreshDirIsEmpty(t *testing.T) {
	e := openDir(t, t.TempDir())
	defer e.Close()
	expectData(t, mustExec(t, e, `SHOW TABLES`).Rows)
}

// copyDataDir copies an engine's checkpoint and log as they stand — what a
// crash at this instant would leave — into a new directory.
func copyDataDir(t *testing.T, dir string) string {
	t.Helper()
	image := t.TempDir()
	for _, name := range []string{"checkpoint", "wal.log"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return image
}

// TestCheckpointUnderWorkers: a checkpoint may fall anywhere. Two derived
// streams fire into an APPEND and a REPLACE channel — on pool workers at
// ParallelCQ 4, whose commits hold no engine lock, on the appender at 0 —
// while 400-row batches arrive and one Checkpoint() is taken mid-run. Every
// window committed is then in the checkpoint file or in the log behind it,
// never in neither (the cut holds the commit gate), and the REPLACE channel's
// transaction that straddles the cut deletes the RowIDs it read (no RowID
// moves): no CQ fails, and an engine recovered from a copy of checkpoint +
// wal.log holds every table's (RowID, row) transcript and next RowID, and
// finds through the index what a scan finds.
func TestCheckpointUnderWorkers(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		t.Run(fmt.Sprintf("ParallelCQ=%d", parallel), func(t *testing.T) {
			for round := 0; round < 3; round++ {
				checkpointUnderWorkers(t, parallel, 20+10*round)
			}
		})
	}
}

func checkpointUnderWorkers(t *testing.T, parallel, checkpointAt int) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, ParallelCQ: parallel})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ExecScript(`
		CREATE STREAM s (k bigint, v bigint, at timestamp CQTIME USER);
		CREATE STREAM agg AS SELECT k, count(*) AS n, sum(v) AS total, cq_close(*) AS w
			FROM s <ADVANCE '1 second'> GROUP BY k;
		CREATE TABLE agg_t (k bigint, n bigint, total bigint, w timestamp);
		CREATE INDEX agg_k ON agg_t (k);
		CREATE CHANNEL agg_ch FROM agg INTO agg_t APPEND;
		CREATE STREAM latest AS SELECT k, count(*) AS n, cq_close(*) AS w
			FROM s <VISIBLE '3 seconds' ADVANCE '1 second'> GROUP BY k;
		CREATE TABLE latest_t (k bigint, n bigint, w timestamp);
		CREATE INDEX latest_k ON latest_t (k);
		CREATE CHANNEL latest_ch FROM latest INTO latest_t REPLACE;`); err != nil {
		t.Fatal(err)
	}
	// A batch spans four seconds: each append closes windows of both streams.
	const batches, batchRows, keys = 60, 400, 16
	base := MustTimestamp("2009-01-04 00:00:00")
	for b := 0; b < batches; b++ {
		rows := make([]Row, batchRows)
		for i := range rows {
			seq := b*batchRows + i
			rows[i] = Row{Int(int64(seq % keys)), Int(int64(seq % 97)), Timestamp(base.Add(time.Duration(seq) * 10 * time.Millisecond))}
		}
		if err := e.Append("s", rows...); err != nil {
			t.Fatal(err)
		}
		if b == checkpointAt {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// To the last row's window and no further: REPLACE keeps the newest window.
	if err := e.AdvanceTime("s", base.Add(batches*batchRows*10*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatalf("a CQ failed: %v", err)
	}

	recovered, err := Open(Config{Dir: copyDataDir(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for _, table := range []string{"agg_t", "latest_t"} {
		live, got := heapTranscript(e, table), heapTranscript(recovered, table)
		if strings.Count(live, "\n") < keys {
			t.Fatalf("%s holds only\n%s", table, live)
		}
		if got != live {
			t.Fatalf("%s recovered with %d lines, live %d:\n%s\nlive:\n%s", table,
				strings.Count(got, "\n"), strings.Count(live, "\n"), got, live)
		}
		for _, eng := range []*Engine{e, recovered} {
			byIndex := mustQuery(t, eng, `SELECT k, n, w FROM `+table+` WHERE k = 3 ORDER BY w`)
			byScan := mustQuery(t, eng, `SELECT k, n, w FROM `+table+` WHERE k + 0 = 3 ORDER BY w`)
			if len(byIndex.Data) == 0 || fmt.Sprint(byIndex.Data) != fmt.Sprint(byScan.Data) {
				t.Fatalf("%s WHERE k = 3 through the index:\n%v\nby scan:\n%v", table, byIndex.Data, byScan.Data)
			}
		}
	}
}

// TestCrashInsideCheckpoint: a checkpoint replaces the file and then restarts
// the log, and a crash may fall between any two of its steps. The image after
// the rename and before the truncation is the new checkpoint beside the log it
// was taken over — a CREATE TABLE, an index, inserts and a delete, all in the
// file already, and the statement cannot run twice; the image after the
// truncation and before the stamp is the new checkpoint beside an empty log.
// Both open, hold the live (RowID, row) transcript, and what they then commit
// is in a log of the checkpoint's generation: it survives the next restart.
// The first checkpoint is taken over a log with no generation, the second
// over one stamped by the first.
func TestCrashInsideCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := openDir(t, dir)
	defer e.Close()
	for round := 1; round <= 2; round++ {
		mustExec(t, e, fmt.Sprintf(`CREATE TABLE t%d (a bigint)`, round))
		mustExec(t, e, fmt.Sprintf(`CREATE INDEX ix%d ON t%d (a)`, round, round))
		mustExec(t, e, fmt.Sprintf(`INSERT INTO t%d VALUES (1), (2), (3)`, round))
		mustExec(t, e, `DELETE FROM t1 WHERE a = 2`)
		oldLog, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for window, log := range map[string][]byte{"rename, then the crash": oldLog, "truncation, then the crash": nil} {
			image := copyDataDir(t, dir)
			if err := os.WriteFile(filepath.Join(image, "wal.log"), log, 0o644); err != nil {
				t.Fatal(err)
			}
			want := ""
			for restart := 0; restart < 2; restart++ {
				r, err := Open(Config{Dir: image})
				if err != nil {
					t.Fatalf("round %d, %s, restart %d: %v", round, window, restart, err)
				}
				for n := 1; n <= round && restart == 0; n++ {
					table := fmt.Sprintf("t%d", n)
					if got, live := heapTranscript(r, table), heapTranscript(e, table); got != live {
						t.Fatalf("round %d, %s: %s recovered as\n%slive\n%s", round, window, table, got, live)
					}
				}
				if restart == 0 {
					mustExec(t, r, `INSERT INTO t1 VALUES (9)`)
					want = heapTranscript(r, "t1")
				} else if got := heapTranscript(r, "t1"); got != want {
					t.Fatalf("round %d, %s: after another restart t1 is\n%swas\n%s", round, window, got, want)
				}
				expectData(t, mustQuery(t, r, `SELECT count(*) FROM t1 WHERE a = 9`), "1")
				r.Close()
			}
		}
	}
}

// TestRecoverFilesWrittenByParent: data directories earlier commits left
// recover to the rows, RowIDs, next RowIDs and index their own builds
// recovered. The first is from before RowIDs stood still — a checkpoint taken
// after deleting rows, so with the RowIDs that build's Vacuum renumbered them
// to and neither a table's next RowID nor a mark, and a log written behind it
// (an insert, a delete by compacted RowID, DDL). The second is from 2bf6392,
// the last commit to log an insert a row at a time: a generation stamp, a
// checkpoint of per-row batches closed by the tables' next RowIDs, with the
// gaps an aborted BulkInsert and a REPLACE channel's deletes left, and behind
// it a log of inserts, an UPDATE, an archived batch and a REPLACE delta (the
// RowIDs a last aborted BulkInsert took are in neither, as ever).
func TestRecoverFilesWrittenByParent(t *testing.T) {
	for _, parent := range []struct {
		files map[string]string
		want  map[string]string
	}{
		{files: map[string]string{
			"checkpoint": "535257414c4602004200000032325289020124435245415445205441424c45207420286120626967696e742c2062207661726368617229011943524541544520494e44455820745f61204f4e2074202861293a0000001d4b200005020174000203060502723302017401020308050272340201740202030c050272360201740302030e050272370201740402030a050466697665",
			"wal.log":    "535257414c4602000c000000f1b7cbc201020174050203100502723805000000109761d401030174011c00000012008cfb010119435245415445205441424c45207520287820626967696e74290f000000873ee193020201750001030202017501010304",
			"repl.state": "7b2272756e223a2266663230633330306333333666313038222c226c736e223a31317d", // what its replica kept beside them; nothing reads it
		}, want: map[string]string{
			"t": "0 3|r3\n2 6|r6\n3 7|r7\n4 5|five\n5 8|r8\nnext 6\n",
			"u": "0 1\n1 2\nnext 2\n",
		}},
		{files: map[string]string{
			"checkpoint": "535257414c46020004000000044a34e801050001c4010000743a989a080124435245415445205441424c45207420286120626967696e742c2062207661726368617229011943524541544520494e44455820745f61204f4e20742028612901344352454154452053545245414d207320286b20626967696e742c2061742074696d657374616d7020435154494d45205553455229017c4352454154452053545245414d206c61746573742041532053454c454354206b2c20636f756e74282a29204153206e2c2063715f636c6f7365282a2920415320772046524f4d2073203c56495349424c45202732207365636f6e64732720414456414e4345202731207365636f6e64273e2047524f5550204259206b0137435245415445205441424c45206c61746573745f7420286b20626967696e742c206e20626967696e742c20772074696d657374616d7029013a435245415445204348414e4e454c206c61746573745f63682046524f4d206c617465737420494e544f206c61746573745f74205245504c4143450129435245415445205441424c452072617720286b20626967696e742c2061742074696d657374616d7029012c435245415445204348414e4e454c207261775f63682046524f4d207320494e544f2072617720415050454e4433000000b42f12920202086c61746573745f74020303020304068092acb19be7af0402086c61746573745f74030303040302068092acb19be7af04490000008d1b5c340402037261770002030206c09ac4af9be7af040203726177010203040680b5d0af9be7af0402037261770202030206c0a3beb09be7af0402037261770302030406c0acb8b19be7af0424000000a359d85503020174000203020502723102017402020306050272330201740402030a050466697665160000000f476a310304086c61746573745f740404037261770404017405",
			"wal.log":    "535257414c46020004000000044a34e8010500010d00000019bc6e28010201740502030c0503736978110000009fec53be02030174000201740602030205036f6e6525000000fe947cfe0202037261770402030606c0b5b2b29be7af040203726177050203060680d0beb29be7af04490000001703a32b0403086c61746573745f740203086c61746573745f740302086c61746573745f7404030302030206809ba6b29be7af0402086c61746573745f7405030304030206809ba6b29be7af04",
		}, want: map[string]string{
			"t":        "2 3|r3\n4 5|five\n5 6|six\n6 1|one\nnext 7\n",
			"latest_t": "4 1|1|2009-01-04 00:00:03.000000\n5 2|1|2009-01-04 00:00:03.000000\nnext 6\n",
			"raw": "0 1|2009-01-04 00:00:00.100000\n1 2|2009-01-04 00:00:00.200000\n2 1|2009-01-04 00:00:01.100000\n" +
				"3 2|2009-01-04 00:00:02.100000\n4 3|2009-01-04 00:00:03.100000\n5 3|2009-01-04 00:00:03.200000\nnext 6\n",
		}},
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
		e, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for table, want := range parent.want {
			if got := heapTranscript(e, table); got != want {
				t.Fatalf("%s recovered as\n%swant\n%s", table, got, want)
			}
		}
		expectData(t, mustQuery(t, e, `SELECT b FROM t WHERE a = 5`), "five")
		if run, lsn := e.ReplicaMark(); run != "" || lsn != 0 {
			t.Fatalf("recovered a resume point (%q, %d) from files that hold none", run, lsn)
		}
		// The next checkpoint writes the same state a run to a record, and that
		// recovers the same.
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		e.Close()
		if e, err = Open(Config{Dir: dir}); err != nil {
			t.Fatal(err)
		}
		for table, want := range parent.want {
			if got := heapTranscript(e, table); got != want {
				t.Fatalf("after this build's checkpoint %s recovered as\n%swant\n%s", table, got, want)
			}
		}
		e.Close()
	}
}
