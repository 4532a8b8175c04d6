package streamrel

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"streamrel/internal/storage"
	"streamrel/internal/stream"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// hitRows builds n rows of wire_durable's shape: (url, atime, client_ip,
// bytes), timestamps increasing from base.
func hitRows(base time.Time, from, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{String(fmt.Sprintf("/products/item-%d", (from+i)%100)), Timestamp(base.Add(time.Duration(from+i) * time.Millisecond)),
			String("10.1.2.3"), Int(int64(512 + i))}
	}
	return rows
}

// appendAllocsPerRow opens an engine, runs ddl, and returns what appending
// pre-built 256-row batches of hits costs per row once warm.
func appendAllocsPerRow(t *testing.T, ddl string) (*Engine, [][]Row, float64) {
	t.Helper()
	e, err := Open(Config{TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.ExecScript(ddl); err != nil {
		t.Fatal(err)
	}
	const runs = 40
	base := MustTimestamp("2009-01-04 00:00:00")
	batches := make([][]Row, runs+3)
	for i := range batches {
		batches[i] = hitRows(base, i*allocBatch, allocBatch)
	}
	idx := 0
	push := func() {
		if err := e.Append("hits", batches[idx]...); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	push()
	push()
	return e, batches, testing.AllocsPerRun(runs, push) / allocBatch
}

// TestArchiveChannelAllocsAndOwnership: a row archived through a channel
// into a table of the stream's own types is copied into the table's own
// memory — the Active Table holds neither the row the stream delivered nor
// its strings — and the channel still costs a transaction per batch and
// nothing per row: the copy goes into the heap's segments, an allocation per
// segment.
func TestArchiveChannelAllocsAndOwnership(t *testing.T) {
	const stream = `CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar, bytes bigint);`
	_, _, plain := appendAllocsPerRow(t, stream)
	e, batches, archived := appendAllocsPerRow(t, stream+`
		CREATE TABLE archive (url varchar, atime timestamp, client_ip varchar, bytes bigint);
		CREATE CHANNEL archive_ch FROM hits INTO archive APPEND;`)
	t.Logf("append %.3f allocs/row, with the archive channel %.3f", plain, archived)
	if archived-plain > 0.1 {
		t.Fatalf("the archive channel adds %.3f allocs/row (%.3f over %.3f), want at most 0.1", archived-plain, archived, plain)
	}

	sent := map[*Value]bool{}
	urls := map[*byte]bool{}
	for _, b := range batches {
		for _, r := range b {
			sent[&r[0]] = true
			urls[unsafe.StringData(r[0].Str())] = true
		}
	}
	tbl, _ := e.cat.Table("archive")
	n := 0
	tbl.Heap.Scan(e.mgr.SnapshotNow(), func(_ storage.RowID, row types.Row) bool {
		n++
		if sent[&row[0]] || urls[unsafe.StringData(row[0].Str())] {
			t.Fatalf("heap row %v shares memory with the row the stream delivered", row)
		}
		return true
	})
	if n != len(batches)*allocBatch {
		t.Fatalf("archive holds %d rows, want %d", n, len(batches)*allocBatch)
	}
}

// TestArchiveCommitAllocs: what a primary pays to commit an as-delivered
// batch — the stream's one raw-archive channel, a log and a hub — is a few
// objects a batch whatever its size and, beyond the heap's own (16 B of stamps,
// its copy of the values and strings) and the one []types.Row the write set,
// the log's encoder and the hub's ring share (24), under 16 bytes a row: no
// record per row, no copy of the frame. An append with no channel pays the
// hub's ring a copy of the values and strings and a container instead, so
// the difference is about the stamps. Measured on the commit that wrote these
// bounds: 6.2–6.4 objects a batch at 256 and at 1 024 rows and 72–74 bytes a
// row, when the heap and the ring kept the delivered rows; 3.6–4.1 objects
// and 23 bytes a row since they copy them. Under -race, 7.4–7.9 objects, and
// the bytes are not held (race_test.go).
func TestArchiveCommitAllocs(t *testing.T) {
	const ddl = `CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar, bytes bigint);`
	measure := func(ddl string, batch int) (allocs, bytes float64) {
		e, err := Open(Config{Dir: t.TempDir(), Replicate: true, TraceSampleEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.ExecScript(ddl); err != nil {
			t.Fatal(err)
		}
		const runs = 64 // some 16 Ki versions at 256 rows a batch: four heap segments
		base := MustTimestamp("2009-01-04 00:00:00")
		batches := make([][]Row, runs+2)
		for i := range batches {
			batches[i] = hitRows(base, i*batch, batch)
		}
		push := func(i int) {
			if err := e.Append("hits", batches[i]...); err != nil {
				t.Fatal(err)
			}
		}
		push(0)
		push(1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 2; i < len(batches); i++ {
			push(i)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	const archive = ddl + `
		CREATE TABLE archive (url varchar, atime timestamp, client_ip varchar, bytes bigint);
		CREATE CHANNEL archive_ch FROM hits INTO archive APPEND;`
	plainAllocs, plainBytes := measure(ddl, allocBatch)
	allocs, bytes := measure(archive, allocBatch)
	allocs4, _ := measure(archive, 4*allocBatch)
	perRow := (bytes - plainBytes) / allocBatch
	t.Logf("commit of %d rows: %.1f allocations and %.0f bytes over the append's %.1f and %.0f: %.1f bytes a row; of %d rows: %.1f allocations",
		allocBatch, allocs-plainAllocs, bytes-plainBytes, plainAllocs, plainBytes, perRow, 4*allocBatch, allocs4-plainAllocs)
	if allocs-plainAllocs > 10 || allocs4 > allocs+2 {
		t.Fatalf("the commit allocates %.1f objects a %d-row batch and %.1f a %d-row one: want a constant, at most 10", allocs-plainAllocs, allocBatch, allocs4-plainAllocs, 4*allocBatch)
	}
	if perRow >= 40+24+16 && !racing {
		t.Fatalf("the commit allocates %.1f bytes a row, want under %d", perRow, 40+24+16)
	}
}

var racing bool // race_test.go

// TestDerivedChannelDetachesRows: a derived stream's emission is carved from
// the executor's row blocks, so — unlike a base stream's rows — what its
// channel stores is a copy that pins no block.
func TestDerivedChannelDetachesRows(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(`
		CREATE STREAM s (k varchar, v bigint, at timestamp CQTIME USER);
		CREATE STREAM per_k AS SELECT k, sum(v) AS total, cq_close(*) FROM s <ADVANCE '1 minute'> GROUP BY k;
		CREATE TABLE totals (k varchar, total bigint, stime timestamp);
		CREATE CHANNEL totals_ch FROM per_k INTO totals APPEND;`); err != nil {
		t.Fatal(err)
	}
	emitted := map[*Value]bool{}
	detach, err := e.rt.Tap("per_k", func(_ trace.Ctx, _ int64, rows []types.Row, _ *stream.Ingest) error {
		for _, r := range rows {
			emitted[&r[0]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	base := MustTimestamp("2009-01-04 00:00:00")
	for i := 0; i < 6; i++ {
		if err := e.Append("s", Row{String(fmt.Sprint("k", i%3)), Int(int64(i)), Timestamp(base.Add(time.Duration(i) * time.Second))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AdvanceTime("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	expectData(t, mustQuery(t, e, `SELECT k, total FROM totals ORDER BY k`), "k0|3", "k1|5", "k2|7")
	if len(emitted) != 3 {
		t.Fatalf("tapped %d emitted rows, want 3", len(emitted))
	}
	tbl, _ := e.cat.Table("totals")
	tbl.Heap.Scan(e.mgr.SnapshotNow(), func(_ storage.RowID, row types.Row) bool {
		if emitted[&row[0]] {
			t.Fatalf("heap row %v is the emitted row itself and pins the block it was carved from", row)
		}
		return true
	})
}

// TestChannelWriteAllocs: an APPEND channel copies a derived stream's
// emission into one block, and an index on one column keys each row by a view
// of it, so a write's allocations do not grow with the emission's rows but
// for the index tree's own node splits, about one in ten rows. A copy and a
// key per row would be two.
func TestChannelWriteAllocs(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(`
		CREATE STREAM s (k varchar, v bigint, at timestamp CQTIME USER);
		CREATE STREAM per_k AS SELECT k, sum(v) AS total, cq_close(*) FROM s <ADVANCE '1 minute'> GROUP BY k;
		CREATE TABLE totals (k varchar, total bigint, stime timestamp);
		CREATE INDEX totals_k ON totals (k);
		CREATE CHANNEL totals_ch FROM per_k INTO totals APPEND;`); err != nil {
		t.Fatal(err)
	}
	ch, _ := e.cat.Channel("totals_ch")
	closeAt := MustTimestamp("2009-01-04 00:01:00")
	perWrite := func(groups int) float64 {
		blk := types.NewRowBlock(groups, 3) // as a view carves its emission
		rows := make([]types.Row, groups)
		for i := range rows {
			rows[i] = blk.Row()
			rows[i][0], rows[i][1], rows[i][2] = String(fmt.Sprint("k", i)), Int(int64(i)), Timestamp(closeAt)
		}
		return testing.AllocsPerRun(20, func() {
			if err := e.channelWrite(trace.Ctx{}, ch, rows, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := perWrite(50), perWrite(400)
	t.Logf("a write of 50 rows: %.1f allocations, of 400: %.1f", few, many)
	if extra := (many - few) / 350; extra > 0.2 {
		t.Fatalf("a channel write allocates %.2f times more a row beyond 50 (%.1f at 50 rows, %.1f at 400), want at most 0.2", extra, few, many)
	}
}

// TestChannelCoercionCopiesOnCast: a stream does not cast what it is given
// (createChannel requires equal column types, but a BIGINT value can sit in
// a DOUBLE column), so the channel still casts — into a copy: the stream's
// own CQs and the caller's rows keep the value they had.
func TestChannelCoercionCopiesOnCast(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(`
		CREATE STREAM s (k varchar, v double, at timestamp CQTIME USER);
		CREATE TABLE arch (k varchar, v double, at timestamp);
		CREATE CHANNEL arch_ch FROM s INTO arch APPEND;`); err != nil {
		t.Fatal(err)
	}
	cq, err := e.Subscribe(`SELECT k, sum(v), count(*) FROM s <ADVANCE '1 minute'> GROUP BY k ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()
	base := MustTimestamp("2009-01-04 00:00:00")
	rows := []Row{
		{String("a"), Int(3), Timestamp(base.Add(time.Second))},
		{String("b"), Null, Timestamp(base.Add(2 * time.Second))},
		{String("a"), Int(4), Timestamp(base.Add(3 * time.Second))},
	}
	if err := e.Append("s", rows...); err != nil {
		t.Fatal(err)
	}
	if err := e.AdvanceTime("s", base.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a|3|2009-01-04 00:00:01.000000", "b|NULL|2009-01-04 00:00:02.000000", "a|4|2009-01-04 00:00:03.000000"} {
		if got := rows[i].String(); got != want || (i != 1 && rows[i][1].Type() != types.TypeInt) {
			t.Fatalf("appended row %d is now %s (%v), want %s", i, got, rows[i][1].Type(), want)
		}
	}
	var fired []string
	for _, b := range cq.Drain() {
		for _, r := range b.Rows {
			fired = append(fired, r.String())
		}
	}
	if fmt.Sprint(fired) != "[a|7|2 b|NULL|1]" {
		t.Fatalf("the stream's CQ fired %v", fired)
	}
	res := mustQuery(t, e, `SELECT k, v, v / 2 FROM arch ORDER BY at`)
	expectData(t, res, "a|3.0|1.5", "b|NULL|NULL", "a|4.0|2.0")
	for _, r := range res.Data {
		if !r[1].IsNull() && r[1].Type() != types.TypeFloat {
			t.Fatalf("archived %v as %v, want DOUBLE", r[1], r[1].Type())
		}
	}
}

// TestInsertCoercionResults: INSERT … VALUES and INSERT … SELECT store the
// same values whether or not a column needs a cast, and a failed cast
// stores nothing.
func TestInsertCoercionResults(t *testing.T) {
	e := openMem(t)
	if err := e.ExecScript(`
		CREATE TABLE src (id bigint, name varchar, score bigint);
		CREATE TABLE same (id bigint, name varchar, score bigint);
		CREATE TABLE wider (id double, name varchar, score double);
		INSERT INTO src VALUES (1, 'ann', 10), (2, 'bob', NULL), (3, NULL, 30);
		INSERT INTO same SELECT * FROM src;
		INSERT INTO wider SELECT * FROM src;
		INSERT INTO same (score, id) VALUES (7, 4);
		INSERT INTO wider (score, id) VALUES (7, 4);`); err != nil {
		t.Fatal(err)
	}
	expectData(t, mustQuery(t, e, `SELECT id, name, score FROM same ORDER BY id`), "1|ann|10", "2|bob|NULL", "3|NULL|30", "4|NULL|7")
	expectData(t, mustQuery(t, e, `SELECT id / 2, name, score / 4 FROM wider ORDER BY id`), "0.5|ann|2.5", "1.0|bob|NULL", "1.5|NULL|7.5", "2.0|NULL|1.75")
	// The source rows are as they were: the casts went into copies.
	expectData(t, mustQuery(t, e, `SELECT id / 2, score / 4 FROM src ORDER BY id`), "0|2", "1|NULL", "1|7")
	if _, err := e.Exec(`INSERT INTO same VALUES (5, 'eve', 'not a number')`); err == nil {
		t.Fatal("a string went into a BIGINT column")
	}
	expectData(t, mustQuery(t, e, `SELECT count(*) FROM same`), "4")
}
