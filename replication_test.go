package streamrel

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"streamrel/internal/repl"
	"streamrel/internal/storage"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// published returns what e's hub has published so far, as a follower that
// has seen nothing would receive it from the ring.
func published(t *testing.T, e *Engine) []*repl.Event {
	t.Helper()
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.hub.ServeConn(server, 0, e.hub.RunID())
	}()
	defer func() {
		client.Close()
		e.hub.PublishAdvance("_wake", 0) // the failed write ends ServeConn
		<-done
		server.Close()
	}()
	r := repl.NewReader(bufio.NewReader(client))
	var events []*repl.Event
	for last := e.hub.LSN(); ; {
		ev, err := r.ReadEvent()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != repl.KindResume {
			events = append(events, ev)
		}
		if ev.LSN >= last {
			return events
		}
	}
}

// kinds renders events as "kind/stream-or-table×rows".
func kinds(events []*repl.Event) string {
	var out []string
	for _, ev := range events {
		switch ev.Kind {
		case repl.KindAppend:
			out = append(out, fmt.Sprintf("append/%s×%d", ev.Stream, len(ev.Rows)))
		case repl.KindArchive:
			out = append(out, fmt.Sprintf("archive/%s>%s×%d", ev.Stream, ev.Table, len(ev.Rows)))
		case repl.KindWAL:
			if ev.Recs[0].Kind != wal.RecDDL {
				out = append(out, fmt.Sprintf("wal/%s×%d", ev.Recs[0].Table, wal.RowCount(ev.Recs)))
			}
		}
	}
	return strings.Join(out, " ")
}

// TestArchiveShipsOnceOrAsBefore: which events a base-stream batch becomes is
// decided by what the delivery looked like, batch by batch — one KindArchive
// when the stream's one channel stored the delivered rows; the append, then
// the channel's WAL batch, when a value had to be cast; the append alone when
// the channel's write failed (the batch still entered the stream) — and the
// counter says which and why.
func TestArchiveShipsOnceOrAsBefore(t *testing.T) {
	e, err := Open(Config{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ExecScript(`
		CREATE STREAM s (k bigint, v double, at timestamp CQTIME USER);
		CREATE TABLE arch (k bigint, v double, at timestamp);
		CREATE CHANNEL arch_ch FROM s INTO arch APPEND;`); err != nil {
		t.Fatal(err)
	}
	base := MustTimestamp("2009-01-04 00:00:00")
	at := func(i int) Value { return Timestamp(base.Add(time.Duration(i) * time.Second)) }
	from := e.hub.LSN()
	since := func() string {
		t.Helper()
		var evs []*repl.Event
		for _, ev := range published(t, e) {
			if ev.LSN > from {
				evs = append(evs, ev)
			}
		}
		from = e.hub.LSN()
		return kinds(evs)
	}

	asDelivered := []Row{{Int(1), Float(1.5), at(1)}, {Int(2), Null, at(2)}}
	if err := e.Append("s", asDelivered...); err != nil {
		t.Fatal(err)
	}
	if got := since(); got != "archive/s>arch×2" {
		t.Fatalf("a batch stored as delivered shipped as %q", got)
	}
	tbl, _ := e.cat.Table("arch")
	tbl.Heap.Scan(e.mgr.SnapshotNow(), func(rid storage.RowID, row types.Row) bool {
		if &row[0] == &asDelivered[rid][0] || !row.Equal(asDelivered[rid]) {
			t.Errorf("heap row %d is %v, want the table's own copy of %v", rid, row, asDelivered[rid])
		}
		return true
	})

	if err := e.Append("s", Row{Int(3), Int(7), at(3)}); err != nil { // a BIGINT in the DOUBLE column
		t.Fatal(err)
	}
	if got := since(); got != "append/s×1 wal/arch×1" {
		t.Fatalf("a batch that needed a cast shipped as %q", got)
	}
	if err := e.Append("s", Row{Int(4), String("seven"), at(4)}); err == nil {
		t.Fatal("a string went into a DOUBLE column")
	}
	if got := since(); got != "append/s×1" {
		t.Fatalf("a batch whose archive failed shipped as %q", got)
	}
	if err := e.Append("s", Row{Int(5), Float(2.5), at(5)}); err != nil {
		t.Fatal(err)
	}
	if got := since(); got != "archive/s>arch×1" {
		t.Fatalf("after the fallbacks, a batch stored as delivered shipped as %q", got)
	}

	mustExec(t, e, `CREATE TABLE arch2 (k bigint, v double, at timestamp)`)
	mustExec(t, e, `CREATE CHANNEL arch2_ch FROM s INTO arch2 APPEND`)
	from = e.hub.LSN()
	if err := e.Append("s", Row{Int(6), Float(3.5), at(6)}); err != nil {
		t.Fatal(err)
	}
	if got := since(); got != "append/s×1 wal/arch×1 wal/arch2×1" {
		t.Fatalf("a batch two channels archive shipped as %q", got)
	}
	got := map[string]float64{}
	for _, s := range e.Metrics().Gather() {
		if s.Name == "streamrel_repl_unfused_batches_total" {
			got[s.ID()] = s.Value
		}
	}
	for reason, want := range map[string]float64{"cast": 1, "commit_failed": 1, "second_channel": 2} {
		if id := `streamrel_repl_unfused_batches_total{reason="` + reason + `"}`; got[id] != want {
			t.Errorf("%s = %v, want %v (all: %v)", id, got[id], want, got)
		}
	}
}

// heapTranscript renders a table's visible rows under their RowIDs.
func heapTranscript(e *Engine, table string) string {
	var b strings.Builder
	t, _ := e.cat.Table(table)
	t.Heap.Scan(e.mgr.SnapshotNow(), func(rid storage.RowID, row types.Row) bool {
		fmt.Fprintf(&b, "%d %s\n", rid, row)
		return true
	})
	fmt.Fprintf(&b, "next %d\n", t.Heap.NextID())
	return b.String()
}

// TestReplicatedArchiveRedoIsIdempotent: the table half of a KindArchive
// event lands at the primary's RowIDs, gaps included, and applying the event
// again — at once, or after the follower crashed and recovered its tables
// from its own log — leaves the table as it was. An event whose runs disagree
// with its rows is refused whole.
func TestReplicatedArchiveRedoIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	open := func() *Engine {
		e, err := Open(Config{Dir: dir, Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		e.BeginReplica()
		return e
	}
	e := open()
	for _, ddl := range []string{
		`CREATE STREAM s (k bigint, at timestamp CQTIME USER)`,
		`CREATE TABLE raw (k bigint, at timestamp)`,
		`CREATE CHANNEL c FROM s INTO raw APPEND`,
	} {
		if err := e.ApplyReplicated([]wal.Record{{Kind: wal.RecDDL, SQL: ddl}}); err != nil {
			t.Fatal(err)
		}
	}
	base := MustTimestamp("2009-01-04 00:00:00")
	rows := make([]Row, 5)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Timestamp(base.Add(time.Duration(i) * time.Second))}
	}
	runs := []wal.RowIDRun{{First: 2, N: 3}, {First: 9, N: 2}}
	if err := e.ApplyReplicatedArchive("s", "raw", rows, runs, 0); err != nil {
		t.Fatal(err)
	}
	want := heapTranscript(e, "raw")
	if !strings.HasPrefix(want, "2 0|") || !strings.Contains(want, "\n10 4|") || !strings.HasSuffix(want, "next 11\n") {
		t.Fatalf("rows did not land at the primary's RowIDs:\n%s", want)
	}
	// This engine's own hub passes the batch on as the one event it was.
	if got := kinds(published(t, e)); got != "archive/s>raw×5" {
		t.Fatalf("the follower republished %q", got)
	}

	if err := e.ApplyReplicatedArchive("s", "raw", rows, runs, 0); err != nil {
		t.Fatal(err)
	}
	if got := heapTranscript(e, "raw"); got != want {
		t.Fatalf("after an immediate redo:\n%swant:\n%s", got, want)
	}
	// Nothing was new, so nothing is archived again downstream: the rows did
	// enter the stream a second time, and that is all that is passed on.
	if got := kinds(published(t, e)); got != "archive/s>raw×5 append/s×5" {
		t.Fatalf("the follower republished %q", got)
	}
	for _, bad := range [][]wal.RowIDRun{{{First: 2, N: 4}}, {{First: 2, N: 3}, {First: 9, N: 3}}, nil} {
		if err := e.ApplyReplicatedArchive("s", "raw", rows, bad, 0); err == nil {
			t.Fatalf("runs %v applied to %d rows", bad, len(rows))
		}
	}
	if got := heapTranscript(e, "raw"); got != want {
		t.Fatalf("after refused events:\n%swant:\n%s", got, want)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e = open()
	defer e.Close()
	if got := heapTranscript(e, "raw"); got != want {
		t.Fatalf("recovered from the follower's own log:\n%swant:\n%s", got, want)
	}
	if err := e.ApplyReplicatedArchive("s", "raw", rows, runs, 0); err != nil {
		t.Fatal(err)
	}
	if got := heapTranscript(e, "raw"); got != want {
		t.Fatalf("after the crash redo:\n%swant:\n%s", got, want)
	}
}

// TestReplicaArchiveApplyAllocs: reading a KindArchive frame through the
// Reader a replica keeps and applying it costs a follower a per-event constant
// whatever its rows — the decoded batch (container, values, strings), the
// event, its runs and the apply's own: the one batch serves the stream, the
// heap copies it into its segments (an object per segRows rows) and this
// engine's own ring takes the container, pointed at the copies, and no
// wal.Record is decoded, so no row is decoded a second time.
func TestReplicaArchiveApplyAllocs(t *testing.T) {
	// A collection cycle that starts inside an apply counts the runtime's own
	// objects: the pin is on what the apply allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perEvent := func(rows int) float64 {
		e, err := Open(Config{Replicate: true, TraceSampleEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.ExecScript(`
			CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar, bytes bigint);
			CREATE TABLE archive (url varchar, atime timestamp, client_ip varchar, bytes bigint);
			CREATE CHANNEL archive_ch FROM hits INTO archive APPEND;`); err != nil {
			t.Fatal(err)
		}
		e.BeginReplica()
		const runs, events = 40, 40 + 3
		base := MustTimestamp("2009-01-04 00:00:00")
		var frames []byte
		for i := 0; i < events; i++ {
			frames = repl.AppendFrame(frames, &repl.Event{Kind: repl.KindArchive, LSN: uint64(i + 1), Stream: "hits", Table: "archive",
				Rows: hitRows(base, i*rows, rows), Runs: []wal.RowIDRun{{First: uint64(i * rows), N: uint64(rows)}}})
		}
		r := repl.NewReader(bufio.NewReaderSize(bytes.NewReader(frames), 1<<20))
		apply := func() {
			ev, err := r.ReadEvent()
			if err != nil {
				t.Fatal(err)
			}
			if ev.Recs != nil {
				t.Fatal("an archive event decoded WAL records")
			}
			if err := e.ApplyReplicatedArchive(ev.Stream, ev.Table, ev.Rows, ev.Runs, ev.Trace); err != nil {
				t.Fatal(err)
			}
		}
		apply()
		apply()
		n := testing.AllocsPerRun(runs, apply)
		expectData(t, mustQuery(t, e, `SELECT count(*) FROM archive`), fmt.Sprint(events*rows))
		return n
	}
	small, large := perEvent(allocBatch), perEvent(4*allocBatch)
	t.Logf("read + apply: %.1f allocations per %d-row event, %.1f per %d-row event", small, allocBatch, large, 4*allocBatch)
	const perEventBudget = 12
	if !racing && (small > perEventBudget || large > small+0.5) {
		t.Fatalf("reading and applying an archive event allocates %.1f times at %d rows and %.1f at %d: want a constant, at most %d",
			small, allocBatch, large, 4*allocBatch, perEventBudget)
	}
}

// TestMarkMovesWithTheStatement: a follower's checkpoint may fall between its
// applying an event — a DDL statement, a WAL batch, an archived batch — and
// ApplyReplicatedAt's return. The file must then hold the event's mark with
// its effects: an engine recovered from it that resumed one event earlier
// would be sent CREATE TABLE again, and fail on it for ever — or the batch
// again, which is harmless only because row apply is idempotent.
func TestMarkMovesWithTheStatement(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.BeginReplica()
	lsn := uint64(3)
	at := func(apply func() error, then func() error) {
		t.Helper()
		lsn++
		err := e.ApplyReplicatedAt("run", lsn, func() error {
			if err := apply(); err != nil {
				return err
			}
			return then()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ddl := func(sql string) func() error {
		return func() error { return e.ApplyReplicated([]wal.Record{{Kind: wal.RecDDL, SQL: sql}}) }
	}
	nothing := func() error { return nil }
	recovered := func(query, want string) {
		t.Helper()
		r, err := Open(Config{Dir: copyDataDir(t, dir)})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		expectData(t, mustQuery(t, r, query), want)
		if run, got := r.ReplicaMark(); run != "run" || got != lsn {
			t.Fatalf("recovered %s = %s and the resume point (%q, %d), want (\"run\", %d)", query, want, run, got, lsn)
		}
	}
	at(ddl(`CREATE TABLE a (x bigint)`), nothing)
	at(ddl(`CREATE TABLE b (y bigint)`), e.Checkpoint)
	recovered(`SELECT count(*) FROM b`, "0")

	at(func() error {
		return e.ApplyReplicated([]wal.Record{{Kind: wal.RecRows, Table: "b", Runs: []wal.RowIDRun{{First: 0, N: 2}}, Rows: []Row{{Int(1)}, {Int(2)}}}})
	}, e.Checkpoint)
	recovered(`SELECT count(*) FROM b`, "2")

	at(ddl(`CREATE STREAM s (y bigint, at timestamp CQTIME USER)`), nothing)
	at(ddl(`CREATE TABLE raw (y bigint, at timestamp)`), nothing)
	at(ddl(`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`), nothing)
	at(func() error {
		return e.ApplyReplicatedArchive("s", "raw", []Row{{Int(7), Timestamp(MustTimestamp("2009-01-04 00:00:00"))}}, []wal.RowIDRun{{First: 4, N: 1}}, 0)
	}, e.Checkpoint)
	recovered(`SELECT y FROM raw`, "7")
}
