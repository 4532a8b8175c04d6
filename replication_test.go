package streamrel

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"
	"weak"

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
			own := *ev // the reader's until its next read
			events = append(events, &own)
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

// TestRingServesVacuumedRows: the hub's ring keeps an archived batch's rows as
// spans of the heap's chunks, so a follower that resumes from before the batch
// receives its rows, value for value as published, after they were deleted
// and a checkpoint's vacuum freed their chunks: the ring alone keeps those,
// until it has evicted the event.
func TestRingServesVacuumedRows(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir(), Replicate: true, TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ExecScript(`CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar, bytes bigint);
		CREATE TABLE archive (url varchar, atime timestamp, client_ip varchar, bytes bigint);
		CREATE CHANNEL archive_ch FROM hits INTO archive APPEND;`); err != nil {
		t.Fatal(err)
	}
	base := MustTimestamp("2009-01-04 00:00:00")
	want := hitRows(base, 0, 300) // first-segment chunks of 1, 1, 2, … 256 rows
	if err := e.Append("hits", hitRows(base, 0, 300)...); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.cat.Table("archive")
	stored := func() (n int, last weak.Pointer[types.Datum]) {
		tbl.Heap.Scan(e.mgr.SnapshotNow(), func(_ storage.RowID, row types.Row) bool {
			n, last = n+1, weak.Make(&row[0])
			return true
		})
		return n, last
	}
	n, chunk := stored()
	if n != len(want) {
		t.Fatalf("the archive holds %d rows, want %d", n, len(want))
	}
	mustExec(t, e, "DELETE FROM archive")
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if n, _ := stored(); n != 0 || chunk.Value() == nil {
		t.Fatalf("after the delete and the checkpoint the archive holds %d rows and its last chunk is reachable: %v; want 0 and true", n, chunk.Value() != nil)
	}

	var archived *repl.Event
	for _, ev := range published(t, e) {
		if ev.Kind == repl.KindArchive {
			archived = ev
		}
	}
	if archived == nil || !slices.EqualFunc(archived.Rows, want, types.Row.Equal) {
		t.Fatalf("a follower resuming from before the batch receives %v, want its %d rows as published", archived, len(want))
	}
	archived = nil

	// Heartbeats evict the batch's event and every later one that carved into
	// the block its spans were copied into: nothing keeps the freed chunk any
	// more, the ring's block included.
	for i := range repl.DefaultRingSize {
		e.hub.PublishAdvance("_evict", int64(i))
	}
	runtime.GC()
	runtime.GC()
	if chunk.Value() != nil {
		t.Fatal("the vacuumed rows are still reachable once the ring evicted their event")
	}
}

// TestArchiveShipsOnceOrAsBefore: which events a base-stream batch becomes is
// decided by what the delivery looked like, batch by batch — one KindArchive
// when the stream's one channel stored the delivered rows, which it does also
// for a value the stream cast on append (a BIGINT handed to its DOUBLE
// column); nothing for a value the stream refuses; the append, then a WAL
// batch a channel, when the stream has two — and the counter says which and
// why.
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
	if got := since(); got != "archive/s>arch×1" {
		t.Fatalf("a batch the stream cast shipped as %q", got)
	}
	if err := e.Append("s", Row{Int(4), String("seven"), at(4)}); err == nil {
		t.Fatal("a string went into a DOUBLE column")
	}
	if got := since(); got != "" {
		t.Fatalf("a batch the stream refused shipped as %q", got)
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
	if got, want := unfused(e), map[string]float64{"commit_failed": 0, "second_channel": 2}; !maps.Equal(got, want) {
		t.Errorf("unfused batches by reason: %v, want %v", got, want)
	}
}

// unfused reads streamrel_repl_unfused_batches_total by reason.
func unfused(e *Engine) map[string]float64 {
	got := map[string]float64{}
	for _, s := range e.Metrics().Gather() {
		if s.Name == "streamrel_repl_unfused_batches_total" {
			got[strings.TrimSuffix(strings.TrimPrefix(s.ID(), s.Name+`{reason="`), `"}`)] = s.Value
		}
	}
	return got
}

// TestArchiveCommitFailedShipsTheAppend: a durable engine whose log write
// fails cannot commit its channel's write, so the batch ships as the stream's
// append alone, counted under commit_failed, and the table shows none of it.
func TestArchiveCommitFailedShipsTheAppend(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir(), Replicate: true})
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
	at := Timestamp(MustTimestamp("2009-01-04 00:00:00"))
	from := e.hub.LSN()
	if err := e.log.Close(); err != nil { // every later log write fails
		t.Fatal(err)
	}
	if err := e.Append("s", Row{Int(1), Float(1.5), at}); err == nil || !strings.Contains(err.Error(), "wal") {
		t.Fatalf("an append whose channel could not log its write: %v", err)
	}
	var evs []*repl.Event
	for _, ev := range published(t, e) {
		if ev.LSN > from {
			evs = append(evs, ev)
		}
	}
	if got := kinds(evs); got != "append/s×1" {
		t.Fatalf("a batch whose channel write failed shipped as %q", got)
	}
	if got, want := unfused(e), map[string]float64{"commit_failed": 1, "second_channel": 0}; !maps.Equal(got, want) {
		t.Fatalf("unfused batches by reason: %v, want %v", got, want)
	}
	if got := heapTranscript(e, "arch"); got != "next 1\n" { // the aborted insert took RowID 0
		t.Fatalf("the table holds %q after a write that failed", got)
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
		if _, err := e.ApplyEvent("", ddlEvent(0, ddl)); err != nil {
			t.Fatal(err)
		}
	}
	base := MustTimestamp("2009-01-04 00:00:00")
	rows := make([]Row, 5)
	for i := range rows {
		rows[i] = Row{Int(int64(i)), Timestamp(base.Add(time.Duration(i) * time.Second))}
	}
	runs := []wal.RowIDRun{{First: 2, N: 3}, {First: 9, N: 2}}
	archive := &repl.Event{Kind: repl.KindArchive, Stream: "s", Table: "raw", Rows: rows, Runs: runs}
	if _, err := e.ApplyEvent("", archive); err != nil {
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

	if _, err := e.ApplyEvent("", archive); err != nil {
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
	// An event partly new here: what is passed on inserts the new rows alone,
	// at their RowIDs and with their values.
	fresh := []Row{{Int(5), Timestamp(base.Add(5 * time.Second))}, {Int(6), Timestamp(base.Add(6 * time.Second))}}
	partly := &repl.Event{Kind: repl.KindArchive, Stream: "s", Table: "raw", Rows: append(slices.Clone(rows[3:]), fresh...), Runs: []wal.RowIDRun{{First: 9, N: 4}}}
	if _, err := e.ApplyEvent("", partly); err != nil {
		t.Fatal(err)
	}
	events := published(t, e)
	last := events[len(events)-1]
	if got := kinds(events); got != "archive/s>raw×5 append/s×5 append/s×4 wal/raw×2" ||
		!slices.Equal(last.Recs[0].Runs, []wal.RowIDRun{{First: 11, N: 2}}) || !slices.EqualFunc(last.Recs[0].Rows, fresh, types.Row.Equal) {
		t.Fatalf("the follower republished %q, its last insert %v %v; want %v at 11", got, last.Recs[0].Runs, last.Recs[0].Rows, fresh)
	}
	want = heapTranscript(e, "raw")
	for _, bad := range [][]wal.RowIDRun{{{First: 2, N: 4}}, {{First: 2, N: 3}, {First: 9, N: 3}}, nil} {
		if _, err := e.ApplyEvent("", &repl.Event{Kind: repl.KindArchive, Stream: "s", Table: "raw", Rows: rows, Runs: bad}); err == nil {
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
	if _, err := e.ApplyEvent("", archive); err != nil {
		t.Fatal(err)
	}
	if got := heapTranscript(e, "raw"); got != want {
		t.Fatalf("after the crash redo:\n%swant:\n%s", got, want)
	}
}

// TestReplicaArchiveApplyAllocs: reading a KindArchive frame through the
// Reader a replica keeps and applying it costs a follower a per-event constant
// whatever its rows — the decoded batch (container, values, strings), which
// this measure never recycles: the one batch serves the stream, the heap
// copies it into its segments (an object per segRows rows) and this engine's
// own ring keeps a span of the copies a run, in a block of 256, and no
// wal.Record is decoded, so no row is decoded a second time. The
// event, its runs and names are the Reader's, and the apply's transaction and
// write set the engine's, reused from event to event (10.0 allocations before).
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
			if _, err := e.ApplyEvent("run", ev); err != nil {
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
	const perEventBudget = 5
	if !racing && (small > perEventBudget || large > small+0.5) {
		t.Fatalf("reading and applying an archive event allocates %.1f times at %d rows and %.1f at %d: want a constant, at most %d",
			small, allocBatch, large, 4*allocBatch, perEventBudget)
	}
}

// TestMarkMovesWithTheStatement: a follower's checkpoint may fall right after
// it applied an event — a DDL statement, a WAL batch, an archived batch. The
// file must then hold the event's mark with its effects: an engine recovered
// from it that resumed one event earlier would be sent CREATE TABLE again, and
// fail on it for ever — or the batch again, which is harmless only because row
// apply is idempotent.
func TestMarkMovesWithTheStatement(t *testing.T) {
	dir := t.TempDir()
	e, err := Open(Config{Dir: dir, Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.BeginReplica()
	lsn := uint64(3)
	at := func(ev *repl.Event, then func() error) {
		t.Helper()
		lsn++
		ev.LSN = lsn
		if _, err := e.ApplyEvent("run", ev); err != nil {
			t.Fatal(err)
		}
		if err := then(); err != nil {
			t.Fatal(err)
		}
	}
	ddl := func(sql string) *repl.Event { return ddlEvent(0, sql) }
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

	at(&repl.Event{Kind: repl.KindWAL, Recs: []wal.Record{{Kind: wal.RecRows, Table: "b", Runs: []wal.RowIDRun{{First: 0, N: 2}}, Rows: []Row{{Int(1)}, {Int(2)}}}}},
		e.Checkpoint)
	recovered(`SELECT count(*) FROM b`, "2")

	at(ddl(`CREATE STREAM s (y bigint, at timestamp CQTIME USER)`), nothing)
	at(ddl(`CREATE TABLE raw (y bigint, at timestamp)`), nothing)
	at(ddl(`CREATE CHANNEL raw_ch FROM s INTO raw APPEND`), nothing)
	at(&repl.Event{Kind: repl.KindArchive, Stream: "s", Table: "raw",
		Rows: []Row{{Int(7), Timestamp(MustTimestamp("2009-01-04 00:00:00"))}}, Runs: []wal.RowIDRun{{First: 4, N: 1}}},
		e.Checkpoint)
	recovered(`SELECT y FROM raw`, "7")
}

// ddlEvent is a KindWAL event at lsn that runs one DDL statement.
func ddlEvent(lsn uint64, stmt string) *repl.Event {
	return &repl.Event{Kind: repl.KindWAL, LSN: lsn, Recs: []wal.Record{{Kind: wal.RecDDL, SQL: stmt}}}
}

// TestApplyEventMarks holds ApplyEvent to the mark rules, for every kind of
// event at LSN 0 and above: a write the event makes durable logs its mark in
// the same batch, so the mark survives a restart; a stream append or a
// heartbeat moves it in memory only; a snapshot's state frames (LSN 0) move
// it not at all; a ping or a resume applies nothing; a snapshot's begin drops
// it, durably. Each row's want is the LSN of run "r" the mark is at after the
// call and after Close and Open (0: no mark).
func TestApplyEventMarks(t *testing.T) {
	dir := t.TempDir()
	open := func() *Engine {
		e, err := Open(Config{Dir: dir, Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		e.BeginReplica()
		return e
	}
	at := MustTimestamp("2009-01-04 00:00:00")
	rows := func(k int64) []Row { return []Row{{Int(k), Timestamp(at)}} }
	insert := func(lsn uint64, table string, rid uint64) *repl.Event {
		return &repl.Event{Kind: repl.KindWAL, LSN: lsn, Recs: []wal.Record{
			{Kind: wal.RecRows, Table: table, Runs: []wal.RowIDRun{{First: rid, N: 1}}, Rows: rows(int64(rid))}}}
	}
	archive := func(lsn, rid uint64) *repl.Event {
		return &repl.Event{Kind: repl.KindArchive, LSN: lsn, Stream: "s", Table: "raw",
			Rows: rows(int64(rid)), Runs: []wal.RowIDRun{{First: rid, N: 1}}}
	}
	for _, c := range []struct {
		name          string
		ev            *repl.Event
		mem, restored uint64
	}{
		{"snapshot begin", &repl.Event{Kind: repl.KindSnapBegin, Run: "r"}, 0, 0},
		{"snapshot DDL", &repl.Event{Kind: repl.KindWAL, Recs: []wal.Record{
			{Kind: wal.RecDDL, SQL: `CREATE STREAM s (k bigint, at timestamp CQTIME USER)`},
			{Kind: wal.RecDDL, SQL: `CREATE TABLE t (k bigint, at timestamp)`}}}, 0, 0},
		{"snapshot rows", insert(0, "t", 0), 0, 0},
		{"snapshot end at 0", &repl.Event{Kind: repl.KindSnapEnd}, 0, 0},
		{"DDL", ddlEvent(5, `CREATE TABLE raw (k bigint, at timestamp)`), 5, 5},
		{"DDL at 0", ddlEvent(0, `CREATE CHANNEL raw_ch FROM s INTO raw APPEND`), 5, 5},
		{"rows", insert(6, "t", 1), 6, 6},
		{"rows at 0", insert(0, "t", 2), 6, 6},
		{"append", &repl.Event{Kind: repl.KindAppend, LSN: 7, Stream: "s", Rows: rows(1)}, 7, 6},
		{"append at 0", &repl.Event{Kind: repl.KindAppend, Stream: "s", Rows: rows(2)}, 6, 6},
		{"archive", archive(8, 0), 8, 8},
		{"archive at 0", archive(0, 1), 8, 8},
		{"advance", &repl.Event{Kind: repl.KindAdvance, LSN: 9, Stream: "s", TS: at.UnixMicro() + 1}, 9, 8},
		{"advance at 0", &repl.Event{Kind: repl.KindAdvance, Stream: "s", TS: at.UnixMicro() + 2}, 8, 8},
		{"snapshot end", &repl.Event{Kind: repl.KindSnapEnd, LSN: 10}, 10, 10},
		{"ping", &repl.Event{Kind: repl.KindPing, LSN: 50}, 10, 10},
		{"ping at 0", &repl.Event{Kind: repl.KindPing}, 10, 10},
		{"resume", &repl.Event{Kind: repl.KindResume, LSN: 10, Run: "r"}, 10, 10},
		{"resume at 0", &repl.Event{Kind: repl.KindResume, Run: "r"}, 10, 10},
		{"snapshot begin after a mark", &repl.Event{Kind: repl.KindSnapBegin, LSN: 11, Run: "r"}, 0, 0},
	} {
		e := open()
		if _, err := e.ApplyEvent("r", c.ev); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		check := func(when string, want uint64) {
			t.Helper()
			wantRun := "r"
			if want == 0 {
				wantRun = ""
			}
			if run, lsn := e.ReplicaMark(); run != wantRun || lsn != want {
				t.Fatalf("%s: %s the mark is (%q, %d), want (%q, %d)", c.name, when, run, lsn, wantRun, want)
			}
		}
		check("after the call", c.mem)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e = open()
		check("after a restart", c.restored)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestClosedEngineRefusesWrites: once Close has run, every write entry point
// — SQL DML and DDL, a script, Append, AdvanceTime, BulkInsert — returns
// ErrClosed and changes nothing, in memory and on disk alike: the hub's LSN
// stands and no table appears. And a replication stream the hub serves ends
// with the engine, rather than pinging it until the socket drops.
func TestClosedEngineRefusesWrites(t *testing.T) {
	for _, durable := range []bool{false, true} {
		cfg := Config{Replicate: true, TraceSampleEvery: -1}
		if durable {
			cfg.Dir = t.TempDir()
		}
		e, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, e, `CREATE TABLE t (a bigint)`)
		mustExec(t, e, `CREATE STREAM s (a bigint, at timestamp CQTIME USER)`)
		server, client := net.Pipe()
		defer client.Close()
		served := make(chan error, 1)
		go func() { served <- e.hub.ServeConn(server, 0, e.hub.RunID()) }()
		go io.Copy(io.Discard, client) // a replica reading what it is sent

		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		lsn, at := e.hub.LSN(), time.Date(2024, 1, 1, 0, 0, 1, 0, time.UTC)
		exec := func(sql string) func() error {
			return func() error { _, err := e.Exec(sql); return err }
		}
		for _, w := range []struct {
			what  string
			write func() error
		}{
			{"INSERT", exec(`INSERT INTO t VALUES (1)`)},
			{"UPDATE", exec(`UPDATE t SET a = 2`)},
			{"DELETE", exec(`DELETE FROM t`)},
			{"INSERT INTO a stream", exec(`INSERT INTO s VALUES (1, TIMESTAMP '2024-01-01 00:00:00')`)},
			{"CREATE TABLE", exec(`CREATE TABLE u (a bigint)`)},
			{"ExecScript", func() error { return e.ExecScript(`CREATE TABLE v (a bigint); INSERT INTO t VALUES (3)`) }},
			{"Append", func() error { return e.Append("s", Row{types.NewInt(1), types.NewTimestampMicros(at.UnixMicro())}) }},
			{"AdvanceTime", func() error { return e.AdvanceTime("s", at.Add(time.Second)) }},
			{"BulkInsert", func() error { return e.BulkInsert("t", []Row{{types.NewInt(4)}}) }},
		} {
			if err := w.write(); !errors.Is(err, ErrClosed) {
				t.Errorf("durable %v: %s after Close returned %v, want ErrClosed", durable, w.what, err)
			}
		}
		if got := e.hub.LSN(); got != lsn {
			t.Errorf("durable %v: the writes after Close moved the hub's LSN %d → %d", durable, lsn, got)
		}
		for _, name := range []string{"u", "v"} {
			if _, ok := e.cat.Table(name); ok {
				t.Errorf("durable %v: table %s exists after Close", durable, name)
			}
		}
		select {
		case err := <-served:
			if err == nil {
				t.Errorf("durable %v: ServeConn ended without an error", durable)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("durable %v: ServeConn still serves a closed engine", durable)
		}
		server.Close()
	}
}
