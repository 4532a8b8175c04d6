package repl

import (
	"bufio"
	"bytes"
	"math"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/storage"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

func testPrimary(t *testing.T, cfg Config) *Primary {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.PingEvery == 0 {
		cfg.PingEvery = time.Hour // keep pings out of deterministic reads
	}
	return NewPrimary(cfg)
}

// withRing shrinks a fresh primary's ring to n events, so that eviction
// shows after a handful of publishes.
func withRing(p *Primary, n int) *Primary {
	p.ring, p.ringSizes = make([]Event, n), make([]int, n)
	return p
}

// serve runs ServeConn in the background and returns the replica-side
// frame reader plus a cleanup joining the goroutine.
func serve(t *testing.T, p *Primary, fromLSN uint64, runID string) (*bufio.Reader, func()) {
	t.Helper()
	server, client := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ServeConn(server, fromLSN, runID)
		server.Close()
	}()
	return bufio.NewReader(client), func() {
		client.Close()
		// Wake the tail loop (pings are off in tests) so the failed write
		// ends ServeConn.
		p.PublishAdvance("_wake", 0)
		<-done
	}
}

func mustRead(t *testing.T, r *bufio.Reader) *Event {
	t.Helper()
	ev, err := ReadEvent(r)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestPrimaryIncrementalCatchup publishes events before a replica
// connects with a matching run ID; the replica must get a Resume frame,
// the ring backlog in order, then live events — with monotonic LSNs.
func TestPrimaryIncrementalCatchup(t *testing.T) {
	p := withRing(testPrimary(t, Config{}), 16)
	p.PublishAppend("s", []types.Row{{types.NewInt(1)}}, 0)
	p.PublishAdvance("s", 60)
	p.PublishTxn([]wal.Record{{Kind: wal.RecDDL, SQL: "CREATE TABLE t (a bigint)"}}, nil, nil, 0)

	r, cleanup := serve(t, p, 0, p.RunID())
	defer cleanup()

	if ev := mustRead(t, r); ev.Kind != KindResume || ev.Run != p.RunID() {
		t.Fatalf("want resume, got %+v", ev)
	}
	wantKinds := []Kind{KindAppend, KindAdvance, KindWAL}
	for i, k := range wantKinds {
		ev := mustRead(t, r)
		if ev.Kind != k || ev.LSN != uint64(i+1) {
			t.Fatalf("backlog %d: got kind %d lsn %d, want kind %d lsn %d", i, ev.Kind, ev.LSN, k, i+1)
		}
	}
	// Live tail.
	p.PublishAppend("s", []types.Row{{types.NewInt(2)}}, 0)
	if ev := mustRead(t, r); ev.Kind != KindAppend || ev.LSN != 4 {
		t.Fatalf("live event: %+v", ev)
	}
}

// TestPrimarySnapshotWhenStale connects a replica whose resume point the
// ring no longer covers; the primary must serve a full snapshot bounded
// by SnapBegin/SnapEnd, then live events from the boundary.
func TestPrimarySnapshotWhenStale(t *testing.T) {
	p := withRing(testPrimary(t, Config{}), 2)
	p.snapshot = func(atCut func(), emit func(Event) error) error {
		atCut()
		if err := emit(Event{Kind: KindWAL, Recs: []wal.Record{{Kind: wal.RecDDL, SQL: "CREATE TABLE t (a bigint)"}}}); err != nil {
			return err
		}
		return emit(Event{Kind: KindWAL, Recs: []wal.Record{{Kind: wal.RecNext, Table: "t", RowID: 3}}})
	}
	for i := 0; i < 5; i++ {
		p.PublishAppend("s", []types.Row{{types.NewInt(int64(i))}}, 0)
	}

	// Fresh replica (no run ID): snapshot path.
	r, cleanup := serve(t, p, 0, "")
	defer cleanup()
	if ev := mustRead(t, r); ev.Kind != KindSnapBegin || ev.Run != p.RunID() {
		t.Fatalf("want snapbegin, got %+v", ev)
	}
	if ev := mustRead(t, r); ev.Kind != KindWAL || ev.LSN != 0 {
		t.Fatalf("want snapshot WAL state frame, got %+v", ev)
	}
	if ev := mustRead(t, r); ev.Kind != KindWAL || len(ev.Recs) != 1 || ev.Recs[0].Kind != wal.RecNext ||
		ev.Recs[0].Table != "t" || ev.Recs[0].RowID != 3 {
		t.Fatalf("want the next RowID as a WAL state frame, got %+v", ev)
	}
	if ev := mustRead(t, r); ev.Kind != KindSnapEnd || ev.LSN != 5 {
		t.Fatalf("want snapend at boundary 5, got %+v", ev)
	}
	p.PublishAdvance("s", 99)
	if ev := mustRead(t, r); ev.Kind != KindAdvance || ev.LSN != 6 {
		t.Fatalf("live event after snapshot: %+v", ev)
	}
}

// TestPrimaryCatchupByBytes: the ring lets go of events by what they carry as
// well as by their number. Seventy events of an estimated mebibyte each leave
// a ring of 8192 slots holding fewer than maxRingBytes of them: a replica
// whose resume point went that way gets a snapshot, one still inside the ring
// catches up incrementally.
func TestPrimaryCatchupByBytes(t *testing.T) {
	p := testPrimary(t, Config{})
	p.snapshot = func(atCut func(), emit func(Event) error) error { atCut(); return nil }
	wide := types.Row{types.NewInt(1), types.NewString(string(make([]byte, 1<<20)))}
	const published = 70
	for i := 0; i < published; i++ {
		p.PublishAppend("s", []types.Row{wide}, 0)
	}
	p.mu.Lock()
	oldest, retained := p.oldestLocked(), p.retained
	p.mu.Unlock()
	if oldest <= 1 || oldest > published || retained > maxRingBytes || retained+rowSize(wide) <= maxRingBytes {
		t.Fatalf("ring starts at lsn %d and retains %d bytes (bound %d)", oldest, retained, maxRingBytes)
	}

	stale, cleanupStale := serve(t, p, oldest-2, p.RunID())
	defer cleanupStale()
	if ev := mustRead(t, stale); ev.Kind != KindSnapBegin {
		t.Fatalf("resume point %d evicted by bytes: want a snapshot, got %+v", oldest-2, ev)
	}

	inRange, cleanup := serve(t, p, published-2, p.RunID())
	defer cleanup()
	if ev := mustRead(t, inRange); ev.Kind != KindResume {
		t.Fatalf("resume point %d is in the ring: want resume, got %+v", published-2, ev)
	}
	for lsn := uint64(published - 1); lsn <= published; lsn++ {
		if ev := mustRead(t, inRange); ev.Kind != KindAppend || ev.LSN != lsn || len(ev.Rows) != 1 {
			t.Fatalf("backlog: kind %d lsn %d, want append %d", ev.Kind, ev.LSN, lsn)
		}
	}
}

// TestPrimaryRunMismatchForcesSnapshot: a matching LSN under a stale run
// ID must not resume incrementally.
func TestPrimaryRunMismatchForcesSnapshot(t *testing.T) {
	p := withRing(testPrimary(t, Config{}), 16)
	p.snapshot = func(atCut func(), emit func(Event) error) error { atCut(); return nil }
	p.PublishAdvance("s", 1)

	r, cleanup := serve(t, p, 1, "someotherrun0000")
	defer cleanup()
	if ev := mustRead(t, r); ev.Kind != KindSnapBegin {
		t.Fatalf("want snapshot on run mismatch, got %+v", ev)
	}
}

// TestPausedFollowerKeepsItsCursor: a follower that stops reading while more
// events publish than a per-follower queue of 1 024 would hold, but fewer than
// the ring keeps, is not cut loose: once it reads again it gets every event
// once, in LSN order, after its one resume frame.
func TestPausedFollowerKeepsItsCursor(t *testing.T) {
	p := testPrimary(t, Config{})
	r, cleanup := serve(t, p, 0, p.RunID())
	defer cleanup()
	if ev := mustRead(t, r); ev.Kind != KindResume {
		t.Fatalf("want resume, got %+v", ev)
	}
	const published = 3000
	for i := 1; i <= published; i++ {
		p.PublishAdvance("s", int64(i))
	}
	for lsn := uint64(1); lsn <= published; lsn++ {
		if ev := mustRead(t, r); ev.Kind != KindAdvance || ev.LSN != lsn || ev.TS != int64(lsn) {
			t.Fatalf("event %d: kind %d lsn %d ts %d", lsn, ev.Kind, ev.LSN, ev.TS)
		}
	}
	if n := p.overflows.Value(); n != 0 {
		t.Fatalf("a follower paused inside the ring was dropped %d times", n)
	}
}

// TestFollowerBehindTheRingIsDropped: a follower that stops reading while the
// ring evicts the next event it needs is disconnected and counted; from the
// last event it got it reconnects to a snapshot.
func TestFollowerBehindTheRingIsDropped(t *testing.T) {
	const ring, published = 16, 100
	p := withRing(testPrimary(t, Config{}), ring)
	p.snapshot = func(atCut func(), emit func(Event) error) error { atCut(); return nil }
	r, cleanup := serve(t, p, 0, p.RunID())
	defer cleanup()
	if ev := mustRead(t, r); ev.Kind != KindResume {
		t.Fatalf("want resume, got %+v", ev)
	}
	p.PublishAdvance("s", 1)
	last := mustRead(t, r).LSN
	for i := 2; i <= published; i++ {
		p.PublishAdvance("s", int64(i))
	}
	for last < published {
		ev, err := ReadEvent(r)
		if err != nil {
			break // the primary hung up
		}
		if ev.Kind != KindAdvance || ev.LSN != last+1 {
			t.Fatalf("after lsn %d: kind %d lsn %d", last, ev.Kind, ev.LSN)
		}
		last = ev.LSN
	}
	if last > published-ring {
		t.Fatalf("the follower got as far as lsn %d, inside the ring", last)
	}
	if n := p.overflows.Value(); n != 1 {
		t.Fatalf("overflows %d, want 1", n)
	}

	again, cleanupAgain := serve(t, p, last, p.RunID())
	defer cleanupAgain()
	if ev := mustRead(t, again); ev.Kind != KindSnapBegin {
		t.Fatalf("reconnect from evicted lsn %d: want a snapshot, got %+v", last, ev)
	}
	if ev := mustRead(t, again); ev.Kind != KindSnapEnd || ev.LSN != published {
		t.Fatalf("want snapend at boundary %d, got %+v", published, ev)
	}
}

// TestTailAllocs: a follower reads the ring in place, so with one follower
// keeping up, a published heartbeat and its send cost under 0.05 allocations
// (what the runtime allocates on its own, amortized).
func TestTailAllocs(t *testing.T) {
	p := testPrimary(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	served := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		accepted <- conn
		served <- p.ServeConn(conn, 0, p.RunID())
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		b := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(b); err != nil {
				return
			}
		}
	}()
	serverConn := <-accepted
	defer func() {
		serverConn.Close()
		p.PublishAdvance("s", 0) // wake the tail into its failing write
		<-served
	}()

	// Rounds of 100, each sent before the next publishes: the follower keeps
	// up, and the ring never evicts what it has yet to send.
	publish := func(rounds int) {
		for ; rounds > 0; rounds-- {
			want := p.frames.Value() + 100
			for i := 0; i < 100; i++ {
				p.PublishAdvance("s", int64(i))
			}
			for p.frames.Value() < want {
				runtime.Gosched()
			}
		}
	}
	publish(10) // warm the frame buffer and the writer
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	publish(rounds)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / (rounds * 100); per >= 0.05 {
		t.Fatalf("%.3f allocations an event, want < 0.05", per)
	}
}

// TestChunkEnd covers the greedy event splitter: budget respected, at
// least one item per event, oversized singletons travel alone.
func TestChunkEnd(t *testing.T) {
	sizes := []int{4, 4, 4, 20, 1, 1}
	size := func(i int) int { return sizes[i] }
	var ends []int
	for start := 0; start < len(sizes); {
		end, _ := chunkEnd(start, len(sizes), 10, size)
		ends = append(ends, end)
		start = end
	}
	// [4 4] [4] [20] [1 1]: 4+4=8 fits, +4 would be 12; 20 alone; 1+1 fits.
	want := []int{2, 3, 4, 6}
	if len(ends) != len(want) {
		t.Fatalf("chunks %v, want %v", ends, want)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("chunks %v, want %v", ends, want)
		}
	}
}

// TestOversizedBatchSplitsAcrossEvents publishes one append batch and one
// WAL batch whose encodings exceed MaxEventBytes; each must arrive as
// several consecutive events that concatenate back to the original, so no
// frame can ever exceed the replica's frame-size limit (which would wedge
// replication in a permanent reconnect loop).
func TestOversizedBatchSplitsAcrossEvents(t *testing.T) {
	p := withRing(testPrimary(t, Config{}), 16)
	r, cleanup := serve(t, p, 0, p.RunID())
	defer cleanup()
	if ev := mustRead(t, r); ev.Kind != KindResume {
		t.Fatalf("want resume, got %+v", ev)
	}

	big := string(make([]byte, 13<<20)) // 3 rows à ~13MB: 2+1 per 32MB budget
	rows := []types.Row{
		{types.NewInt(1), types.NewString(big)},
		{types.NewInt(2), types.NewString(big)},
		{types.NewInt(3), types.NewString(big)},
	}
	p.PublishAppend("s", rows, 0)
	var gotRows int
	for lsn := uint64(1); lsn <= 2; lsn++ {
		ev := mustRead(t, r)
		if ev.Kind != KindAppend || ev.LSN != lsn || ev.Stream != "s" {
			t.Fatalf("append chunk: kind %d lsn %d", ev.Kind, ev.LSN)
		}
		for _, row := range ev.Rows {
			gotRows++
			if row[0].Int() != int64(gotRows) {
				t.Fatalf("row %d out of order", gotRows)
			}
		}
	}
	if gotRows != 3 {
		t.Fatalf("append rows after split: %d, want 3", gotRows)
	}

	recs := []wal.Record{
		{Kind: wal.RecInsert, Table: "t", RowID: 1, Row: rows[0]},
		{Kind: wal.RecInsert, Table: "t", RowID: 2, Row: rows[1]},
		{Kind: wal.RecInsert, Table: "t", RowID: 3, Row: rows[2]},
	}
	if err := p.PublishTxn(recs, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	var gotRecs int
	for lsn := uint64(3); lsn <= 4; lsn++ {
		ev := mustRead(t, r)
		if ev.Kind != KindWAL || ev.LSN != lsn {
			t.Fatalf("wal chunk: kind %d lsn %d", ev.Kind, ev.LSN)
		}
		for _, rec := range ev.Recs {
			gotRecs++
			if rec.RowID != uint64(gotRecs) {
				t.Fatalf("record %d out of order", gotRecs)
			}
		}
	}
	if gotRecs != 3 {
		t.Fatalf("wal records after split: %d, want 3", gotRecs)
	}
	if lsn := p.LSN(); lsn != 4 {
		t.Fatalf("lsn after splits: %d, want 4", lsn)
	}

	// Empty appends publish nothing (a zero-row event would be a no-op on
	// the replica anyway).
	p.PublishAppend("s", nil, 0)
	if lsn := p.LSN(); lsn != 4 {
		t.Fatalf("lsn after empty append: %d, want 4", lsn)
	}

	// An archived batch splits its rows and its RowID runs at the same place,
	// between two runs or inside one, and so does the insert-only WAL batch of
	// the same rows — after the delete that fitted beside nothing.
	lsn := uint64(5)
	for _, runs := range [][]wal.RowIDRun{{{First: 1, N: 2}, {First: 7, N: 1}}, {{First: 5, N: 3}}} {
		inside := wal.RowIDRun{First: runs[len(runs)-1].First + runs[len(runs)-1].N - 1, N: 1}
		want := []Event{{Rows: rows[:2], Runs: []wal.RowIDRun{{First: runs[0].First, N: 2}}}, {Rows: rows[2:], Runs: []wal.RowIDRun{inside}}}
		if err := p.PublishArchive("s", "t", runs, rows, spansOf(rows), nil, 0); err != nil {
			t.Fatal(err)
		}
		for i, want := range want {
			ev := mustRead(t, r)
			if ev.Kind != KindArchive || ev.LSN != lsn || ev.Stream != "s" || ev.Table != "t" ||
				!slices.Equal(ev.Runs, want.Runs) || !slices.EqualFunc(ev.Rows, want.Rows, types.Row.Equal) {
				t.Fatalf("archive chunk %d: kind %d lsn %d table %q runs %v, %d rows", i, ev.Kind, ev.LSN, ev.Table, ev.Runs, len(ev.Rows))
			}
			lsn++
		}
		set := []wal.Record{{Kind: wal.RecDelete, Table: "t", RowID: 0}, {Kind: wal.RecRows, Table: "t", Runs: runs, Rows: rows}}
		if err := p.PublishTxn(set, spansOf(rows), nil, 0); err != nil {
			t.Fatal(err)
		}
		if ev := mustRead(t, r); ev.Kind != KindWAL || ev.LSN != lsn || len(ev.Recs) != 1 || ev.Recs[0].Kind != wal.RecDelete {
			t.Fatalf("the delete ahead of an oversized insert: %+v", ev)
		}
		lsn++
		for i, want := range want {
			ev := mustRead(t, r)
			if ev.Kind != KindWAL || ev.LSN != lsn || len(ev.Recs) != 1 || ev.Recs[0].Kind != wal.RecRows || ev.Recs[0].Table != "t" ||
				!slices.Equal(ev.Recs[0].Runs, want.Runs) || !slices.EqualFunc(ev.Recs[0].Rows, want.Rows, types.Row.Equal) {
				t.Fatalf("insert chunk %d: %+v", i, ev)
			}
			lsn++
		}
		if !slices.Equal(set[1].Runs, runs) || len(set[1].Rows) != 3 {
			t.Fatalf("splitting rewrote the caller's write set: %+v", set[1])
		}
	}
}

// TestSnapshotSpooledBeforeNetworkWrites pins the locking contract of the
// snapshot path: the producer (which runs under the engine's exclusive
// lock) must return before any network write, so a replica that requests
// a snapshot and then stops reading can never freeze the engine. The
// producer emits more than the 64KB writer buffer into a pipe nobody
// reads — streaming inside the producer would block it forever.
func TestSnapshotSpooledBeforeNetworkWrites(t *testing.T) {
	p := withRing(testPrimary(t, Config{}), 2)
	released := make(chan struct{})
	p.snapshot = func(atCut func(), emit func(Event) error) error {
		defer close(released)
		atCut()
		row := types.Row{types.NewString(string(make([]byte, 32<<10)))}
		for i := 0; i < 8; i++ {
			if err := emit(Event{Kind: KindWAL, Recs: []wal.Record{
				{Kind: wal.RecInsert, Table: "t", RowID: uint64(i), Row: row},
			}}); err != nil {
				return err
			}
		}
		return nil
	}
	server, client := net.Pipe() // client side never reads
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ServeConn(server, 0, "")
		server.Close()
	}()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("snapshot producer still blocked: network transfer ran inside it")
	}
	client.Close() // sever the stuck transfer; ServeConn must return
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ServeConn did not return after the replica connection closed")
	}
}

// TestRingGauges: what the ring pins is visible as bytes — which must rise
// with each published batch, fall when eviction swaps a large event for a
// small one, count an archived batch's rows once, and stay under
// maxRingBytes however few events that is, the newest always kept.
func TestRingGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	p := withRing(testPrimary(t, Config{Metrics: reg}), 4)
	gauge := func(name string) float64 {
		for _, s := range reg.Gather() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("%s is not registered", name)
		return 0
	}
	big := types.Row{types.NewInt(1), types.NewString(string(make([]byte, 1000)))}
	var last float64
	for i := 1; i <= 4; i++ {
		if i%2 == 0 {
			p.PublishAppend("s", []types.Row{big, big}, 0)
		} else if err := p.PublishTxn([]wal.Record{{Kind: wal.RecInsert, Table: "t", RowID: uint64(i), Row: big}}, nil, nil, 0); err != nil {
			t.Fatal(err)
		}
		events, bytes := gauge("streamrel_repl_ring_events"), gauge("streamrel_repl_ring_bytes")
		if events != float64(i) || bytes < last+1000 {
			t.Fatalf("after %d events: ring_events %v, ring_bytes %v (was %v)", i, events, bytes, last)
		}
		last = bytes
	}
	if want := float64(2*recordSize(&wal.Record{Table: "t", Row: big}) + 4*rowSize(big)); last != want {
		t.Fatalf("full ring holds %v bytes, want %v", last, want)
	}
	// Heartbeats carry nothing: four of them evict everything.
	for i := 1; i <= 4; i++ {
		p.PublishAdvance("s", int64(i))
		events, bytes := gauge("streamrel_repl_ring_events"), gauge("streamrel_repl_ring_bytes")
		if events != 4 || bytes >= last {
			t.Fatalf("after %d evictions: ring_events %v, ring_bytes %v (was %v)", i, events, bytes, last)
		}
		last = bytes
	}
	if last != 0 {
		t.Fatalf("a ring of heartbeats holds %v bytes", last)
	}

	// One event stands for a batch's append and its archive: its rows count
	// once — and the same, but for the record's own few bytes, when the insert
	// travels as a WAL batch.
	runs := []wal.RowIDRun{{First: 1, N: 2}}
	if err := p.PublishArchive("s", "t", runs, []types.Row{big, big}, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if bytes := gauge("streamrel_repl_ring_bytes"); bytes != float64(2*rowSize(big)) {
		t.Fatalf("an archived batch of two rows counts %v bytes, want %v", bytes, 2*rowSize(big))
	}
	if err := p.PublishTxn([]wal.Record{{Kind: wal.RecRows, Table: "t", Runs: runs, Rows: []types.Row{big, big}}}, nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if bytes, overhead := gauge("streamrel_repl_ring_bytes"), recordSize(&wal.Record{Table: "t"}); bytes != float64(4*rowSize(big)+overhead) || overhead > 32 {
		t.Fatalf("with the same two rows as an insert-only WAL batch the ring counts %v bytes, want %v", bytes, 4*rowSize(big)+overhead)
	}

	// Bytes evict before the four slots do, down to the newest event alone.
	half := types.Row{types.NewString(string(make([]byte, maxRingBytes/2)))}
	p.PublishAppend("s", []types.Row{half}, 0)
	if events, bytes := gauge("streamrel_repl_ring_events"), gauge("streamrel_repl_ring_bytes"); events != 4 || bytes > maxRingBytes {
		t.Fatalf("one large event beside three small: ring_events %v, ring_bytes %v", events, bytes)
	}
	p.PublishAppend("s", []types.Row{half}, 0)
	if events, bytes := gauge("streamrel_repl_ring_events"), gauge("streamrel_repl_ring_bytes"); events != 1 || bytes != float64(rowSize(half)) {
		t.Fatalf("two events that cannot both fit: ring_events %v, ring_bytes %v, want the newest alone", events, bytes)
	}
	over := types.Row{types.NewString(string(make([]byte, maxRingBytes/2))), types.NewString(string(make([]byte, maxRingBytes/2)))}
	p.PublishAppend("s", []types.Row{over}, 0)
	if events, bytes := gauge("streamrel_repl_ring_events"), gauge("streamrel_repl_ring_bytes"); events != 1 || bytes <= maxRingBytes {
		t.Fatalf("an event beyond the bound: ring_events %v, ring_bytes %v, want it kept alone", events, bytes)
	}
	p.PublishAdvance("s", 9)
	if events, bytes := gauge("streamrel_repl_ring_events"), gauge("streamrel_repl_ring_bytes"); events != 1 || bytes != 0 {
		t.Fatalf("after the oversized event left: ring_events %v, ring_bytes %v", events, bytes)
	}
}

// TestRingKeepsItsOwnRunsAndRecords: a publisher's runs, WAL records, row
// containers and spans are its scratch (a transaction's write set, a channel's
// rows, a replica reader's event), reused for its next write once the publish
// returns. The ring holds copies of them, the spans included (their values are
// a heap's, never written again), so an event a follower has yet to read is
// sent as it was published, whatever the publisher wrote into its slices
// since: its frame decodes to the rows.
func TestRingKeepsItsOwnRunsAndRecords(t *testing.T) {
	p := testPrimary(t, Config{})
	rows, _ := archiveBatch(3)
	walRows := slices.Clone(rows)
	spans, walSpans := spansOf(rows), spansOf(rows)
	runs := []wal.RowIDRun{{First: 10, N: 2}, {First: 20, N: 1}}
	recs := []wal.Record{{Kind: wal.RecRows, Table: "archive", Runs: slices.Clone(runs), Rows: walRows}, {Kind: wal.RecDelete, Table: "archive", RowID: 4}}
	want := []Event{
		{Kind: KindArchive, Stream: "hits", Table: "archive", Runs: slices.Clone(runs), Rows: slices.Clone(rows)},
		{Kind: KindWAL, Recs: []wal.Record{{Kind: wal.RecRows, Table: "archive", Runs: slices.Clone(runs), Rows: slices.Clone(rows)}, {Kind: wal.RecDelete, Table: "archive", RowID: 4}}},
	}
	if err := p.PublishArchive("hits", "archive", runs, rows, spans, nil, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.PublishTxn(recs, walSpans, nil, 0); err != nil {
		t.Fatal(err)
	}
	runs[0], runs[1] = wal.RowIDRun{First: 99, N: 1}, wal.RowIDRun{First: 77, N: 2}
	recs[0].Runs[0] = wal.RowIDRun{First: 55, N: 3}
	other, _ := archiveBatch(6)
	copy(rows, other[3:])
	copy(walRows, other[3:])
	spans[0], walSpans[0] = spansOf(other[3:])[0], spansOf(other[3:])[0]
	recs[0], recs[1] = wal.Record{Kind: wal.RecNext, Table: "other"}, wal.Record{Kind: wal.RecDelete, Table: "other", RowID: 9}
	got, err := p.eventsAfter(make([]Event, 0, 4), 0, p.RunID())
	if err != nil || len(got) != len(want) {
		t.Fatalf("%d events in the ring, %v; want %d", len(got), err, len(want))
	}
	for i, w := range want {
		g, err := DecodeEvent(AppendFrame(nil, &got[i])[8:])
		if err != nil || g.Kind != w.Kind || g.Stream != w.Stream || g.Table != w.Table || !slices.Equal(g.Runs, w.Runs) || !slices.EqualFunc(g.Rows, w.Rows, types.Row.Equal) || len(g.Recs) != len(w.Recs) {
			t.Fatalf("event %d: %+v, %v; want %+v", i, g, err, w)
		}
		for j, wr := range w.Recs {
			if gr := g.Recs[j]; gr.Kind != wr.Kind || gr.Table != wr.Table || gr.RowID != wr.RowID || !slices.Equal(gr.Runs, wr.Runs) || !slices.EqualFunc(gr.Rows, wr.Rows, types.Row.Equal) {
				t.Fatalf("event %d record %d: %+v, want %+v", i, j, gr, wr)
			}
		}
	}
}

// TestRingMemoryBounded: the ring keeps an archived run's rows as spans of the
// heap's own chunks, one a chunk the run crosses, so what publishing allocates
// grows with the events — a block of runs and one of spans every 256 or so —
// and not with their rows: under a byte a row, where a header a row was 24.
// The frames the ring's events make are those of the rows as published.
func TestRingMemoryBounded(t *testing.T) {
	const events, rows = 256, 256
	var (
		p       *Primary
		batches [][]types.Row
		runs    [][]wal.RowIDRun
	)
	// round publishes every batch into a fresh ring and returns what that
	// allocated. The counts are the whole process's, so the test takes the
	// least of three rounds; the last round's ring is checked below.
	round := func() (allocs, perRow float64) {
		p = testPrimary(t, Config{})
		heap := storage.NewHeap("archive", types.Schema{{Name: "url", Type: types.TypeString},
			{Name: "atime", Type: types.TypeTimestamp}, {Name: "client_ip", Type: types.TypeString}, {Name: "bytes", Type: types.TypeInt}})
		var spans [][][]types.Datum
		batches, runs, spans = make([][]types.Row, events), make([][]wal.RowIDRun, events), make([][][]types.Datum, events)
		for i := range batches {
			batches[i], _ = archiveBatch(rows)
			first, err := heap.InsertRun(1, batches[i]) // points the batch at the heap's copies
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = []wal.RowIDRun{{First: uint64(first), N: rows}}
			spans[i] = heap.Spans(first, rows, nil)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range batches {
			if err := p.PublishArchive("hits", "archive", runs[i], batches[i], spans[i], nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc) / (events * rows)
	}
	allocs, perRow := math.Inf(1), math.Inf(1)
	for range 3 {
		a, b := round()
		allocs, perRow = min(allocs, a), min(perRow, b)
	}
	t.Logf("%d events of %d rows: %.0f allocations, %.2f B a row", events, rows, allocs, perRow)
	if allocs > 2*(events/256+1) || perRow >= 1 {
		t.Errorf("the ring allocates %.0f times and %.2f B a row for %d events of %d rows, want at most %d and under 1 B", allocs, perRow, events, rows, 2*(events/256+1))
	}

	got, err := p.eventsAfter(make([]Event, 0, events), 0, p.RunID())
	if err != nil || len(got) != events {
		t.Fatalf("%d events in the ring, %v; want %d", len(got), err, events)
	}
	for i := range got {
		want := Event{Kind: KindArchive, LSN: got[i].LSN, Wall: got[i].Wall, Stream: "hits", Table: "archive", Runs: runs[i], Rows: batches[i]}
		if frame := AppendFrame(nil, &got[i]); !bytes.Equal(frame, AppendFrame(nil, &want)) {
			t.Fatalf("event %d: the ring's frame differs from the published rows'", i)
		}
	}
}

// spansOf lays rows' values end to end in one span, as a heap's chunk holds a
// run of them.
func spansOf(rows []types.Row) [][]types.Datum {
	var span []types.Datum
	for _, row := range rows {
		span = append(span, row...)
	}
	return [][]types.Datum{span}
}
