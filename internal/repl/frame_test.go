package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// ReadEvent reads one frame the way the tests below were written to: off a
// bare bufio.Reader (a Reader holds no stream state between frames).
func ReadEvent(r *bufio.Reader) (*Event, error) { return NewReader(r).ReadEvent() }

func sampleEvents() []Event {
	return []Event{
		{Kind: KindWAL, LSN: 1, Wall: 1111, Recs: []wal.Record{
			{Kind: wal.RecDDL, SQL: "CREATE TABLE t (a bigint)"},
			{Kind: wal.RecInsert, Table: "t", RowID: 4, Row: types.Row{types.NewInt(7), types.NewString("x")}},
			{Kind: wal.RecDelete, Table: "t", RowID: 2},
		}},
		{Kind: KindAppend, LSN: 2, Wall: 2222, Stream: "s", Rows: []types.Row{
			{types.NewInt(1), types.NewTimestampMicros(60_000_000)},
			{types.Null, types.NewFloat(1.5)},
		}},
		{Kind: KindAdvance, LSN: 3, Wall: 3333, Stream: "s", TS: 120_000_000},
		{Kind: KindSnapBegin, Wall: 1, Run: "cafebabe01020304"},
		{Kind: KindSnapEnd, LSN: 9, Wall: 2},
		{Kind: KindResume, LSN: 5, Wall: 3, Run: "cafebabe01020304"},
		{Kind: KindPing, LSN: 10, Wall: 99},
		{Kind: KindTableNext, Table: "t", Next: 17},
	}
}

// archiveEvents are the KindArchive samples, apart from sampleEvents because
// framesWrittenByParent is the parent's framing of exactly those: one run, and
// the two a table shared with another writer leaves.
func archiveEvents() []Event {
	return []Event{
		{Kind: KindArchive, LSN: 11, Wall: 5555, Trace: 9, Stream: "s", Table: "raw",
			Runs: []wal.RowIDRun{{First: 40, N: 2}},
			Rows: []types.Row{
				{types.NewInt(1), types.NewTimestampMicros(60_000_000)},
				{types.Null, types.NewString("x")},
			}},
		{Kind: KindArchive, LSN: 12, Wall: 6666, Stream: "s", Table: "raw",
			Runs: []wal.RowIDRun{{First: 0, N: 1}, {First: 7, N: 2}},
			Rows: []types.Row{{types.NewInt(1)}, {types.NewInt(2)}, {types.NewFloat(1.5)}}},
	}
}

// insertEvents are KindWAL events as an engine publishes them since inserts
// are one record a table: archiveEvents' first batch as the transaction that
// only inserted it, and a REPLACE channel's — deletes, then what is new.
func insertEvents() []Event {
	first := archiveEvents()[0]
	return []Event{
		{Kind: KindWAL, LSN: 13, Wall: 7777, Recs: []wal.Record{{Kind: wal.RecRows, Table: first.Table, Runs: first.Runs, Rows: first.Rows}}},
		{Kind: KindWAL, LSN: 14, Wall: 8888, Recs: []wal.Record{
			{Kind: wal.RecDelete, Table: "raw", RowID: 3},
			{Kind: wal.RecDelete, Table: "raw", RowID: 4},
			{Kind: wal.RecRows, Table: "raw", Runs: []wal.RowIDRun{{First: 42, N: 1}}, Rows: []types.Row{{types.NewInt(2)}}},
		}},
	}
}

// insertFrames is insertEvents as that record was introduced.
const insertFrames = "1c00000085833468010dc279000106037261770128020202030206809c9c3902010501781f0000003039209c010ef08a0100030303726177030303726177040603726177012a0101010304"

// TestInsertFrameGolden pins the insert-only KindWAL frame byte for byte: the
// header, a batch of one record, kind 6, and then the very bytes that follow
// the stream's name in the KindArchive frame of the same rows.
func TestInsertFrameGolden(t *testing.T) {
	golden, err := hex.DecodeString(insertFrames)
	if err != nil {
		t.Fatal(err)
	}
	events := insertEvents()
	var buf []byte
	r := NewReader(bufio.NewReader(bytes.NewReader(golden)))
	for i := range events {
		buf = AppendFrame(buf, &events[i])
		got, err := r.ReadEvent()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !sameEvent(*got, events[i]) {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, *got, events[i])
		}
	}
	if !bytes.Equal(buf, golden) {
		t.Fatalf("this build frames the events differently:\n%x", buf)
	}
	archive, insert := AppendFrame(nil, &archiveEvents()[0])[8:], AppendFrame(nil, &events[0])[8:]
	// Past kind, LSN, wall and trace: the archive's stream, the batch's count and kind.
	if body := archive[1+1+2+1+len("\x01s"):]; !bytes.Equal(insert[1+1+2+1:], append([]byte{1, byte(wal.RecRows)}, body...)) {
		t.Fatalf("the insert's body % x is not the archive's % x", insert, body)
	}
}

// archiveFrames is archiveEvents as this format was introduced.
const archiveFrames = "1c0000003d63afdf0a0be656090173037261770128020202030206809c9c39020105017822000000e925e7170a0c946800017303726177020001070203010302010304010480808080808080fc3f"

// TestArchiveFrameGolden pins the KindArchive encoding byte for byte: header,
// stream, table, run count, (first, length) per run, row count, rows.
func TestArchiveFrameGolden(t *testing.T) {
	golden, err := hex.DecodeString(archiveFrames)
	if err != nil {
		t.Fatal(err)
	}
	events := archiveEvents()
	var buf []byte
	r := NewReader(bufio.NewReader(bytes.NewReader(golden)))
	for i := range events {
		buf = AppendFrame(buf, &events[i])
		got, err := r.ReadEvent()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !sameEvent(*got, events[i]) {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, *got, events[i])
		}
	}
	if !bytes.Equal(buf, golden) {
		t.Fatalf("this build frames the events differently:\n%x", buf)
	}
}

// TestDecodeArchiveRunsMustCoverRows: runs that cover more or fewer rows than
// the frame carries, an empty run, one that wraps the RowID space and a run
// count the payload cannot hold are errors, never a panic — and a corrupt
// count earns no allocation (types.MaxPresize, as for rows).
func TestDecodeArchiveRunsMustCoverRows(t *testing.T) {
	body := func(runs []wal.RowIDRun, rows int) []byte {
		ev := Event{Kind: KindArchive, LSN: 1, Stream: "s", Table: "t", Runs: runs}
		for i := 0; i < rows; i++ {
			ev.Rows = append(ev.Rows, types.Row{types.NewInt(int64(i))})
		}
		return AppendFrame(nil, &ev)[8:]
	}
	if _, err := DecodeEvent(body([]wal.RowIDRun{{First: 3, N: 2}, {First: 9, N: 1}}, 3)); err != nil {
		t.Fatalf("runs that cover the rows: %v", err)
	}
	for name, payload := range map[string][]byte{
		"too few":   body([]wal.RowIDRun{{First: 3, N: 2}}, 3),
		"too many":  body([]wal.RowIDRun{{First: 3, N: 4}}, 3),
		"empty run": body([]wal.RowIDRun{{First: 3, N: 3}, {First: 9, N: 0}}, 3),
		"wraps":     body([]wal.RowIDRun{{First: math.MaxUint64 - 1, N: 3}}, 3),
		"no runs":   body(nil, 3),
	} {
		if ev, err := DecodeEvent(payload); err == nil {
			t.Errorf("%s: decoded %+v", name, ev)
		}
	}

	const size = 1 << 20
	payload := []byte{byte(KindArchive), 1, 2, 0, 1, 's', 1, 't'}
	payload = binary.AppendUvarint(payload, size) // run count
	for n := len(payload); len(payload) < n+size; {
		payload = append(payload, 0xFF)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeEvent(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame of runs with impossible counts decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= size/8 {
		t.Fatalf("refusing a corrupt %d-byte frame allocated %d bytes", size, got)
	}
}

// sameEvent compares field for field, rows by type and value
// (reflect.DeepEqual would compare the addresses of their string bytes).
func sameEvent(got, want Event) bool {
	sameRec := func(g, w wal.Record) bool {
		ok := g.Row.Equal(w.Row) && slices.EqualFunc(g.Rows, w.Rows, types.Row.Equal)
		g.Row, w.Row, g.Rows, w.Rows = nil, nil, nil, nil
		return ok && reflect.DeepEqual(g, w)
	}
	ok := slices.EqualFunc(got.Recs, want.Recs, sameRec) && slices.EqualFunc(got.Rows, want.Rows, types.Row.Equal)
	got.Recs, want.Recs, got.Rows, want.Rows = nil, nil, nil, nil
	return ok && reflect.DeepEqual(got, want)
}

// TestFrameRoundTrip encodes every event kind into one byte stream and
// reads it back, field for field.
func TestFrameRoundTrip(t *testing.T) {
	events := append(append(sampleEvents(), archiveEvents()...), insertEvents()...)
	var buf []byte
	for i := range events {
		buf = AppendFrame(buf, &events[i])
	}
	r := bufio.NewReader(bytes.NewReader(buf))
	for i := range events {
		got, err := ReadEvent(r)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !sameEvent(*got, events[i]) {
			t.Fatalf("event %d:\n got %+v\nwant %+v", i, *got, events[i])
		}
	}
	if _, err := ReadEvent(r); err == nil {
		t.Fatal("expected EOF after last frame")
	}
}

// TestReadEventCorruptCRC flips a payload byte and expects a CRC error.
func TestReadEventCorruptCRC(t *testing.T) {
	ev := Event{Kind: KindAdvance, LSN: 1, Wall: 5, Stream: "s", TS: 42}
	buf := AppendFrame(nil, &ev)
	buf[len(buf)-1] ^= 0x01
	if _, err := ReadEvent(bufio.NewReader(bytes.NewReader(buf))); err == nil {
		t.Fatal("corrupt frame decoded without error")
	}
}

// TestReadEventTruncated cuts a frame short at every byte boundary; each
// prefix must error, never hang or panic.
func TestReadEventTruncated(t *testing.T) {
	ev := Event{Kind: KindAppend, LSN: 2, Wall: 7, Stream: "s",
		Rows: []types.Row{{types.NewInt(9)}}}
	buf := AppendFrame(nil, &ev)
	for n := 0; n < len(buf); n++ {
		if _, err := ReadEvent(bufio.NewReader(bytes.NewReader(buf[:n]))); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
	}
}

// FuzzDecodeEvent checks the payload decoder never panics on arbitrary
// bytes, agrees with the decoder it replaced (ownership_test.go) error for
// error and value for value, that valid payloads round-trip through
// AppendFrame, and that their rows keep the ownership rule once the payload
// is gone.
func FuzzDecodeEvent(f *testing.F) {
	// Every kind; the run-shaped insert alone and in one batch with deletes
	// (insertEvents); and the pieces an oversized one is published in.
	events := append(append(sampleEvents(), archiveEvents()...), insertEvents()...)
	whole := archiveEvents()[1]
	Chunks(whole.Runs, whole.Rows[:2], func(runs []wal.RowIDRun, rows []types.Row, _ int) {
		for len(rows) > 0 { // as if one row filled an event
			head, tail := cutRuns(runs, 1)
			events = append(events, Event{Kind: KindWAL, LSN: 15, Recs: []wal.Record{{Kind: wal.RecRows, Table: "raw", Runs: head, Rows: rows[:1]}}})
			runs, rows = tail, rows[1:]
		}
	})
	for _, ev := range events {
		frame := AppendFrame(nil, &ev)
		f.Add(frame[8:]) // payload without the length/crc header
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	// The retired checkpoint marker (kind 4), a WAL batch holding a record of
	// an unknown kind — both errors — and one ending in a table's next RowID
	// and a replica's mark.
	f.Add([]byte{4, 4, 0xb8, 0x45, 0})
	f.Add([]byte{byte(KindWAL), 1, 2, 0, 1, 7, 1, 't', 9})
	f.Add(AppendFrame(nil, &Event{Kind: KindWAL, LSN: 13, Wall: 7777, Recs: []wal.Record{
		{Kind: wal.RecNext, Table: "t", RowID: 10_000_000},
		{Kind: wal.RecMark, SQL: "cafebabe01020304", RowID: 41},
	}})[8:])
	// KindArchive with runs that disagree with its rows, and with a run count
	// its payload cannot hold.
	f.Add([]byte{byte(KindArchive), 1, 2, 0, 1, 's', 1, 't', 1, 5, 3, 1, 1, byte(types.TypeInt), 2})
	f.Add([]byte{byte(KindArchive), 1, 2, 0, 1, 's', 1, 't', 0xff, 0xff, 0x03, 1, 1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		ev, err := againstOracle(t, payload)
		if err != nil {
			return
		}
		frame := AppendFrame(nil, ev)
		again, err := ReadEvent(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Kind != ev.Kind || again.LSN != ev.LSN {
			t.Fatalf("round trip mismatch: %+v vs %+v", again, ev)
		}
		// Run-shaped inserts — an archive's, a WAL batch's — cover their rows,
		// re-decode to the same values, and expand to what the per-row batch
		// of the same rows decodes to, once payload is gone.
		inserts := append([]wal.Record{{Kind: wal.RecRows, Table: ev.Table, Runs: ev.Runs, Rows: ev.Rows}}, ev.Recs...)
		for _, rec := range inserts {
			var covered uint64
			for _, run := range rec.Runs {
				covered += run.N
			}
			if covered != uint64(len(rec.Rows)) && rec.Kind == wal.RecRows && ev.Kind != KindAppend {
				t.Fatalf("%d rows with runs %v", len(rec.Rows), rec.Runs)
			}
		}
		if !sameEvent(*again, *ev) {
			t.Fatalf("re-decoded %+v, was %+v", again, ev)
		}
		perRow, err := wal.DecodeRecords(wal.AppendRecords(nil, wal.Expand(inserts[1:])))
		if err != nil {
			t.Fatalf("the per-row batch of the same rows: %v", err)
		}
		for i := range payload {
			payload[i] = 0xFF
		}
		if !sameEvent(Event{Recs: wal.Expand(ev.Recs)}, Event{Recs: perRow}) {
			t.Fatalf("expanded %+v, the per-row batch decodes to %+v", wal.Expand(ev.Recs), perRow)
		}
		batches := [][]types.Row{ev.Rows}
		for _, r := range ev.Recs {
			batches = append(batches, r.Rows, []types.Row{r.Row})
		}
		for _, batch := range batches {
			if err := types.CheckBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
	})
}
