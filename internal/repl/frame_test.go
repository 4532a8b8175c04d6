package repl

import (
	"bufio"
	"bytes"
	"reflect"
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
		{Kind: KindCheckpoint, LSN: 4, Wall: 4444},
		{Kind: KindSnapBegin, Wall: 1, Run: "cafebabe01020304"},
		{Kind: KindSnapEnd, LSN: 9, Wall: 2},
		{Kind: KindResume, LSN: 5, Wall: 3, Run: "cafebabe01020304"},
		{Kind: KindPing, LSN: 10, Wall: 99},
		{Kind: KindTableNext, Table: "t", Next: 17},
	}
}

// sameEvent compares field for field, rows by type and value
// (reflect.DeepEqual would compare the addresses of their string bytes).
func sameEvent(got, want Event) bool {
	sameRec := func(g, w wal.Record) bool {
		gr, wr := g.Row, w.Row
		g.Row, w.Row = nil, nil
		return gr.Equal(wr) && reflect.DeepEqual(g, w)
	}
	ok := slices.EqualFunc(got.Recs, want.Recs, sameRec) && slices.EqualFunc(got.Rows, want.Rows, types.Row.Equal)
	got.Recs, want.Recs, got.Rows, want.Rows = nil, nil, nil, nil
	return ok && reflect.DeepEqual(got, want)
}

// TestFrameRoundTrip encodes every event kind into one byte stream and
// reads it back, field for field.
func TestFrameRoundTrip(t *testing.T) {
	events := sampleEvents()
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
// error and value for value, and that valid payloads round-trip through
// AppendFrame.
func FuzzDecodeEvent(f *testing.F) {
	for _, ev := range sampleEvents() {
		frame := AppendFrame(nil, &ev)
		f.Add(frame[8:]) // payload without the length/crc header
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
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
	})
}
