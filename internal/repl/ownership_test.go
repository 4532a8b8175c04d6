package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// The KindAppend body decoder this package had until rows got a backing
// string of their own, kept as the test-only reference (a KindWAL body is
// wal.DecodeRecords, which carries its own reference). oracleDecodeRow is
// types' old DecodeRow rebuilt on the public constructors; a BOOLEAN whose
// byte is neither 0 nor 1 comes out as TRUE, so sameRow compares BOOLEANs
// by truth.

func oracleDecodeRow(buf []byte) (types.Row, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, fmt.Errorf("types: decode row: bad length")
	}
	buf = buf[k:]
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("types: decode row: length exceeds payload")
	}
	var row types.Row
	for i := uint64(0); i < n; i++ {
		if len(buf) == 0 {
			return nil, nil, fmt.Errorf("types: decode: empty buffer")
		}
		t := types.Type(buf[0])
		buf = buf[1:]
		switch t {
		case types.TypeNull, types.TypeUnknown:
			row = append(row, types.Null)
		case types.TypeBool, types.TypeInt, types.TypeTimestamp, types.TypeInterval:
			v, n := binary.Varint(buf)
			if n <= 0 {
				return nil, nil, fmt.Errorf("types: decode: bad varint")
			}
			buf = buf[n:]
			switch t {
			case types.TypeBool:
				row = append(row, types.NewBool(v != 0))
			case types.TypeInt:
				row = append(row, types.NewInt(v))
			case types.TypeTimestamp:
				row = append(row, types.NewTimestampMicros(v))
			default:
				row = append(row, types.NewIntervalMicros(v))
			}
		case types.TypeFloat:
			v, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, nil, fmt.Errorf("types: decode: bad float")
			}
			buf = buf[n:]
			row = append(row, types.NewFloat(math.Float64frombits(v)))
		case types.TypeString:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf[n:])) < l {
				return nil, nil, fmt.Errorf("types: decode: bad string length")
			}
			row = append(row, types.NewString(string(buf[n:n+int(l)])))
			buf = buf[n+int(l):]
		default:
			return nil, nil, fmt.Errorf("types: decode: unknown type tag %d", t)
		}
	}
	return row, buf, nil
}

// oracleAppendBody decodes what follows the frame header of a KindAppend
// payload.
func oracleAppendBody(buf []byte) (stream string, rows []types.Row, err error) {
	if stream, buf, err = wal.ReadString(buf, ""); err != nil {
		return "", nil, err
	}
	n, buf, err := wal.ReadUvarint(buf)
	if err != nil || n > uint64(len(buf)) {
		return "", nil, errors.New("wal: bad row count")
	}
	for i := uint64(0); i < n; i++ {
		var row types.Row
		if row, buf, err = oracleDecodeRow(buf); err != nil {
			return "", nil, err
		}
		rows = append(rows, row)
	}
	if len(buf) != 0 {
		return "", nil, errors.New("repl: trailing bytes behind the rows")
	}
	return stream, rows, nil
}

func sameRow(t testing.TB, got, want types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row %v, reference %v", got, want)
	}
	for j, w := range want {
		g := got[j]
		same := g.Type() == w.Type()
		switch {
		case !same || w.IsNull():
		case w.Type() == types.TypeFloat:
			same = math.Float64bits(g.Float()) == math.Float64bits(w.Float())
		case w.Type() == types.TypeBool:
			same = g.Bool() == w.Bool()
		default:
			same = types.CompareRows(types.Row{g}, types.Row{w}) == 0
		}
		if !same {
			t.Fatalf("column %d: %v (%v), reference %v (%v)", j, g, g.Type(), w, w.Type())
		}
	}
}

// againstOracle decodes payload and, when it is a KindAppend frame whose
// header parses, requires the reference's error or the reference's rows.
func againstOracle(t testing.TB, payload []byte) (*Event, error) {
	t.Helper()
	ev, err := DecodeEvent(payload)
	if len(payload) == 0 || Kind(payload[0]) != KindAppend {
		return ev, err
	}
	body := payload[1:]
	var herr error
	if _, body, herr = wal.ReadUvarint(body); herr == nil {
		if _, body, herr = readVarint(body); herr == nil {
			_, body, herr = wal.ReadUvarint(body)
		}
	}
	if herr != nil {
		return ev, err
	}
	stream, rows, oerr := oracleAppendBody(body)
	if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
		t.Fatalf("decode says %v, reference says %v", err, oerr)
	}
	if err == nil {
		if ev.Stream != stream || len(ev.Rows) != len(rows) {
			t.Fatalf("stream %q with %d rows, reference %q with %d", ev.Stream, len(ev.Rows), stream, len(rows))
		}
		for i := range rows {
			sameRow(t, ev.Rows[i], rows[i])
		}
	}
	return ev, err
}

// framesWrittenByParent is sampleEvents as the commit before this decoder
// framed them — less the checkpoint marker (kind 4) that stood fourth, which
// no build sends any more and this one refuses — followed by a table's next
// RowID in the frame kind of its own (9) that a snapshot once sent, which
// this build refuses too.
const framesWrittenByParent = "2f000000c2f15fef0101ae1100030119435245415445205441424c45207420286120626967696e74290201740402030e050178030174021c00000053876c330202dc220001730202030206809c9c3902010480808080808080fc3f0b00000031df832a03038a3400017380b8b87215000000b90c2ec9050002001063616665626162653031303230333034040000004b7e926f060904001500000039d008ef070506001063616665626162653031303230333034050000000b87d615080ac60100070000009a6cd52809000000017411"

// TestFramesWrittenByParent: same bytes, same values — and this build
// still writes exactly those bytes.
func TestFramesWrittenByParent(t *testing.T) {
	golden, err := hex.DecodeString(framesWrittenByParent)
	if err != nil {
		t.Fatal(err)
	}
	events := sampleEvents()
	var buf []byte
	r := NewReader(bufio.NewReader(bytes.NewReader(golden)))
	for i := range events {
		buf = AppendFrame(buf, &events[i])
		got, err := r.ReadEvent()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got.Kind != events[i].Kind || got.LSN != events[i].LSN || got.Wall != events[i].Wall || got.Stream != events[i].Stream ||
			got.TS != events[i].TS || got.Run != events[i].Run || got.Table != events[i].Table ||
			len(got.Rows) != len(events[i].Rows) || len(got.Recs) != len(events[i].Recs) {
			t.Fatalf("event %d: %+v, want %+v", i, *got, events[i])
		}
		for j, row := range events[i].Rows {
			sameRow(t, got.Rows[j], row)
		}
		for j, rec := range events[i].Recs {
			g := got.Recs[j]
			if g.Kind != rec.Kind || g.Table != rec.Table || g.SQL != rec.SQL || g.RowID != rec.RowID {
				t.Fatalf("event %d record %d: %+v, want %+v", i, j, g, rec)
			}
			sameRow(t, g.Row, rec.Row)
		}
	}
	if !bytes.HasPrefix(golden, buf) {
		t.Fatalf("this build frames the events differently:\n%x", buf)
	}
	if ev, err := r.ReadEvent(); err == nil {
		t.Fatalf("the parent's next-RowID frame decoded as %+v, want an error", ev)
	}
	marker, _ := hex.DecodeString(checkpointFrameWrittenByParent)
	if ev, err := NewReader(bufio.NewReader(bytes.NewReader(marker))).ReadEvent(); err == nil {
		t.Fatalf("the parent's checkpoint marker decoded as %+v, want an error", ev)
	}
}

// checkpointFrameWrittenByParent is Event{Kind: 4, LSN: 4, Wall: 4444} as the
// parent framed it.
const checkpointFrameWrittenByParent = "0500000062d283fa0404b84500"

// oneRun is the RowIDs archiveBatch's records name.
func oneRun(n int) []wal.RowIDRun { return []wal.RowIDRun{{First: 1, N: uint64(n)}} }

func archiveBatch(n int) ([]types.Row, []wal.Record) {
	rows, recs := make([]types.Row, n), make([]wal.Record, n)
	for i := range rows {
		rows[i] = types.Row{types.NewString("/products/item-17"), types.NewTimestampMicros(1700000000000000 + int64(i)),
			types.NewString("10.1.2.3"), types.NewInt(int64(512 + i))}
		recs[i] = wal.Record{Kind: wal.RecInsert, Table: "archive_hits", RowID: uint64(i + 1), Row: rows[i]}
	}
	return rows, recs
}

// TestAppendFrameAllocs: a frame is built in dst, with no temporary of the
// WAL payload beside it.
func TestAppendFrameAllocs(t *testing.T) {
	rows, recs := archiveBatch(64)
	for _, ev := range []Event{
		{Kind: KindWAL, LSN: 1, Wall: 1, Recs: recs},
		{Kind: KindAppend, LSN: 2, Wall: 2, Stream: "hits", Rows: rows},
		{Kind: KindArchive, LSN: 3, Wall: 3, Stream: "hits", Table: "archive_hits", Rows: rows, Runs: oneRun(64)},
		{Kind: KindWAL, LSN: 4, Wall: 4, Recs: []wal.Record{{Kind: wal.RecRows, Table: "archive_hits", Rows: rows, Runs: oneRun(64)}}},
	} {
		dst := AppendFrame(nil, &ev)
		if n := testing.AllocsPerRun(50, func() { dst = AppendFrame(dst[:0], &ev) }); n != 0 {
			t.Errorf("kind %d: framing into a grown buffer allocates %v, want 0", ev.Kind, n)
		}
	}
}

// TestReaderOwnershipAcrossFrames reads frames through one Reader, which
// reuses its payload buffer: every event's rows and records must still hold
// their own values once later frames have overwritten that buffer, and a
// frame larger than retainPayloadBytes must not leave its buffer behind. The
// Event itself and its runs are the reader's until the next read, so the test
// keeps a copy of those.
func TestReaderOwnershipAcrossFrames(t *testing.T) {
	var stream []byte
	var want []Event
	for i := 0; i < 50; i++ {
		rows, recs := archiveBatch(1 + i%7)
		rows[0][0] = types.NewString(fmt.Sprintf("/frame/%d", i))
		recs[0].Table = fmt.Sprintf("t%d", i)
		ev := Event{Kind: KindAppend, LSN: uint64(i + 1), Wall: int64(i), Stream: "hits", Rows: rows}
		switch i % 4 { // i == 20 is an append
		case 1:
			ev = Event{Kind: KindWAL, LSN: uint64(i + 1), Wall: int64(i), Recs: recs}
		case 2:
			ev.Kind, ev.Table, ev.Runs = KindArchive, recs[0].Table, oneRun(len(rows))
		case 3: // the same insert as one record, beside a delete
			ev = Event{Kind: KindWAL, LSN: uint64(i + 1), Wall: int64(i), Recs: []wal.Record{
				{Kind: wal.RecRows, Table: recs[0].Table, Runs: oneRun(len(rows)), Rows: rows}, {Kind: wal.RecDelete, Table: recs[0].Table, RowID: 3}}}
		}
		if i == 20 {
			ev.Rows[0][2] = types.NewString(string(make([]byte, retainPayloadBytes+1)))
		}
		want = append(want, ev)
		stream = AppendFrame(stream, &ev)
	}
	r := NewReader(bufio.NewReader(bytes.NewReader(stream)))
	var got []*Event
	for i := range want {
		ev, err := r.ReadEvent()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		own := *ev
		own.Runs = slices.Clone(ev.Runs)
		got = append(got, &own)
		if i == 20 && r.buf != nil {
			t.Fatalf("the reader kept a %d-byte buffer", cap(r.buf))
		}
	}
	kept := r.buf[:cap(r.buf)]
	for i := range kept {
		kept[i] = 0xFF
	}
	for i, w := range want {
		g := got[i]
		if g.Kind != w.Kind || g.LSN != w.LSN || g.Stream != w.Stream || g.Table != w.Table || !slices.Equal(g.Runs, w.Runs) ||
			len(g.Rows) != len(w.Rows) || len(g.Recs) != len(w.Recs) {
			t.Fatalf("frame %d: %+v", i, *g)
		}
		for j := range w.Rows {
			sameRow(t, g.Rows[j], w.Rows[j])
		}
		for j := range w.Recs {
			if g.Recs[j].Table != w.Recs[j].Table || !slices.Equal(g.Recs[j].Runs, w.Recs[j].Runs) || len(g.Recs[j].Rows) != len(w.Recs[j].Rows) {
				t.Fatalf("frame %d record %d: %+v, want %+v", i, j, g.Recs[j], w.Recs[j])
			}
			sameRow(t, g.Recs[j].Row, w.Recs[j].Row)
			for k := range w.Recs[j].Rows {
				sameRow(t, g.Recs[j].Rows[k], w.Recs[j].Rows[k])
			}
		}
	}
}

// TestDecodeEventCorruptCountAllocs: the largest row count a 1 MiB append
// frame can claim must not be believed (a row header is 24 bytes).
func TestDecodeEventCorruptCountAllocs(t *testing.T) {
	const size = 1 << 20
	payload := []byte{byte(KindAppend), 1, 2, 0, 1, 's'}
	payload = binary.AppendUvarint(payload, size)
	for n := len(payload); len(payload) < n+size; {
		payload = append(payload, 0xFF)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeEvent(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a frame of rows with impossible counts decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8*size {
		t.Fatalf("refusing a corrupt %d-byte frame allocated %d bytes", size, got)
	}
	// An honest count beyond types.MaxPresize still decodes.
	rows, _ := archiveBatch(3 * types.MaxPresize)
	ev := Event{Kind: KindAppend, LSN: 1, Stream: "hits", Rows: rows}
	got, err := DecodeEvent(AppendFrame(nil, &ev)[8:])
	if err != nil || len(got.Rows) != len(rows) {
		t.Fatalf("%d rows, err %v", len(got.Rows), err)
	}
	for i := range rows {
		sameRow(t, got.Rows[i], rows[i])
	}
}

// TestDecodeEventDropsPlaceholders is the placeholder rule (internal/
// server/proto.go) for replication frames: an append or archive payload that
// fails after a VARCHAR column — cut short anywhere, or any byte of it
// replaced — yields no event, so the length-without-bytes types.RowStrings put
// in the row is never read; one that still decodes reads.
func TestDecodeEventDropsPlaceholders(t *testing.T) {
	ev := Event{Kind: KindAppend, LSN: 2, Wall: 7, Stream: "s", Rows: []types.Row{
		{types.NewString("first"), types.NewInt(7), types.NewString("second")},
		{types.NewString("third"), types.NewFloat(1.5)},
	}}
	dropsPlaceholders(t, AppendFrame(nil, &ev)[8:]) // without the length/crc header
	ev.Kind, ev.Table, ev.Runs = KindArchive, "t", []wal.RowIDRun{{First: 4, N: 2}}
	dropsPlaceholders(t, AppendFrame(nil, &ev)[8:])
}

func dropsPlaceholders(t *testing.T, payload []byte) {
	check := func(bad []byte) {
		t.Helper()
		ev, err := DecodeEvent(bad)
		if err != nil && ev != nil {
			t.Fatalf("% x: failed with %v and returned an event", bad, err)
		}
		if ev != nil {
			for _, row := range ev.Rows {
				_ = row.String() // a placeholder panics here
			}
		}
	}
	for cut := range payload {
		check(payload[:cut])
	}
	for at := range payload {
		for _, b := range []byte{0x00, byte(types.TypeString), 0x7F, 0xFF} {
			bad := append([]byte(nil), payload...)
			bad[at] = b
			check(bad)
		}
	}
}
