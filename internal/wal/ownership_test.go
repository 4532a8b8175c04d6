package wal

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"streamrel/internal/types"
)

// The payload decoder this package had until rows got a backing string of
// their own and records began to share their Table, kept as the test-only
// reference. oracleDecodeRow is types' old DecodeRow rebuilt on the public
// constructors (a BOOLEAN whose byte is neither 0 nor 1 comes out as TRUE
// instead of keeping the byte, which sameRecords does not look at).

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

func oracleReadString(buf []byte) (string, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || uint64(len(buf[k:])) < n {
		return "", nil, errors.New("wal: bad string")
	}
	return string(buf[k : k+int(n)]), buf[k+int(n):], nil
}

func oracleDecodeRecords(buf []byte) ([]Record, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, errors.New("wal: bad record count")
	}
	buf = buf[k:]
	if n > uint64(len(buf)) {
		return nil, errors.New("wal: record count exceeds payload")
	}
	var recs []Record
	for i := uint64(0); i < n; i++ {
		if len(buf) == 0 {
			return nil, errors.New("wal: truncated record")
		}
		r := Record{Kind: RecordKind(buf[0])}
		buf = buf[1:]
		var err error
		switch r.Kind {
		case RecDDL:
			r.SQL, buf, err = oracleReadString(buf)
		case RecInsert:
			r.Table, buf, err = oracleReadString(buf)
			if err == nil {
				r.RowID, buf, err = ReadUvarint(buf)
			}
			if err == nil {
				r.Row, buf, err = oracleDecodeRow(buf)
			}
		case RecDelete, RecNext:
			r.Table, buf, err = oracleReadString(buf)
			if err == nil {
				r.RowID, buf, err = ReadUvarint(buf)
			}
		case RecMark: // younger than the decoder this is the reference for: no row, nothing to own
			r.SQL, buf, err = oracleReadString(buf)
			if err == nil {
				r.RowID, buf, err = ReadUvarint(buf)
			}
		case RecRows: // younger too: its frame is ReadRows', its rows are the reference's
			_, err = ReadRows(buf, &r, new(types.RowStrings))
			if r.Rows = nil; err == nil {
				_, buf, _ = oracleReadString(buf)
				for range len(r.Runs)*2 + 2 { // past the run count, the runs, the row count
					_, buf, _ = ReadUvarint(buf)
				}
				for _, run := range r.Runs {
					for range run.N {
						var row types.Row
						row, buf, _ = oracleDecodeRow(buf)
						r.Rows = append(r.Rows, row)
					}
				}
			}
		default:
			return nil, fmt.Errorf("wal: unknown record kind %d", r.Kind)
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	if len(buf) != 0 { // younger as well: nothing follows the last record
		return nil, errors.New("wal: trailing bytes in batch")
	}
	return recs, nil
}

// sameRecords compares two decodes field for field: types exact, floats by
// bits; run-shaped inserts by the rows they expand to, RowID for RowID.
func sameRecords(t testing.TB, got, want []Record) {
	t.Helper()
	got, want = Expand(got), Expand(want)
	if len(got) != len(want) {
		t.Fatalf("%d records, reference has %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Kind != w.Kind || g.Table != w.Table || g.SQL != w.SQL || g.RowID != w.RowID || len(g.Row) != len(w.Row) {
			t.Fatalf("record %d: %+v, reference %+v", i, g, w)
		}
		for j, wd := range w.Row {
			gd := g.Row[j]
			same := gd.Type() == wd.Type() && (gd.IsNull() || types.CompareRows(types.Row{gd}, types.Row{wd}) == 0)
			switch {
			case gd.Type() != wd.Type():
			case wd.Type() == types.TypeFloat:
				same = math.Float64bits(gd.Float()) == math.Float64bits(wd.Float())
			case wd.Type() == types.TypeBool: // see oracleDecodeRow
				same = gd.Bool() == wd.Bool()
			}
			if !same {
				t.Fatalf("record %d column %d: %v (%v), reference %v (%v)", i, j, gd, gd.Type(), wd, wd.Type())
			}
		}
	}
}

// againstOracle decodes data both ways and requires the same error or the
// same records.
func againstOracle(t testing.TB, data []byte) ([]Record, error) {
	t.Helper()
	recs, err := DecodeRecords(data)
	orecs, oerr := oracleDecodeRecords(data)
	if (err == nil) != (oerr == nil) || (err != nil && err.Error() != oerr.Error()) {
		t.Fatalf("decode says %v, reference says %v", err, oerr)
	}
	if err == nil {
		sameRecords(t, recs, orecs)
	}
	return recs, err
}

// walWrittenByParent is a log file the commit before the ownership rule
// wrote: a DDL batch, then inserts into two tables (NULL, an empty string,
// every type, invalid UTF-8) and a delete. walWrittenBeforeRows is a durable
// follower's log as 2bf6392, the last commit to log an insert a row at a time,
// left it: the generation stamp of the checkpoint it follows, a delete and an
// insert at the primary's RowID under the mark of the event that carried them,
// an archived row under its event's, and a DDL statement under its own.
const (
	walWrittenByParent   = "535257414c4602002700000066bf53d6010124435245415445205441424c45207420286120626967696e742c20622076617263686172293e000000e8893188040201740102030d0503783c7902017402020105000201750905048080808080808082400202068080f2818389850607ff9b9c390504ff20c3a903017503"
	walWrittenBeforeRows = "535257414c46020004000000044a34e80105000125000000eb2b1ccd0303017400020174050203080504666f75720510636166656261626530313032303330340926000000a6f5a9100202037261770802030806c0a3beb09be7af040510636166656261626530313032303330340b2f0000004604858e020119435245415445205441424c45207520287820626967696e74290510636166656261626530313032303330340c"
)

// TestReplayLogWrittenByParent: same bytes, same values — and this build
// still writes exactly those bytes when handed the same records, one per row.
func TestReplayLogWrittenByParent(t *testing.T) {
	const run = "cafebabe01020304"
	for written, want := range map[string][][]Record{
		walWrittenByParent: {
			{{Kind: RecDDL, SQL: "CREATE TABLE t (a bigint, b varchar)"}},
			{{Kind: RecInsert, Table: "t", RowID: 1, Row: types.Row{types.NewInt(-7), types.NewString("x<y")}},
				{Kind: RecInsert, Table: "t", RowID: 2, Row: types.Row{types.Null, types.NewString("")}},
				{Kind: RecInsert, Table: "u", RowID: 9, Row: types.Row{types.NewFloat(2.5), types.True, types.NewTimestampMicros(1700000000000000),
					types.NewIntervalMicros(-60000000), types.NewString("\xff é")}},
				{Kind: RecDelete, Table: "u", RowID: 3}},
		},
		walWrittenBeforeRows: {
			{{Kind: RecMark, RowID: 1}},
			{{Kind: RecDelete, Table: "t", RowID: 0},
				{Kind: RecInsert, Table: "t", RowID: 5, Row: types.Row{types.NewInt(4), types.NewString("four")}},
				{Kind: RecMark, SQL: run, RowID: 9}},
			{{Kind: RecInsert, Table: "raw", RowID: 8, Row: types.Row{types.NewInt(4), types.NewTimestampMicros(1231027201100000)}},
				{Kind: RecMark, SQL: run, RowID: 11}},
			{{Kind: RecDDL, SQL: "CREATE TABLE u (x bigint)"}, {Kind: RecMark, SQL: run, RowID: 12}},
		},
	} {
		golden, err := hex.DecodeString(written)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		old := filepath.Join(dir, "old")
		if err := os.WriteFile(old, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		var got, flat []Record
		if err := Replay(old, each(func(r Record) error { got = append(got, r); return nil })); err != nil {
			t.Fatal(err)
		}
		l, err := Open(filepath.Join(dir, "new"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range want {
			flat = append(flat, b...)
			if err := l.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		sameRecords(t, got, flat)
		if now, _ := os.ReadFile(filepath.Join(dir, "new")); hex.EncodeToString(now) != written {
			t.Fatalf("this build writes a different log:\n%x", now)
		}
	}
}

func insertBatch(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Kind: RecInsert, Table: "archive_hits", RowID: uint64(i + 1), Row: types.Row{
			types.NewString("/products/item-17"), types.NewTimestampMicros(1700000000000000 + int64(i)),
			types.NewString("10.1.2.3"), types.NewInt(int64(512 + i))}}
	}
	return recs
}

// TestDecodeRecordsAllocs pins the WAL reader's cost through the scratch a
// reader keeps, which interns the table name it read before. The run-shaped
// insert the archive channels write costs a constant whatever its rows up to
// a block: the record slice, the runs, and the batch's container, values and
// strings. A per-row insert of an older log is a batch of one — its own values
// and strings, no container — behind the record slice.
func TestDecodeRecordsAllocs(t *testing.T) {
	var strs types.RowStrings
	check := func(what string, want []Record, allocs float64) {
		t.Helper()
		payload := EncodeRecords(want)
		decode := func() {
			if _, err := ReadRecords(payload, &strs); err != nil {
				t.Fatal(err)
			}
		}
		decode() // grow the scratch
		if got := testing.AllocsPerRun(10, decode); got != allocs {
			t.Errorf("decoding %s allocates %v, want %v", what, got, allocs)
		}
		recs, _ := ReadRecords(payload, &strs)
		for i := range payload {
			payload[i] = 0xFF
		}
		sameRecords(t, recs, want)
	}
	const n = 64
	check(fmt.Sprintf("%d per-row inserts into one table", n), insertBatch(n), 2*n+1)
	for _, n := range []int{1, 16, 256, types.BlockRows} {
		rows := make([]types.Row, n)
		for i, rec := range insertBatch(n) {
			rows[i] = rec.Row
		}
		check(fmt.Sprintf("%d inserts in one record", n),
			[]Record{{Kind: RecRows, Table: "archive_hits", Runs: []RowIDRun{{First: 1, N: uint64(n)}}, Rows: rows}}, 5)
	}
}

// TestDecodeRecordsCorruptCountAllocs: the largest record count a 1 MiB
// payload can claim must not be believed (a Record is 120 bytes).
func TestDecodeRecordsCorruptCountAllocs(t *testing.T) {
	const size = 1 << 20
	buf := binary.AppendUvarint(nil, size)
	for len(buf) < size+3 {
		buf = append(buf, 0xFF)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRecords(buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a batch of unknown record kinds decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8*size {
		t.Fatalf("refusing a corrupt %d-byte batch allocated %d bytes", size, got)
	}
	// An honest count beyond types.MaxPresize still decodes.
	big := insertBatch(3 * types.MaxPresize)
	recs, err := DecodeRecords(EncodeRecords(big))
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, recs, big)
}

// TestDecodeRecordsDropsPlaceholders is the placeholder rule (internal/
// server/proto.go) for the WAL reader: a payload that fails after a VARCHAR
// column — cut short anywhere, or any byte of it replaced — yields no
// record, so the length-without-bytes types.RowStrings put in the row is
// never read; one that still decodes reads.
func TestDecodeRecordsDropsPlaceholders(t *testing.T) {
	payload := AppendRecords(nil, []Record{
		{Kind: RecInsert, Table: "t", RowID: 1, Row: types.Row{types.NewString("first"), types.NewInt(7), types.NewString("second")}},
		{Kind: RecInsert, Table: "t", RowID: 2, Row: types.Row{types.NewString("third"), types.NewFloat(1.5)}},
	})
	check := func(bad []byte) {
		t.Helper()
		recs, err := DecodeRecords(bad)
		if err != nil && recs != nil {
			t.Fatalf("% x: failed with %v and returned %d records", bad, err, len(recs))
		}
		for _, r := range recs {
			_ = r.Row.String() // a placeholder panics here
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
