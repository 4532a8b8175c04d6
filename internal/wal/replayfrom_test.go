package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streamrel/internal/types"
)

// TestReplayFromTornTail checks that garbage after the last complete
// batch is ignored: replay applies the batch before it and ends without error.
func TestReplayFromTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{{Kind: RecInsert, Table: "t", RowID: 7, Row: row(42)}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xde, 0xad, 0xbe}) // torn header
	f.Close()

	n := 0
	if err := Replay(path, each(func(Record) error { n++; return nil })); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want 1", n)
	}
}

// unknownKind is a batch of one record of a kind no build has written: a
// count, the kind byte, and what would be a table name and a RowID.
var unknownKind = []byte{1, 7, 1, 't', 9}

// TestUnknownRecordKindIsAnError: a batch whose checksum holds and whose
// records this build cannot decode is not a torn tail. Replay stops there with
// an error — it neither skips the batch nor ends quietly, dropping the
// committed batches behind it — and has applied what came before.
func TestUnknownRecordKindIsAnError(t *testing.T) {
	if recs, err := DecodeRecords(unknownKind); err == nil {
		t.Fatalf("decoded %+v", recs)
	}
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mark := Record{Kind: RecMark, SQL: "cafebabe01020304", RowID: 41}
	if err := l.Append([]Record{{Kind: RecNext, Table: "t", RowID: 12}, mark}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(unknownKind)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(unknownKind))
	f.Write(append(hdr[:], unknownKind...))
	f.Write(appendFrame(nil, []Record{{Kind: RecDelete, Table: "t", RowID: 1}}))
	f.Close()
	var got []Record
	err = Replay(path, each(func(r Record) error { got = append(got, r); return nil }))
	if err == nil || !strings.Contains(err.Error(), "unknown record kind 7") {
		t.Fatalf("replay over a record of an unknown kind: %v", err)
	}
	if len(got) != 2 || got[0].Kind != RecNext || got[0].RowID != 12 || got[1].SQL != mark.SQL || got[1].RowID != 41 {
		t.Fatalf("before the error replay applied %+v", got)
	}
}

// FuzzDecodeRecords checks the batch decoder never panics or
// over-allocates on arbitrary bytes, agrees with the decoder it replaced
// (ownership_test.go) error for error and value for value, that valid
// encodings round-trip, that a batch of run-shaped inserts, expanded, is
// what the per-row batch of the same rows decodes to, and that every record's
// rows keep the ownership rule once data is gone.
func FuzzDecodeRecords(f *testing.F) {
	seed := [][]Record{
		{{Kind: RecDDL, SQL: "CREATE TABLE t (a bigint)"}},
		{{Kind: RecInsert, Table: "t", RowID: 3, Row: types.Row{types.NewInt(1), types.NewString("x")}}},
		{{Kind: RecDelete, Table: "t", RowID: 9}},
		{{Kind: RecInsert, Table: "t", RowID: 0, Row: types.Row{types.Null}},
			{Kind: RecDelete, Table: "t", RowID: 0}},
		{{Kind: RecInsert, Table: "t", RowID: 7, Row: types.Row{types.NewInt(2)}},
			{Kind: RecNext, Table: "t", RowID: 10_000_000},
			{Kind: RecMark, SQL: "cafebabe01020304", RowID: 41}},
		{{Kind: RecMark, RowID: 3}}, // a checkpoint's generation: a mark naming no run
		rowsBatch()[:1],             // the run-shaped insert alone
		rowsBatch(),                 // and in one batch with deletes, another table's insert and a mark
	}
	for _, recs := range seed {
		f.Add(EncodeRecords(recs))
	}
	f.Add([]byte{})
	f.Add(unknownKind)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := againstOracle(t, data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same shape, and
		// row by row to the same values, with nothing left in data.
		again, err := DecodeRecords(EncodeRecords(recs))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip: %d records, want %d", len(again), len(recs))
		}
		perRow, err := DecodeRecords(EncodeRecords(Expand(recs)))
		if err != nil {
			t.Fatalf("the per-row batch of the same rows: %v", err)
		}
		for i := range data {
			data[i] = 0xFF
		}
		sameRecords(t, Expand(recs), perRow)
		for _, r := range recs {
			for _, batch := range [][]types.Row{r.Rows, {r.Row}} {
				if err := types.CheckBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
