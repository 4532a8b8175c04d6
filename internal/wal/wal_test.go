package wal

import (
	"os"
	"path/filepath"
	"testing"

	"streamrel/internal/types"
)

// EncodeRecords is AppendRecords into a fresh buffer.
func EncodeRecords(recs []Record) []byte { return AppendRecords(nil, recs) }

// each adapts a per-record callback to Replay's per-batch one.
func each(fn func(Record) error) func([]Record) error {
	return func(batch []Record) error {
		for _, r := range batch {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
}

func row(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Record{
		{{Kind: RecDDL, SQL: "CREATE TABLE t (a bigint)"}},
		{{Kind: RecInsert, Table: "t", Row: row(1)},
			{Kind: RecInsert, Table: "t", Row: row(2)}},
		{{Kind: RecDelete, Table: "t", RowID: 0}},
	}
	for _, b := range batches {
		if err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	if err := Replay(path, each(func(r Record) error { got = append(got, r); return nil })); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
	if got[0].Kind != RecDDL || got[0].SQL != "CREATE TABLE t (a bigint)" {
		t.Fatalf("record 0: %+v", got[0])
	}
	if got[1].Kind != RecInsert || got[1].Table != "t" || got[1].Row[0].Int() != 1 {
		t.Fatalf("record 1: %+v", got[1])
	}
	if got[3].Kind != RecDelete || got[3].RowID != 0 {
		t.Fatalf("record 3: %+v", got[3])
	}
}

func TestReplayMissingFile(t *testing.T) {
	err := Replay(filepath.Join(t.TempDir(), "absent"), each(func(Record) error {
		t.Fatal("should not be called")
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path, Options{Sync: true})
	l.Append([]Record{{Kind: RecInsert, Table: "t", Row: row(1)}})
	l.Append([]Record{{Kind: RecInsert, Table: "t", Row: row(2)}})
	l.Close()

	// Truncate mid-way through the second batch to simulate a crash during
	// the write.
	data, _ := os.ReadFile(path)
	for cut := len(data) - 1; cut > len(data)-10 && cut > 0; cut-- {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var got []Record
		if err := Replay(path, each(func(r Record) error { got = append(got, r); return nil })); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(got) != 1 || got[0].Row[0].Int() != 1 {
			t.Fatalf("cut=%d: replayed %d records, want exactly the first batch", cut, len(got))
		}
	}
}

func TestCorruptBatchDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path, Options{})
	l.Append([]Record{{Kind: RecInsert, Table: "t", Row: row(1)}})
	l.Append([]Record{{Kind: RecInsert, Table: "t", Row: row(2)}})
	l.Close()
	data, _ := os.ReadFile(path)
	// Flip a bit in the second batch's payload.
	data[len(data)-1] ^= 0xFF
	os.WriteFile(path, data, 0o644)
	var got []Record
	if err := Replay(path, each(func(r Record) error { got = append(got, r); return nil })); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("replayed %d records past corruption, want 1", len(got))
	}
}

func TestTruncate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path, Options{})
	l.Append([]Record{{Kind: RecInsert, Table: "t", Row: row(1)}})
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	l.Append([]Record{{Kind: RecInsert, Table: "t", Row: row(9)}})
	l.Close()
	var got []Record
	Replay(path, each(func(r Record) error { got = append(got, r); return nil }))
	if len(got) != 1 || got[0].Row[0].Int() != 9 {
		t.Fatalf("after truncate: %+v", got)
	}
}

func TestEmptyAppendIsNoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path, Options{})
	if err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	info, _ := os.Stat(path)
	if info.Size() != 0 {
		t.Fatal("empty append wrote bytes")
	}
}

func TestPreVersioningFileRefused(t *testing.T) {
	// A v1-style file has no header: it starts straight at a batch's
	// [len u32][crc u32]. Both Open and Replay must refuse it explicitly
	// instead of misparsing (and silently truncating) the replay.
	path := filepath.Join(t.TempDir(), "wal")
	payload := EncodeRecords([]Record{{Kind: RecDDL, SQL: "CREATE TABLE t (a bigint)"}})
	var raw []byte
	raw = append(raw, byte(len(payload)), 0, 0, 0)
	raw = append(raw, 0xde, 0xad, 0xbe, 0xef) // crc (value irrelevant)
	raw = append(raw, payload...)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path, each(func(Record) error { return nil })); err == nil {
		t.Fatal("Replay accepted a pre-versioning file")
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a pre-versioning file")
	}
}

func TestFormatVersionMismatchRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	hdr := fileHeader()
	hdr[6], hdr[7] = 0xff, 0x7f // future version
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Replay(path, each(func(Record) error { return nil })); err == nil {
		t.Fatal("Replay accepted a mismatched format version")
	}
	if _, err := Open(path, Options{}); err == nil {
		t.Fatal("Open accepted a mismatched format version")
	}
}

func TestTornHeaderIsEmptyLog(t *testing.T) {
	// A crash between creating the file and finishing the first append can
	// leave a prefix of the header; that is a logically empty log, and the
	// file must remain usable.
	path := filepath.Join(t.TempDir(), "wal")
	if err := os.WriteFile(path, fileHeader()[:3], 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := Replay(path, each(func(Record) error { n++; return nil })); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("replayed %d records from a torn header", n)
	}
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]Record{{Kind: RecInsert, Table: "t", Row: row(5)}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	var got []Record
	if err := Replay(path, each(func(r Record) error { got = append(got, r); return nil })); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Row[0].Int() != 5 {
		t.Fatalf("after torn-header reset: %+v", got)
	}
}

func TestAppendAfterCloseErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path, Options{})
	l.Close()
	if err := l.Append([]Record{{Kind: RecDDL, SQL: "x"}}); err == nil {
		t.Fatal("append after close should error")
	}
	if err := l.Close(); err != nil {
		t.Fatal("double close should be fine")
	}
}

func TestMixedDatumTypesRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := Open(path, Options{})
	in := types.Row{
		types.NewInt(-5), types.NewFloat(2.5), types.NewString("héllo"),
		types.True, types.Null, types.NewTimestampMicros(123456789),
		types.NewIntervalMicros(-60_000_000),
	}
	l.Append([]Record{{Kind: RecInsert, Table: "t", Row: in}})
	l.Close()
	var got types.Row
	Replay(path, each(func(r Record) error { got = r.Row; return nil }))
	if !in.Equal(got) {
		t.Fatalf("round trip: %v vs %v", in, got)
	}
}
