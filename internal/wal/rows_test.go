package wal

import (
	"encoding/binary"
	"encoding/hex"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"streamrel/internal/metrics"
	"streamrel/internal/types"
)

// rowsBatch is a write set as an engine logs it: a table's inserts as one
// record (two runs: another writer got in between), then what has no such
// shape — deletes, a second table's insert, a table's next RowID, a mark.
func rowsBatch() []Record {
	return []Record{
		{Kind: RecRows, Table: "raw", Runs: []RowIDRun{{First: 40, N: 2}, {First: 7, N: 1}}, Rows: []types.Row{
			{types.NewInt(1), types.NewTimestampMicros(60_000_000)},
			{types.Null, types.NewString("x")},
			{types.NewFloat(1.5), types.NewString("")}}},
		{Kind: RecDelete, Table: "raw", RowID: 3},
		{Kind: RecDelete, Table: "raw", RowID: 4},
		{Kind: RecRows, Table: "t", Runs: []RowIDRun{{First: 0, N: 1}}, Rows: []types.Row{{types.NewInt(9)}}},
		{Kind: RecNext, Table: "t", RowID: 12},
		{Kind: RecMark, SQL: "cafebabe01020304", RowID: 41},
	}
}

// rowsBatchPayload is rowsBatch as this format was introduced.
const rowsBatchPayload = "06060372617702280207010302030206809c9c390201050178020480808080808080fc3f0500030372617703030372617704060174010001010103120401740c05106361666562616265303130323033303429"

// TestRowsRecordGolden pins the run-shaped record byte for byte — kind 6, then
// table, run count, (first, length) per run, row count, rows — and that it
// stands for the per-row records of the same rows.
func TestRowsRecordGolden(t *testing.T) {
	golden, err := hex.DecodeString(rowsBatchPayload)
	if err != nil {
		t.Fatal(err)
	}
	if got := EncodeRecords(rowsBatch()); !slices.Equal(got, golden) {
		t.Fatalf("this build encodes the batch differently:\n%x", got)
	}
	recs, err := againstOracle(t, golden)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsBatch()
	for i, w := range want {
		if g := recs[i]; g.Kind != w.Kind || g.Table != w.Table || !slices.Equal(g.Runs, w.Runs) || len(g.Rows) != len(w.Rows) {
			t.Fatalf("record %d: %+v, want %+v", i, g, w)
		}
	}
	sameRecords(t, recs, want)
	flat := Expand(want)
	if len(flat) != 8 || flat[2].Kind != RecInsert || flat[2].Table != "raw" || flat[2].RowID != 7 || flat[5].Table != "t" || flat[5].RowID != 0 {
		t.Fatalf("expanded to %+v", flat)
	}
}

// TestDecodeRowsRunsMustCoverRows: runs that cover more or fewer rows than
// the record carries, an empty run, one that wraps the RowID space, a run
// count the payload cannot hold and bytes behind the last record are errors,
// never a panic — and a corrupt count earns no allocation (types.MaxPresize,
// as for rows).
func TestDecodeRowsRunsMustCoverRows(t *testing.T) {
	body := func(runs []RowIDRun, rows int) []byte {
		rec := Record{Kind: RecRows, Table: "t", Runs: runs}
		for i := 0; i < rows; i++ {
			rec.Rows = append(rec.Rows, types.Row{types.NewInt(int64(i))})
		}
		return EncodeRecords([]Record{rec, {Kind: RecDelete, Table: "t", RowID: 1}})
	}
	good := body([]RowIDRun{{First: 3, N: 2}, {First: 9, N: 1}}, 3)
	if _, err := DecodeRecords(good); err != nil {
		t.Fatalf("runs that cover the rows: %v", err)
	}
	for name, payload := range map[string][]byte{
		"too few":        body([]RowIDRun{{First: 3, N: 2}}, 3),
		"too many":       body([]RowIDRun{{First: 3, N: 4}}, 3),
		"empty run":      body([]RowIDRun{{First: 3, N: 3}, {First: 9, N: 0}}, 3),
		"wraps":          body([]RowIDRun{{First: math.MaxUint64 - 1, N: 3}}, 3),
		"no runs":        body(nil, 3),
		"trailing bytes": append(good, 0),
	} {
		if recs, err := DecodeRecords(payload); err == nil {
			t.Errorf("%s: decoded %+v", name, recs)
		}
	}

	const size = 1 << 20
	payload := []byte{1, byte(RecRows), 1, 't'}
	payload = binary.AppendUvarint(payload, size) // run count
	for n := len(payload); len(payload) < n+size; {
		payload = append(payload, 0xFF)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeRecords(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a record of runs with impossible counts decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= size/8 {
		t.Fatalf("refusing a corrupt %d-byte batch allocated %d bytes", size, got)
	}
}

var racing bool // race_test.go

// TestAppendAllocs: a steady-state append of a 256-row write set allocates its
// group and the group's channel and no buffer the size of its frame (some
// 14 KiB) — not when it leads a group of its own, not with a second
// committer staging behind it (whose frame the leader writes from where that
// committer encoded it), and not among four, whose groups of several batches
// are gathered in the buffer the log keeps.
func TestAppendAllocs(t *testing.T) {
	rows := make([]types.Row, 256)
	for i, rec := range insertBatch(len(rows)) {
		rows[i] = rec.Row
	}
	set := []Record{{Kind: RecRows, Table: "archive_hits", Runs: []RowIDRun{{First: 1, N: 256}}, Rows: rows}}
	for _, committers := range []int{1, 2, 4} {
		reg := metrics.NewRegistry()
		l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{Sync: committers > 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		commit := func(appends int) {
			var wg sync.WaitGroup
			for c := 0; c < committers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < appends; i++ {
						if err := l.Append(set); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			wg.Wait()
		}
		commit(20) // the encode buffers and the gathering buffer grow
		const appends = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		commit(appends)
		runtime.ReadMemStats(&after)
		l.Close()
		n := float64(appends * committers)
		allocs, bytes := float64(after.Mallocs-before.Mallocs)/n, float64(after.TotalAlloc-before.TotalAlloc)/n
		groups := 0.0
		for _, s := range reg.Gather() {
			if s.Name == "streamrel_wal_group_commit_batches" {
				groups = float64(s.Count)
			}
		}
		t.Logf("%d committers: %.2f allocations, %.0f bytes an append, %.0f groups for %.0f appends", committers, allocs, bytes, groups, n+20*float64(committers))
		if allocs > 4 || bytes >= 1<<10 && !racing {
			t.Fatalf("%d committers: an append of %d rows allocates %.2f times, %.0f bytes; want at most 4 and under 1 KiB", committers, len(rows), allocs, bytes)
		}
		if committers > 2 && groups >= n+20*float64(committers) {
			t.Fatalf("no group of several batches formed: %.0f groups", groups)
		}
	}
}

// TestAppendRowsOfSpans: rows handed over as spans — the values of
// consecutive rows end to end, as the replication ring keeps a heap's runs —
// encode byte for byte as the rows, however they are cut; rows whose runs
// cover another count, which no width makes spans of, encode as they are.
func TestAppendRowsOfSpans(t *testing.T) {
	rows := make([]types.Row, 10)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(string(rune('a' + i))), types.Null}
	}
	runs := []RowIDRun{{First: 4, N: 3}, {First: 20, N: 7}}
	want := AppendRows(nil, "t", runs, rows)
	spans := func(cuts ...int) []types.Row {
		var out []types.Row
		for i, from := 0, 0; i <= len(cuts); i++ {
			to := len(rows)
			if i < len(cuts) {
				to = cuts[i]
			}
			var span types.Row
			for _, row := range rows[from:to] {
				span = append(span, row...)
			}
			out, from = append(out, span), to
		}
		return out
	}
	for _, cuts := range [][]int{nil, {3}, {1, 2, 9}, {5, 6}} {
		if got := AppendRows(nil, "t", runs, spans(cuts...)); !slices.Equal(got, want) {
			t.Errorf("spans cut at %v encode as %x, want %x", cuts, got, want)
		}
	}
	for _, n := range []uint64{9, 11, 20, 0} {
		head := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(AppendString(nil, "t"), 1), 4), n)
		if got, plain := AppendRows(nil, "t", []RowIDRun{{First: 4, N: n}}, rows), AppendRowList(head, rows); !slices.Equal(got, plain) {
			t.Errorf("a run of %d rows over 10 rows: %x, want the rows as they are, %x", n, got, plain)
		}
	}
}
