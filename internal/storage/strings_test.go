package storage

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"
	"weak"

	"streamrel/internal/txn"
	"streamrel/internal/types"
)

var stringsSchema = types.Schema{{Name: "url", Type: types.TypeString}, {Name: "ip", Type: types.TypeString}, {Name: "n", Type: types.TypeInt}}

// stringRows are n rows of stringsSchema over pool, skewed so strings recur
// within a segment, and each row's value of n its index: every string is an
// allocation of its own, as a decoder's block is not the heap's.
func stringRows(r *rand.Rand, pool []string, n int) []types.Row {
	z := rand.NewZipf(r, 1.1, 1, uint64(len(pool)-1))
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewString(pool[z.Uint64()]), types.NewString(pool[r.Intn(len(pool))]), types.NewInt(int64(i))}
	}
	return rows
}

func stringPool(n int) []string {
	pool := make([]string, n)
	for i := range pool {
		pool[i] = fmt.Sprintf("/page/%06d", i)
	}
	return pool
}

// checkArenas fails unless no stored string's bytes are shared across
// segments or lie in the caller's strings (pool): a string the table found
// points at an earlier copy in its own segment's arena, and a string copied
// is a fresh one, so a string outside its own arena overlaps another segment's
// string or a pool string.
func checkArenas(t *testing.T, h *Heap, pool []string) {
	t.Helper()
	type span struct {
		lo, hi uintptr
		seg    int // -1: the caller's
	}
	var spans []span
	add := func(s string, seg int) {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 {
			spans = append(spans, span{p, p + uintptr(len(s)), seg})
		}
	}
	for _, s := range pool {
		add(s, -1)
	}
	for si, seg := range h.segs {
		for off := 0; seg != nil && off < seg.size(); off++ {
			if seg.xminAt(off) != 0 {
				for _, d := range seg.row(si, off, len(h.schema)) {
					if d.Type() == types.TypeString {
						add(d.Str(), si)
					}
				}
			}
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return int(a.lo) - int(b.lo) })
	var open span // the span reaching furthest so far
	for _, s := range spans {
		if s.lo < open.hi && s.seg != open.seg {
			t.Fatalf("a string of segment %d overlaps one of segment %d (-1: the caller's)", s.seg, open.seg)
		}
		if s.hi > open.hi {
			open = s
		}
	}
}

// TestSegmentStoresEachStringOnce holds the heap's table of strings to its
// rules over more distinct strings than it has entries, so entries are
// evicted: a row's string the table held before the write shares that copy's
// bytes, most rows share, every row reads back as inserted, and no string
// lies outside its own segment's arena. Then InsertRunAt writes segment 3, 5
// and 3 again: the table follows the write, indexing segment 3 alone, and
// neither segment keeps bytes of the other.
func TestSegmentStoresEachStringOnce(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pool := stringPool(2 * segRows)
	want := stringRows(r, pool, 3*segRows+300)
	h := NewHeap("t", stringsSchema)
	slotOf := map[string]int{} // a string's entry, once seen there, at the table's length
	tableLen, claims := 0, 0
	for i, row := range want {
		si := i / segRows
		var held [2]*byte // what the table held of the row's strings
		if len(h.seen) != tableLen {
			clear(slotOf)
			tableLen = len(h.seen)
		}
		for c := range held {
			if k, ok := slotOf[row[c].Str()]; ok && h.seenSeg == si && h.seen[k] == row[c].Str() {
				held[c] = unsafe.StringData(h.seen[k])
			}
		}
		stored := []types.Row{row}
		if _, err := h.InsertRun(txn.Bootstrap, stored); err != nil {
			t.Fatal(err)
		}
		// A first string the table missed takes its entry, which the second
		// may share: then it is gone from the table once the second is copied.
		if held[0] == nil && row[0].Str() != row[1].Str() && !slices.Contains(h.seen, row[0].Str()) {
			held[1] = nil
		}
		for c := range held {
			s := stored[0][c].Str()
			if p := unsafe.StringData(s); held[c] != nil && len(h.seen) == tableLen {
				if claims++; p != held[c] {
					t.Fatalf("row %d: the table held %q, but its column %d was copied again", i, s, c)
				}
			}
			if _, ok := slotOf[s]; !ok {
				if k := slices.Index(h.seen, s); k >= 0 {
					slotOf[s] = k
				}
			}
		}
	}
	if h.seenSeg != 3 || len(h.seen) != segRows {
		t.Errorf("the table indexes segment %d with %d entries, want 3 and %d", h.seenSeg, len(h.seen), segRows)
	}
	ptrs := map[*byte]bool{}
	i := 0
	h.Scan(txn.NewManager().SnapshotNow(), func(_ RowID, row types.Row) bool {
		if !row.Equal(want[i]) {
			t.Fatalf("row %d reads %v, want %v", i, row, want[i])
		}
		ptrs[unsafe.StringData(row[0].Str())], ptrs[unsafe.StringData(row[1].Str())] = true, true
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("read %d rows, want %d", i, len(want))
	}
	t.Logf("%d of %d strings found in the table, %d copies stored", claims, 2*len(want), len(ptrs))
	if copies := len(ptrs); claims < len(want)/2 || copies > 2*len(want)-claims {
		t.Errorf("%d of %d strings were found in the table and %d copies stored: want a quarter found, each sharing a copy",
			claims, 2*len(want), copies)
	}
	checkArenas(t, h, pool)

	h = NewHeap("t", stringsSchema)
	for _, first := range []RowID{3 * segRows, 5 * segRows, 3*segRows + 256} {
		if _, err := h.InsertRunAt(txn.Bootstrap, first, stringRows(r, pool[:50], 256)); err != nil {
			t.Fatal(err)
		}
		checkArenas(t, h, pool)
	}
	in3 := map[*byte]bool{}
	for off := range h.segs[3].size() {
		for _, d := range h.segs[3].row(3, off, len(h.schema))[:2] {
			in3[unsafe.StringData(d.Str())] = true
		}
	}
	if h.seenSeg != 3 {
		t.Fatalf("after writing segment 3 the table indexes segment %d", h.seenSeg)
	}
	for _, s := range h.seen {
		if s != "" && !in3[unsafe.StringData(s)] {
			t.Fatalf("the table indexing segment 3 holds %q, which is not segment 3's", s)
		}
	}
	if copies := len(in3); copies >= 2*256 {
		t.Errorf("segment 3 shares nothing: %d copies of its %d strings", copies, 2*2*256)
	}
}

// TestVacuumReleasesDeadStrings follows TestVacuumReleasesDeadSegments with a
// VARCHAR column: of three full segments the second and the third die whole.
// Vacuum frees both with their strings, the third's though the table of
// strings indexed it, and a row replayed into the third's range is stored in
// a segment of its own again.
func TestVacuumReleasesDeadStrings(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", stringsSchema)
	pool := stringPool(100)
	tx := mgr.Begin()
	for range 3 * segRows / 256 {
		if _, err := h.InsertRun(tx.ID, stringRows(rand.New(rand.NewSource(1)), pool, 256)); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	chunk := func(id RowID) weak.Pointer[byte] {
		row, _ := h.Get(mgr.SnapshotNow(), id)
		return weak.Make(unsafe.StringData(row[0].Str()))
	}
	second, third := chunk(segRows+9), chunk(3*segRows-1)
	tx = mgr.Begin()
	for id := RowID(segRows); id < 3*segRows; id++ {
		if err := h.Delete(tx.ID, id); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if h.seenSeg != 2 {
		t.Fatalf("the table indexes segment %d, want the last one written, 2", h.seenSeg)
	}
	if removed := h.Vacuum(mgr.SnapshotNow(), nil); removed != 2*segRows {
		t.Fatalf("Vacuum removed %d versions, want %d", removed, 2*segRows)
	}
	runtime.GC()
	runtime.GC()
	if second.Value() != nil || third.Value() != nil {
		t.Fatalf("after Vacuum the second segment's strings are reachable: %v, the third's: %v; want neither",
			second.Value() != nil, third.Value() != nil)
	}
	row := types.Row{types.NewString(pool[0]), types.NewString(pool[1]), types.NewInt(1)}
	if _, err := h.InsertRunAt(txn.Bootstrap, 2*segRows+5, []types.Row{row}); err != nil {
		t.Fatal(err)
	}
	if got, ok := h.Get(mgr.SnapshotNow(), 2*segRows+5); !ok || !got.Equal(row) {
		t.Fatalf("the row replayed into the released segment reads %v, %v", got, ok)
	}
	checkArenas(t, h, pool)
	runtime.KeepAlive(h)
}

// archiveSchema is the shape of bench/'s wire_durable archive: a url of 100
// Zipf values, a timestamp, a client_ip of 1 000 and a bigint.
var archiveSchema = types.Schema{{Name: "url", Type: types.TypeString}, {Name: "atime", Type: types.TypeTimestamp},
	{Name: "client_ip", Type: types.TypeString}, {Name: "bytes", Type: types.TypeInt}}

// archiveRows are n rows of archiveSchema.
func archiveRows(n int) []types.Row {
	r := rand.New(rand.NewSource(1))
	z := rand.NewZipf(r, 1.2, 1, 99)
	rows := make([]types.Row, n)
	for i := range rows {
		c := r.Intn(1000)
		rows[i] = types.Row{types.NewString(fmt.Sprintf("/page/%04d", z.Uint64())), types.NewTimestampMicros(int64(i)),
			types.NewString(fmt.Sprintf("10.%d.%d.%d", c>>16&255, c>>8&255, c&255)), types.NewInt(int64(200 + r.Intn(4000)))}
	}
	return rows
}

// archiveHeap is a heap of n archiveRows stored in runs of run rows, each a
// transaction that commits, and — with deletes — one row a segment deleted
// by another; and a snapshot that sees them all.
func archiveHeap(n, run int, deletes bool) (*Heap, txn.Snapshot) {
	mgr := txn.NewManager()
	h := NewHeap("archive", archiveSchema)
	rows := archiveRows(n)
	for i := 0; i < n; i += run {
		tx := mgr.Begin()
		h.InsertRun(tx.ID, rows[i:min(i+run, n)])
		tx.Commit()
	}
	if deletes {
		tx := mgr.Begin()
		for id := RowID(segRows / 2); id < RowID(n); id += segRows {
			h.Delete(tx.ID, id)
		}
		tx.Commit()
	}
	return h, mgr.SnapshotNow()
}

// BenchmarkHeapScan reads a 16-segment archiveHeap of 256-row runs whole,
// scanRows rows a Read as Scan does, and reports the cost a row: without a
// delete, and with one a segment, which gives every segment an xmax lane.
func BenchmarkHeapScan(b *testing.B) {
	for _, c := range []struct {
		name    string
		deletes bool
	}{{"Runs", false}, {"DeletePerSegment", true}} {
		b.Run(c.name, func(b *testing.B) {
			h, snap := archiveHeap(16*segRows, 256, c.deletes)
			end := h.NextID()
			rows := make([]types.Row, 0, scanRows)
			b.ResetTimer()
			for range b.N {
				for pos := RowID(0); pos < end; {
					rows = rows[:0]
					pos = h.Read(snap, pos, end, scanRows, &rows, nil)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(end), "ns/row")
		})
	}
}

// BenchmarkHeapGet looks rows of a 16-segment archiveHeap up by RowID, at a
// stride through all of it: stored in 256-row runs, and in one-row
// transactions, a run a slot.
func BenchmarkHeapGet(b *testing.B) {
	for _, run := range []int{256, 1} {
		b.Run(fmt.Sprint("Run", run), func(b *testing.B) {
			h, snap := archiveHeap(16*segRows, run, false)
			n := uint64(h.NextID())
			b.ResetTimer()
			for i := range b.N {
				if _, ok := h.Get(snap, RowID(uint64(i)*7919%n)); !ok {
					b.Fatalf("row %d is not visible", uint64(i)*7919%n)
				}
			}
		})
	}
}

// BenchmarkHeapInsert fills a heap with 16 segments of archiveRows in 256-row
// runs, as a channel stores its batches, and reports the cost a row and the
// string bytes its arenas took.
func BenchmarkHeapInsert(b *testing.B) {
	const rows, run = 16 * segRows, 256
	pool := archiveRows(rows)
	batch := make([]types.Row, run)
	arena := 0
	b.ResetTimer()
	for range b.N {
		h := NewHeap("archive", archiveSchema)
		for i := 0; i < rows; i += run {
			copy(batch, pool[i:i+run])
			h.InsertRun(txn.Bootstrap, batch)
		}
		for _, seg := range h.segs {
			arena += seg.strs.Used()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(float64(arena)/float64(b.N*rows), "arena-B/row")
}
