package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// TestSizeofRun pins what segRows' comment assumes: a run is its
// transaction id and its end, 16 bytes, so a segment of one-row transactions
// pays what a version's two stamps cost before runs.
func TestSizeofRun(t *testing.T) {
	if got := unsafe.Sizeof(run{}); got != 16 {
		t.Fatalf("a run is %d bytes, want 16", got)
	}
}

// TestSegmentValuesNoPointers: a segment's words and NULL bitmaps are
// arrays of uint64, and a later segment's one object (newFull) keeps its
// pointer words in its header, ahead of its inline runs and its words, so the
// collector scans the header and stops there: none of a row's values is a
// word it traces.
func TestSegmentValuesNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Array:
			return t.Len() > 0 && hasPointers(t.Elem())
		case reflect.Struct:
			for i := range t.NumField() {
				if hasPointers(t.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String, reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			return true
		}
		return false
	}
	for _, name := range []string{"vals", "nulls"} {
		f, _ := reflect.TypeFor[segment]().FieldByName(name)
		if chunk := f.Type.Elem(); chunk.Kind() != reflect.Slice || hasPointers(chunk.Elem()) {
			t.Errorf("a segment's %s chunk is a %v, want a slice of pointer-free words", name, chunk)
		}
	}
	full := fullType(4)
	if full.Field(0).Type != reflect.TypeFor[segment]() {
		t.Fatalf("a later segment's object begins with %v, want its header", full.Field(0).Type)
	}
	for i := 1; i < full.NumField(); i++ {
		if f := full.Field(i); hasPointers(f.Type) {
			t.Errorf("a later segment's %s (%v) holds pointers: the collector would scan them", f.Name, f.Type)
		}
	}
	h := NewHeap("t", archiveSchema)
	h.EnsureNext(segRows)
	h.InsertRun(txn.Bootstrap, archiveRows(3))
	if seg := h.segs[1]; len(seg.vals[0]) != segRows*len(archiveSchema) || seg.nulls[0] != nil {
		t.Errorf("a later segment holds %d words and a bitmap %v, want %d and none before a NULL", len(seg.vals[0]), seg.nulls[0] != nil, segRows*len(archiveSchema))
	}
}

// TestNullsFollowTheirSlot: a NULL is a bit of its chunk's bitmap, made at the
// chunk's first NULL, so NULLs and values read back as stored, in spans too;
// and a gap's slot written again — an aborted version's, reclaimed by Vacuum
// in a chunk a live row keeps — reads its new row, not the NULLs it once held.
func TestNullsFollowTheirSlot(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}, {Name: "s", Type: types.TypeString}})
	h.EnsureNext(segRows)
	row := func(a int64, s string) types.Row { return types.Row{types.NewInt(a), types.NewString(s)} }
	h.InsertRun(txn.Bootstrap, []types.Row{row(1, "x"), {types.Null, types.NewString("y")}})
	tx := mgr.Begin()
	h.InsertRun(tx.ID, []types.Row{{types.Null, types.Null}, {types.NewInt(3), types.Null}})
	tx.Abort()
	if n := h.Vacuum(mgr.SnapshotNow(), nil); n != 2 {
		t.Fatalf("Vacuum reclaimed %d versions, want the aborted 2", n)
	}
	if _, err := h.InsertRunAt(txn.Bootstrap, segRows+2, []types.Row{row(4, "z"), {types.NewInt(5), types.Null}}); err != nil {
		t.Fatal(err)
	}
	var got, viewed []string
	h.Scan(mgr.SnapshotNow(), func(_ RowID, r types.Row) bool { got = append(got, r.String()); return true })
	for _, r := range spanRows(h.Spans(segRows, 4, nil)[0], nil) {
		viewed = append(viewed, r.String())
	}
	if want := "[1|x NULL|y 4|z 5|NULL]"; fmt.Sprint(got) != want || fmt.Sprint(viewed) != want {
		t.Fatalf("the rows read %v and their span %v, want %s", got, viewed, want)
	}
}

// spanRows appends to dst the rows of a span of a two-column heap.
func spanRows(s types.Span, dst []types.Row) []types.Row {
	for i := range s.Len() {
		dst = append(dst, s.Key(i, []int{0, 1}, make(types.Row, 2)))
	}
	return dst
}

// TestSegmentRunsAllocs pins the stamps' layout. A later segment written by
// 16 transactions' 256-row runs holds 16 runs inside its one object and no
// xmax lane, so it is one allocation; its first Delete allocates the lane,
// once, and later ones nothing. A segment of one-row transactions holds a run
// a slot, 16 B a slot, allocated at once.
func TestSegmentRunsAllocs(t *testing.T) {
	pool, batch := make([]types.Row, segRows), make([]types.Row, 256)
	for i := range pool {
		pool[i] = intRow(int64(i))
	}
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// The least of three rounds: the counts are the whole process's.
	fill, first, later := ^uint64(0), ^uint64(0), ^uint64(0)
	for range 3 {
		h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
		h.EnsureNext(segRows)
		fill = min(fill, mallocs(func() {
			for i := 0; i < segRows; i += len(batch) {
				copy(batch, pool[i:])
				h.InsertRun(txn.ID(100+i), batch)
			}
		}))
		seg := h.segs[1]
		if len(seg.runs) != 16 || cap(seg.runs) != inlineRuns || seg.xmax != nil {
			t.Fatalf("16 runs are held in %d runs of capacity %d, lane %v; want 16 inline and no lane", len(seg.runs), cap(seg.runs), seg.xmax != nil)
		}
		first = min(first, mallocs(func() { h.Delete(txn.ID(9000), segRows+5) }))
		later = min(later, mallocs(func() {
			for id := RowID(segRows + 6); id < 2*segRows; id += 64 {
				h.Delete(txn.ID(9000), id)
			}
		}))
		if len(seg.xmax) != segRows {
			t.Fatalf("the lane holds %d stamps, want %d", len(seg.xmax), segRows)
		}
	}
	if fill > 2 || first != 1 || later != 0 {
		t.Errorf("a segment of 16 runs cost %d allocations, its first Delete %d and later ones %d; want at most 2 (the segment and the list of segments), 1 and 0", fill, first, later)
	}

	// One-row transactions: the runs spill once, to all segRows of them, so the
	// segment costs the list of segments, its object and the spill — one
	// allocation more than when its stamps were in its object — and no more
	// bytes than that object and the list did: the values, 16 B of stamps a
	// slot and a page, and two pointers.
	fill = ^uint64(0)
	bytes := ^uint64(0)
	for range 3 {
		h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
		h.EnsureNext(segRows)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range segRows {
			h.InsertRun(txn.ID(100+i), pool[i:i+1])
		}
		runtime.ReadMemStats(&after)
		fill, bytes = min(fill, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
		if seg := h.segs[1]; len(seg.runs) != segRows || cap(seg.runs) != segRows {
			t.Fatalf("one-row transactions are held in %d runs of capacity %d, want %d of %d", len(seg.runs), cap(seg.runs), segRows, segRows)
		}
	}
	if limit := uint64(segRows*(16+16) + 8192 + 2*8); fill > 3 || bytes > limit {
		t.Errorf("a segment of one-row transactions cost %d allocations and %d B, want at most 3 and %d B", fill, bytes, limit)
	}
}

// TestRunsMatchFlatStamps writes xmins into one segment — appends, gaps past
// the end, and slots filled inside gaps — and checks its runs against a flat
// array of xmins: each slot's xmin is the array's, and the runs are the
// fewest that say so, in order, none empty and no two neighbours equal. Odd
// seeds grow the runs as the first segment's, even ones as a later one's.
func TestRunsMatchFlatStamps(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var seg segment
		var flat []txn.ID
		si := int(seed % 2)
		for step := 0; step < 2000 && len(flat) < segRows-8; step++ {
			x := txn.ID(1 + r.Intn(3))
			off := len(flat) + r.Intn(4)
			if r.Intn(2) == 0 && len(flat) > 0 {
				off = r.Intn(len(flat))
			}
			if off < len(flat) && flat[off] != 0 {
				continue // stamp writes gaps and past the end only
			}
			for len(flat) <= off {
				flat = append(flat, 0)
			}
			flat[off] = x
			seg.stamp(si, off, x)
			if seg.size() != len(flat) {
				t.Fatalf("seed %d step %d: %d slots, want %d", seed, step, seg.size(), len(flat))
			}
			for i, want := range flat {
				if got := seg.xminAt(i); got != want {
					t.Fatalf("seed %d step %d: slot %d has xmin %d, want %d (runs %v)", seed, step, i, got, want, seg.runs)
				}
			}
			for i, run := range seg.runs {
				if i > 0 && (run.end <= seg.runs[i-1].end || run.xmin == seg.runs[i-1].xmin) {
					t.Fatalf("seed %d step %d: runs %v are not the fewest in order", seed, step, seg.runs)
				}
			}
		}
	}
}

// flatHeap is the reference the segmented heap is checked against: the one
// growing slice the heap was before it had segments, with the same
// operations and none of the locking.
type flatHeap struct{ versions []flatVersion }

type flatVersion struct {
	xmin, xmax txn.ID
	row        types.Row
}

func (f *flatHeap) insert(tx txn.ID, row types.Row) RowID {
	f.versions = append(f.versions, flatVersion{xmin: tx, row: row})
	return RowID(len(f.versions) - 1)
}

func (f *flatHeap) ensureNext(n RowID) {
	for RowID(len(f.versions)) < n {
		f.versions = append(f.versions, flatVersion{})
	}
}

func (f *flatHeap) insertAt(tx txn.ID, id RowID, row types.Row) (replaced bool) {
	f.ensureNext(id)
	if int(id) == len(f.versions) {
		f.insert(tx, row)
		return false
	}
	if v := &f.versions[id]; v.xmin != 0 {
		v.row = row
		return true
	}
	f.versions[id] = flatVersion{xmin: tx, row: row}
	return false
}

func (f *flatHeap) delete(tx txn.ID, id RowID) bool {
	if int(id) >= len(f.versions) || f.versions[id].xmin == 0 || f.versions[id].xmax != 0 {
		return false
	}
	f.versions[id].xmax = tx
	return true
}

func (f *flatHeap) undoDelete(tx txn.ID, id RowID) {
	if int(id) < len(f.versions) && f.versions[id].xmax == tx {
		f.versions[id].xmax = 0
	}
}

// vacuum empties the slots of dead versions and moves nothing.
func (f *flatHeap) vacuum(horizon txn.Snapshot) (removed int) {
	for id, v := range f.versions {
		if v.xmin != 0 && horizon.Dead(v.xmin, v.xmax) {
			f.versions[id] = flatVersion{}
			removed++
		}
	}
	return removed
}

// visible renders what a snapshot sees as "id:value" strings in id order.
func (f *flatHeap) visible(snap txn.Snapshot) []string {
	var out []string
	for id, v := range f.versions {
		if snap.VisibleVersion(v.xmin, v.xmax) {
			out = append(out, fmt.Sprintf("%d:%d", id, v.row[0].Int()))
		}
	}
	return out
}

func scanned(h *Heap, snap txn.Snapshot) []string {
	var out []string
	h.Scan(snap, func(id RowID, row types.Row) bool {
		out = append(out, fmt.Sprintf("%d:%d", id, row[0].Int()))
		return true
	})
	return out
}

// byValue looks every value ever inserted up in the index, as an index scan
// does — the tree's RowIDs, each read through the heap under snap — and
// renders what it finds as "value@id".
func byValue(h *Heap, ix *BTree, snap txn.Snapshot, values int64) []string {
	var out []string
	for v := int64(1); v <= values; v++ {
		ix.SeekEqual(intRow(v), func(id RowID) bool {
			if row, ok := h.Get(snap, id); ok {
				out = append(out, fmt.Sprintf("%d@%d", row[0].Int(), id))
			}
			return true
		})
	}
	return out
}

// TestHeapMatchesFlatModel drives random InsertRun / InsertRunAt (appending,
// leaving gaps, re-applying over slots some of which are occupied) /
// EnsureNext / Delete / UndoDelete / Vacuum, each Vacuum followed by the
// transaction manager's Trim at the same horizon, under transactions that
// commit and abort — one left in flight across every Vacuum — against the
// flat reference, with explicit ids on both sides of the
// first two segment boundaries. After every step the next RowID agrees and a
// probed id reads the same; every so often, and at the end, so does a whole
// scan. A Vacuum moves nothing: the visible (RowID, row) transcript and every
// lookup through an index kept as the engine keeps one (an entry per insert,
// the dropped versions' entries deleted after the Vacuum) are the same
// immediately before and after it, and the version in flight commits into
// the slot it took.
func TestHeapMatchesFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mgr := txn.NewManager()
		h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
		ref := &flatHeap{}
		ix := NewBTree()
		val := int64(0)
		row := func() types.Row { val++; return intRow(val) }
		indexed := func(id RowID, r types.Row, replaced bool) {
			if !replaced {
				ix.Insert(r, id)
			}
		}

		check := func(step int, what string) {
			t.Helper()
			if got, want := h.NextID(), RowID(len(ref.versions)); got != want {
				t.Fatalf("seed %d step %d (%s): NextID %d, model %d", seed, step, what, got, want)
			}
		}
		checkScan := func(step int, what string) {
			t.Helper()
			snap := mgr.SnapshotNow()
			if got, want := scanned(h, snap), ref.visible(snap); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d (%s): scan sees %d rows, model %d", seed, step, what, len(got), len(want))
			}
		}
		// Explicit ids around the boundaries first, as a replica applying a
		// primary's log with gaps would produce them.
		for _, id := range []RowID{segRows - 1, segRows, 2*segRows + 1, segRows, 3} {
			r := row()
			if int(id) < len(ref.versions) && ref.versions[id].xmin != 0 {
				r = ref.versions[id].row // a record applied again carries the row it did
			}
			tx := mgr.Begin()
			occupied, err := h.InsertRunAt(tx.ID, id, []types.Row{r})
			if err != nil {
				t.Fatal(err)
			}
			replaced := occupied != nil
			if want := ref.insertAt(tx.ID, id, r); replaced != want {
				t.Fatalf("InsertAt(%d): replaced %v, model %v", id, replaced, want)
			}
			indexed(id, r, replaced)
			tx.Commit()
			check(0, fmt.Sprint("InsertAt ", id))
		}
		checkScan(0, "boundary ids")

		var snap txn.Snapshot
		for step := 1; step <= 12000; step++ {
			tx := mgr.Begin()
			finished := false
			n := RowID(len(ref.versions))
			var what string
			switch op := rng.Intn(100); {
			case op < 55:
				what = "InsertRun"
				rows := make([]types.Row, 1+rng.Intn(4))
				for i := range rows {
					rows[i] = row()
				}
				first, err := h.InsertRun(tx.ID, rows)
				for i, r := range rows {
					if id := ref.insert(tx.ID, r); err != nil || id != first+RowID(i) {
						t.Fatalf("seed %d step %d: InsertRun of %d began at %d (%v), model puts row %d at %d", seed, step, len(rows), first, err, i, id)
					}
					indexed(first+RowID(i), r, false)
				}
			case op < 70:
				// A run at the end, past it (a gap), or over existing slots,
				// some occupied and some not.
				id := n + RowID(rng.Intn(4))
				if rng.Intn(3) == 0 && n > 0 {
					id = RowID(rng.Intn(int(n)))
				}
				rows := make([]types.Row, 1+rng.Intn(3))
				what = fmt.Sprintf("InsertRunAt %d, %d rows", id, len(rows))
				for i := range rows {
					rows[i] = row()
					if at := id + RowID(i); at < n && ref.versions[at].xmin != 0 {
						rows[i] = ref.versions[at].row // a record applied again carries the row it did
					}
				}
				occupied, err := h.InsertRunAt(tx.ID, id, rows)
				var want []int
				for i, r := range rows {
					replaced := ref.insertAt(tx.ID, id+RowID(i), r)
					if replaced {
						want = append(want, i)
					}
					indexed(id+RowID(i), r, replaced)
				}
				if err != nil || !slices.Equal(occupied, want) {
					t.Fatalf("seed %d step %d: %s found %v occupied (%v), model %v", seed, step, what, occupied, err, want)
				}
			case op < 73:
				next := n + RowID(rng.Intn(6))
				what = fmt.Sprint("EnsureNext ", next)
				h.EnsureNext(next)
				ref.ensureNext(next)
			case op < 90 && n > 0:
				id := RowID(rng.Intn(int(n) + 2))
				what = fmt.Sprint("Delete ", id)
				// A gap holds no row to delete, padded or never allocated.
				got := h.Delete(tx.ID, id) == nil
				if want := ref.delete(tx.ID, id); got != want {
					t.Fatalf("seed %d step %d: %s applied %v, model %v", seed, step, what, got, want)
				}
				if got && rng.Intn(3) == 0 {
					what += " + UndoDelete"
					h.UndoDelete(tx.ID, id)
					ref.undoDelete(tx.ID, id)
				}
			case op >= 98 && step%5 == 0:
				what = "Vacuum"
				tx.Commit()
				finished = true
				open := mgr.Begin() // in flight across the Vacuum: its version is not dead
				r := row()
				openID, _ := h.InsertRun(open.ID, []types.Row{r})
				ref.insert(open.ID, r)
				indexed(openID, r, false)
				snap = mgr.SnapshotNow()
				before, lookups := scanned(h, snap), byValue(h, ix, snap, val)
				var gone []item
				got := h.Vacuum(snap, func(id RowID, row types.Row) { gone = append(gone, item{key: row, rid: id}) })
				if want := ref.vacuum(snap); got != want || got != len(gone) {
					t.Fatalf("seed %d step %d: Vacuum removed %d and dropped %d, model %d", seed, step, got, len(gone), want)
				}
				for _, it := range gone {
					if !ix.Delete(it.key, it.rid) {
						t.Fatalf("seed %d step %d: dropped version %d was not indexed", seed, step, it.rid)
					}
				}
				mgr.Trim(snap) // as a checkpoint does: what those transactions created is gone
				if after := scanned(h, snap); !slices.Equal(after, before) {
					t.Fatalf("seed %d step %d: Vacuum changed what its horizon sees:\n%v\nwas\n%v", seed, step, after, before)
				}
				if after := byValue(h, ix, snap, val); !slices.Equal(after, lookups) {
					t.Fatalf("seed %d step %d: Vacuum changed what index lookups find:\n%v\nwas\n%v", seed, step, after, lookups)
				}
				open.Commit()
				if row, ok := h.Get(mgr.SnapshotNow(), openID); !ok || !row.Equal(r) {
					t.Fatalf("seed %d step %d: the version in flight across the Vacuum reads %v, %v", seed, step, row, ok)
				}
				checkScan(step, what)
			default:
				what = "Get"
			}
			if !finished {
				if rng.Intn(8) == 0 {
					tx.Abort()
				} else {
					tx.Commit()
				}
			}
			check(step, what)
			if step%16 == 1 {
				snap = mgr.SnapshotNow() // the probes between are under an ageing snapshot
			}
			if n := len(ref.versions); n > 0 {
				id := RowID(rng.Intn(n))
				got, ok := h.Get(snap, id)
				v := ref.versions[id]
				if want := snap.VisibleVersion(v.xmin, v.xmax); ok != want || (ok && got[0].Int() != v.row[0].Int()) {
					t.Fatalf("seed %d step %d (%s): Get(%d) = %v, %v; model visible %v", seed, step, what, id, got, ok, want)
				}
			}
			if step%1500 == 0 {
				checkScan(step, what)
			}
		}
		checkScan(-1, "end")
	}
}

// TestInsertRunTakesTheLockOnce: a run goes in under one acquisition of the
// heap's lock, so a reader — which fixes its end with one and reads with
// another — finds whole runs only, at the next RowIDs or at explicit ones past
// a gap. A lock per row would let both land inside a run.
func TestInsertRunTakesTheLockOnce(t *testing.T) {
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	snap := txn.NewManager().SnapshotNow() // sees the bootstrap transaction's rows
	const run = 256
	rows := make([]types.Row, run)
	for i := range rows {
		rows[i] = intRow(int64(i))
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var got []types.Row
		for {
			select {
			case <-stop:
				return
			default:
			}
			got = got[:0]
			blk := types.NewRowBlock(0, 1)
			if h.Read(snap, 0, h.NextID(), 1<<30, &blk, &got, nil); len(got)%run != 0 {
				t.Errorf("a reader found %d rows: part of a run of %d", len(got), run)
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		if _, err := h.InsertRun(txn.Bootstrap, rows); err != nil {
			t.Fatal(err)
		}
		if occupied, err := h.InsertRunAt(txn.Bootstrap, h.NextID()+3, rows); err != nil || occupied != nil {
			t.Fatal(occupied, err)
		}
	}
	close(stop)
	<-done
}

// TestReadStopsAtMax: a chunk read stops at the row that fills it — the
// position it returns is one past that row's id, however many invisible
// versions follow — and reading on from there, across segment boundaries,
// yields every visible row exactly once.
func TestReadStopsAtMax(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	const n = 2*segRows + 100
	var want []RowID
	for i := 0; i < n; i++ {
		tx := mgr.Begin()
		id, _ := h.InsertRun(tx.ID, []types.Row{intRow(int64(i))})
		// Runs of invisible versions of every length up to 6, some of them
		// straddling a boundary.
		if i%11 < i%7 {
			tx.Abort()
			continue
		}
		tx.Commit()
		want = append(want, id)
	}
	snap, end := mgr.SnapshotNow(), h.NextID()

	var rows []types.Row
	var ids []RowID
	blk := types.NewRowBlock(0, 1)
	pos := h.Read(snap, 0, end, 3, &blk, &rows, &ids)
	if len(rows) != 3 || len(ids) != 3 || pos != want[2]+1 {
		t.Fatalf("Read(max 3) returned %d rows, ids %v, pos %d; want pos %d", len(rows), ids, pos, want[2]+1)
	}
	for _, max := range []int{1, 7, 1000, segRows, n} {
		var got []RowID
		calls := 0
		for pos := RowID(0); pos < end; calls++ {
			rows, ids = rows[:0], ids[:0]
			next := h.Read(snap, pos, end, max, &blk, &rows, &ids)
			if len(rows) > max || len(rows) != len(ids) {
				t.Fatalf("max %d: a read returned %d rows and %d ids", max, len(rows), len(ids))
			}
			if len(rows) == max && next != ids[max-1]+1 {
				t.Fatalf("max %d: a full read ending at id %d resumes at %d", max, ids[max-1], next)
			}
			if next <= pos {
				t.Fatalf("max %d: read at %d did not advance (%d)", max, pos, next)
			}
			for i, id := range ids {
				if rows[i][0].Int() != int64(id) {
					t.Fatalf("max %d: id %d carries row %d", max, id, rows[i][0].Int())
				}
			}
			got = append(got, ids...)
			pos = next
		}
		if len(got) != len(want) {
			t.Fatalf("max %d: %d rows read, %d visible", max, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("max %d: row %d is id %d, want %d", max, i, got[i], want[i])
			}
		}
		if min := (len(want) + max - 1) / max; calls > min+1 {
			t.Fatalf("max %d: %d rows took %d reads", max, len(want), calls)
		}
	}
	// A range inside the table, and one whose end lies past it.
	rows, ids = rows[:0], ids[:0]
	if pos := h.Read(snap, segRows-2, segRows+2, 100, &blk, &rows, &ids); pos != segRows+2 {
		t.Fatalf("Read of [segRows-2, segRows+2) resumes at %d", pos)
	}
	for _, id := range ids {
		if id < segRows-2 || id >= segRows+2 {
			t.Fatalf("Read of [segRows-2, segRows+2) returned id %d", id)
		}
	}
	if pos := h.Read(snap, end-1, end+50, 100, &blk, &rows, nil); pos != end+50 {
		t.Fatalf("Read past the end resumes at %d, want its end %d", pos, end+50)
	}
}

// TestScanSeesItsSnapshotUnderWrites: while other goroutines append rows
// and delete the ones that were there, under transactions that began after
// the reader's snapshot, every scan under that snapshot — Scan, and Read in
// chunks of a few sizes — returns exactly the rows the snapshot saw. Run
// under -race (make drain-policies) this is also the proof that readers and
// writers of a segment synchronize.
func TestScanSeesItsSnapshotUnderWrites(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	const n = segRows + segRows/2
	tx := mgr.Begin()
	for i := 0; i < n; i++ {
		h.InsertRun(tx.ID, []types.Row{intRow(int64(i))})
	}
	tx.Commit()
	snap := mgr.SnapshotNow()

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(2)
	go func() { // appends: past the end of the first segment and the second
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := mgr.Begin()
			h.InsertRun(tx.ID, []types.Row{intRow(-1)})
			if i%5 == 0 {
				tx.Abort()
			} else {
				tx.Commit()
			}
		}
	}()
	go func() { // deletes of what the snapshot sees, committed and undone
		defer writers.Done()
		for id := RowID(0); ; id = (id + 7) % n {
			select {
			case <-stop:
				return
			default:
			}
			tx := mgr.Begin()
			if h.Delete(tx.ID, id) != nil {
				tx.Abort()
				continue
			}
			if id%2 == 0 {
				tx.Abort()
				h.UndoDelete(tx.ID, id)
			} else {
				tx.Commit()
			}
		}
	}()

	verify := func(how string, got []int64) {
		t.Helper()
		if len(got) != n {
			t.Errorf("%s: %d rows, the snapshot holds %d", how, len(got), n)
			return
		}
		for i, v := range got {
			if v != int64(i) {
				t.Errorf("%s: row %d is %d", how, i, v)
				return
			}
		}
	}
	for round := 0; round < 20; round++ {
		var got []int64
		h.Scan(snap, func(_ RowID, row types.Row) bool {
			got = append(got, row[0].Int())
			return true
		})
		verify("Scan", got)
		for _, max := range []int{1, 100, 1024} {
			got = got[:0]
			var rows []types.Row
			blk := types.NewRowBlock(0, 1)
			for pos, end := RowID(0), h.NextID(); pos < end; {
				rows = rows[:0]
				blk.Rewind()
				pos = h.Read(snap, pos, end, max, &blk, &rows, nil)
				for _, row := range rows {
					got = append(got, row[0].Int())
				}
			}
			verify(fmt.Sprint("Read max ", max), got)
		}
	}
	close(stop)
	writers.Wait()
}

// TestHeapGrowthAllocsOncePerSegment: past its first segment a heap
// allocates one segment per segRows versions and copies nothing — one object,
// its header and inline runs and its words, 8 B a column, which rounds it up
// a page; the limit is the one set when a version paid 16 B of values and 16 B
// of stamps — where one slice regrowing allocated the table
// more than twice over. And a scan of it allocates its two containers and the
// one block its rows are built into, each sized by the chunk, not by the
// table.
func TestHeapGrowthAllocsOncePerSegment(t *testing.T) {
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	row := intRow(1)
	for i := 0; i < segRows; i++ {
		h.InsertRun(txn.Bootstrap, []types.Row{row})
	}
	const segments = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < segments*segRows; i++ {
		h.InsertRun(txn.Bootstrap, []types.Row{row})
	}
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	// The segments, and the list of them doubling a few times.
	if limit := uint64(segments*(segRows*(16+16)+8192) + 4096); bytes > limit || mallocs > segments+6 {
		t.Errorf("appending %d segments of versions allocated %d B in %d allocations, want ≤ %d B in ≤ %d",
			segments, bytes, mallocs, limit, segments+6)
	}

	snap := txn.NewManager().SnapshotNow()
	seen := 0
	allocs := testing.AllocsPerRun(3, func() {
		seen = 0
		h.Scan(snap, func(RowID, types.Row) bool { seen++; return true })
	})
	if seen != (segments+1)*segRows || allocs > 3 {
		t.Errorf("a scan of %d rows saw %d and allocated %.0f times, want its two containers and its block", (segments+1)*segRows, seen, allocs)
	}
}

// liveHeapBytes is what the garbage collector finds reachable right now.
func liveHeapBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestVacuumReleasesDeadSegments: of three full segments the second dies whole
// and the third but for one row. Vacuum gives the second back — the heap's
// reachable bytes fall by that segment's (8 + 8) B × segRows (the one
// column's words, and the xmax lane its deletes made) and by no second one —
// and the third keeps its slots for its survivor, which is what stable RowIDs
// cost. Nothing moved: the first segment's rows and the survivor read as
// before under their RowIDs, the next row takes the next RowID, and a record
// replayed into the released range finds room again.
func TestVacuumReleasesDeadSegments(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	row := intRow(7) // one row for every version: the bytes counted are the heap's own
	tx := mgr.Begin()
	for i := 0; i < 3*segRows; i++ {
		h.InsertRun(tx.ID, []types.Row{row})
	}
	tx.Commit()
	const survivor = 2*segRows + 17
	tx = mgr.Begin()
	for id := RowID(segRows); id < 3*segRows; id++ {
		if id != survivor {
			if err := h.Delete(tx.ID, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	tx.Commit()

	before := liveHeapBytes()
	removed := h.Vacuum(mgr.SnapshotNow(), nil)
	freed := int64(before) - int64(liveHeapBytes())
	if removed != 2*segRows-1 {
		t.Fatalf("Vacuum removed %d versions, want %d", removed, 2*segRows-1)
	}
	if seg := int64(segRows * (8 + 8)); freed < seg*9/10 || freed > seg*3/2 {
		t.Errorf("Vacuum freed %d B, want one segment's %d", freed, seg)
	}
	if h.segs[1] != nil || h.segs[2].size() != segRows {
		t.Errorf("after Vacuum segment 1 is %v and segment 2 holds %d slots, want nil and %d", h.segs[1], h.segs[2].size(), segRows)
	}
	snap := mgr.SnapshotNow()
	if n := count(h, snap); n != segRows+1 {
		t.Fatalf("%d rows visible after Vacuum, want %d", n, segRows+1)
	}
	for _, id := range []RowID{0, segRows - 1, survivor} {
		if _, ok := h.Get(snap, id); !ok {
			t.Errorf("RowID %d is gone", id)
		}
	}
	if _, ok := h.Get(snap, segRows+5); ok {
		t.Error("a reclaimed RowID reads as a row")
	}
	if id, _ := h.InsertRun(txn.Bootstrap, []types.Row{row}); id != 3*segRows {
		t.Errorf("the next RowID after Vacuum is %d, want %d", id, 3*segRows)
	}
	if replaced, err := h.InsertRunAt(txn.Bootstrap, segRows+5, []types.Row{row}); err != nil || replaced != nil {
		t.Fatalf("InsertAt into the released segment: replaced %v, %v", replaced, err)
	}
	if _, ok := h.Get(mgr.SnapshotNow(), segRows+5); !ok {
		t.Error("the row replayed into the released segment is not there")
	}
	runtime.KeepAlive(h)
}

// TestHeldRowsOutliveWrites holds the heap's two rules against a reader
// that keeps what Read built for it, strings pointing into the heap's arenas,
// and a span of the rows: of three segments the second dies whole
// and the third in part, and while the reader re-reads its rows Vacuum runs,
// a run is replayed into the released segment, one onto occupied slots and
// one onto the third segment's reclaimed slots. Under -race (make
// drain-policies) a write into memory a held row uses is a reported race;
// without it, a held row must read as it did. The occupied slots keep their
// rows; the rows written into released and reclaimed slots read back.
func TestHeldRowsOutliveWrites(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}, {Name: "s", Type: types.TypeString}})
	row := func(i int) types.Row {
		return types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprint("row-", i))}
	}
	tx := mgr.Begin()
	for i := 0; i < 3*segRows; i++ {
		h.InsertRun(tx.ID, []types.Row{row(i)})
	}
	tx.Commit()
	var held []types.Row
	blk := types.NewRowBlock(0, 2)
	h.Read(mgr.SnapshotNow(), 0, h.NextID(), 3*segRows, &blk, &held, nil)
	spans := h.Spans(2*segRows, segRows, nil)
	tx = mgr.Begin()
	for id := RowID(segRows); id < 2*segRows+100; id++ {
		if err := h.Delete(tx.ID, id); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	stop, done := make(chan struct{}), make(chan error)
	go func() {
		for {
			for i, r := range held {
				if r[0].Int() != int64(i) || r[1].Str() != fmt.Sprint("row-", i) {
					done <- fmt.Errorf("held row %d reads %v", i, r)
					return
				}
			}
			for i, r := 0, make(types.Row, 2); i < spans[0].Len(); i++ {
				if spans[0].Row(i, r); !r.Equal(held[2*segRows+i]) {
					done <- fmt.Errorf("held span's row %d reads %v", i, r)
					return
				}
			}
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
		}
	}()
	if n := h.Vacuum(mgr.SnapshotNow(), nil); n != segRows+100 {
		t.Errorf("Vacuum reclaimed %d versions, want %d", n, segRows+100)
	}
	runs := []struct {
		what  string
		first RowID
		occ   bool
	}{{"the released segment", segRows + 10, false}, {"occupied slots", 10, true}, {"reclaimed slots", 2*segRows + 10, false}}
	for _, run := range runs {
		rows := []types.Row{row(-1), row(-2), row(-3)}
		occupied, err := h.InsertRunAt(txn.Bootstrap, run.first, rows)
		if err != nil || (occupied != nil) != run.occ {
			t.Fatalf("InsertRunAt into %s: occupied %v, %v", run.what, occupied, err)
		}
		for i, r := range rows {
			want := row(-1 - i)
			if run.occ {
				want = row(int(run.first) + i)
			}
			if stored, ok := h.Get(mgr.SnapshotNow(), run.first+RowID(i)); !ok || !stored.Equal(want) || !r.Equal(row(-1-i)) {
				t.Errorf("InsertRunAt into %s: row %d reads %v (the caller's %v), want %v", run.what, i, stored, r, want)
			}
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestFarRowIDCostsOneSegment: a table whose first live RowID is ten million
// — what recovery and a replica see of one that has lived long — costs the
// segment that row is in and the list of segments, not 400 MB of padding, and
// a scan of it finds the row. EnsureNext moves the next RowID and allocates
// nothing.
func TestFarRowIDCostsOneSegment(t *testing.T) {
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	const far = 10_000_000
	row := intRow(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if replaced, err := h.InsertRunAt(txn.Bootstrap, far, []types.Row{row}); err != nil || replaced != nil {
		t.Fatalf("InsertAt(%d): replaced %v, %v", far, replaced, err)
	}
	h.EnsureNext(2 * far)
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	// One segment — its stamps and its values, 128 kB — and the list of them,
	// 20 kB, rounded up to a size class and built twice under the race detector.
	if limit := uint64(2 * segRows * 40); bytes > limit || mallocs > 4 {
		t.Errorf("a row at RowID %d allocated %d B in %d allocations, want ≤ %d B (one segment and the list) in ≤ 4", far, bytes, mallocs, limit)
	}
	if got := scanned(h, txn.NewManager().SnapshotNow()); len(got) != 1 || got[0] != fmt.Sprint(far, ":1") {
		t.Errorf("a scan finds %v", got)
	}
	if id, _ := h.InsertRun(txn.Bootstrap, []types.Row{row}); id != 2*far {
		t.Errorf("after EnsureNext(%d) the next RowID is %d", 2*far, id)
	}
}

// TestHeapStampFollowsEveryWrite: every write that can change what a snapshot
// reads below the next RowID moves the heap's mutation generation — a row
// filling a gap, a delete, an undone delete, and an insert applied again onto
// an occupied slot (which stores nothing, but is a write below the next
// RowID) — and every append moves the next RowID; each stamps its transaction
// into last. What changes nothing a snapshot reads moves neither: a refused
// delete, an undo of a stamp that is not there, the reads, and Vacuum, which
// reclaims only versions dead to every snapshot that decides the heap's
// stamps. EnsureNext moves the next RowID alone.
func TestHeapStampFollowsEveryWrite(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	if mark, last := h.Stamp(); mark != (Mark{}) || last != 0 {
		t.Fatalf("an empty heap is stamped (%v, %d)", mark, last)
	}
	ins, del := mgr.Begin(), mgr.Begin()
	step := func(what string, mut, next bool, wantLast txn.ID, write func()) {
		t.Helper()
		before, _ := h.Stamp()
		write()
		after, last := h.Stamp()
		if (after.Mut != before.Mut) != mut || (after.Next != before.Next) != next || last != wantLast {
			t.Errorf("%s: mark %v → %v, last %d; want Mut moved %v, Next moved %v, last %d", what, before, after, last, mut, next, wantLast)
		}
	}
	step("InsertRun", false, true, ins.ID, func() { h.InsertRun(ins.ID, []types.Row{intRow(1), intRow(2), intRow(3)}) })
	step("InsertRunAt past the end", false, true, ins.ID, func() { h.InsertRunAt(txn.Bootstrap, 10, []types.Row{intRow(10)}) })
	step("InsertRunAt over an occupied slot", true, false, ins.ID, func() { h.InsertRunAt(txn.Bootstrap, 1, []types.Row{intRow(20)}) })
	step("Delete", true, false, del.ID, func() {
		if err := h.Delete(del.ID, 0); err != nil {
			t.Fatal(err)
		}
	})
	step("a Delete of a deleted row", false, false, del.ID, func() { h.Delete(ins.ID, 0) })
	step("a Delete of a gap", false, false, del.ID, func() { h.Delete(del.ID, 5) })
	step("InsertRunAt into a gap below the end", true, false, del.ID, func() { h.InsertRunAt(txn.Bootstrap, 5, []types.Row{intRow(5)}) })
	step("UndoDelete of another's stamp", false, false, del.ID, func() { h.UndoDelete(ins.ID, 0) })
	step("UndoDelete", true, false, del.ID, func() { h.UndoDelete(del.ID, 0) })
	step("UndoDelete again", false, false, del.ID, func() { h.UndoDelete(del.ID, 0) })
	ins.Commit()
	del.Abort()
	step("Delete and commit", true, false, del.ID+1, func() {
		tx := mgr.Begin()
		h.Delete(tx.ID, 2)
		tx.Commit()
	})
	snap := mgr.SnapshotNow()
	before := scanned(h, snap)
	step("Vacuum", false, false, del.ID+1, func() {
		if n := h.Vacuum(snap, nil); n != 1 {
			t.Fatalf("Vacuum reclaimed %d versions, want the deleted one", n)
		}
	})
	step("EnsureNext", false, true, del.ID+1, func() { h.EnsureNext(100) })
	step("the reads", false, false, del.ID+1, func() {
		h.Get(snap, 1)
		h.NextID()
		scanned(h, snap)
	})
	if after := scanned(h, mgr.SnapshotNow()); !slices.Equal(before, after) {
		t.Fatalf("Vacuum changed what a later snapshot reads: %v, then %v", before, after)
	}
}

// BenchmarkGCMarkRows is internal/types' benchmark of that name over a heap:
// a forced collection over a million resident rows of the same shape (a
// VARCHAR of 512 distinct values, a TIMESTAMP, a BIGINT, a DOUBLE) stored in
// 4 096-row runs, reported per live row, with the live heap. A heap's rows are
// its segments' words, their strings in its arena, so the collector scans a
// segment's header and each string's chunk once, and none of its words.
func BenchmarkGCMarkRows(b *testing.B) {
	b.Run("Heap", func(b *testing.B) {
		const n, run = 1 << 20, 4096
		h := NewHeap("t", types.Schema{{Name: "url", Type: types.TypeString}, {Name: "at", Type: types.TypeTimestamp},
			{Name: "n", Type: types.TypeInt}, {Name: "x", Type: types.TypeFloat}})
		r := rand.New(rand.NewSource(1))
		keys := make([]string, 512)
		for i := range keys {
			keys[i] = fmt.Sprintf("/page/%d", i)
		}
		rows := make([]types.Row, run)
		for i := 0; i < n; i += run {
			for j := range rows {
				rows[j] = types.Row{types.NewString(keys[r.Intn(len(keys))]), types.NewTimestampMicros(int64(i+j) * 1000),
					types.NewInt(r.Int63n(1 << 20)), types.NewFloat(r.Float64() * 100)}
			}
			h.InsertRun(txn.Bootstrap, rows)
		}
		clear(rows)
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runtime.GC()
		}
		b.StopTimer()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/live-row")
		b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MB")
		runtime.KeepAlive(h)
	})
}

// TestSpansHoldTheRows: Spans gives a run's rows as views of the heap's own
// chunks — one a chunk, so a run across the first segment's growing chunks or
// a segment boundary gets one a chunk it crosses — whose rows, in order, are
// the rows Read builds, their strings the very bytes: and a span outlives a
// Vacuum that released its chunk, as a held row does.
func TestSpansHoldTheRows(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}, {Name: "s", Type: types.TypeString}})
	tx := mgr.Begin()
	for i := 0; i < 2*segRows+100; i += 700 {
		rows := make([]types.Row, min(700, 2*segRows+100-i))
		for j := range rows {
			rows[j] = types.Row{types.NewInt(int64(i + j)), types.NewString(fmt.Sprint("v", i+j))}
		}
		if _, err := h.InsertRun(tx.ID, rows); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	snap := mgr.SnapshotNow()
	for _, c := range []struct {
		first RowID
		n     int
		spans int
	}{{0, 1, 1}, {0, 3, 3}, {1, 2, 2}, {5, 100, 5}, {1024, 1024, 1}, {2047, 2, 2}, {segRows - 3, 10, 2}, {segRows, segRows, 1}, {2*segRows - 1, 50, 2}} {
		spans := h.Spans(c.first, c.n, nil)
		var rows, viewed []types.Row
		blk := types.NewRowBlock(0, 2)
		h.Read(snap, c.first, c.first+RowID(c.n), c.n, &blk, &rows, nil)
		for _, s := range spans {
			viewed = spanRows(s, viewed)
		}
		if len(spans) != c.spans || len(viewed) != c.n || len(rows) != c.n {
			t.Fatalf("%d rows from %d: %d spans of %d rows, %d rows read; want %d spans", c.n, c.first, len(spans), len(viewed), len(rows), c.spans)
		}
		for i := range rows {
			if !viewed[i].Equal(rows[i]) || unsafe.StringData(viewed[i][1].Str()) != unsafe.StringData(rows[i][1].Str()) {
				t.Fatalf("%d rows from %d: row %d is not the span's", c.n, c.first, i)
			}
		}
	}

	held := h.Spans(segRows, 10, nil)
	tx = mgr.Begin()
	for id := RowID(segRows); id < 2*segRows; id++ {
		if err := h.Delete(tx.ID, id); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	h.Vacuum(mgr.SnapshotNow(), nil)
	runtime.GC()
	first, last := make(types.Row, 2), make(types.Row, 2)
	held[0].Row(0, first)
	held[0].Row(9, last)
	if h.segs[1] != nil || first[0].Int() != segRows || last[1].Str() != fmt.Sprint("v", segRows+9) {
		t.Fatalf("after Vacuum segment 1 is %v and the span reads %v … %v", h.segs[1], first, last)
	}
}
