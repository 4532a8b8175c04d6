package storage

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"weak"

	"streamrel/internal/txn"
	"streamrel/internal/types"
)

func intRow(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

// count is the number of rows visible under snap.
func count(h *Heap, snap txn.Snapshot) int {
	n := 0
	h.Scan(snap, func(RowID, types.Row) bool { n++; return true })
	return n
}

func TestHeapInsertScanVisibility(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})

	tx1 := mgr.Begin()
	if _, err := h.InsertRun(tx1.ID, []types.Row{intRow(1)}); err != nil {
		t.Fatal(err)
	}

	// Before commit, another snapshot sees nothing.
	if n := count(h, mgr.SnapshotNow()); n != 0 {
		t.Fatalf("uncommitted row visible: count=%d", n)
	}
	// The owning txn sees its own write.
	if n := count(h, tx1.Snap); n != 1 {
		t.Fatalf("own write invisible: count=%d", n)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := count(h, mgr.SnapshotNow()); n != 1 {
		t.Fatalf("committed row invisible: count=%d", n)
	}

	// A snapshot taken before the commit of a concurrent txn must not see
	// its rows.
	tx2 := mgr.Begin()
	early := mgr.SnapshotNow()
	if _, err := h.InsertRun(tx2.ID, []types.Row{intRow(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := count(h, early); n != 1 {
		t.Fatalf("snapshot isolation violated: count=%d", n)
	}
	if n := count(h, mgr.SnapshotNow()); n != 2 {
		t.Fatalf("count=%d", n)
	}
}

func TestHeapAbortInvisible(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	tx := mgr.Begin()
	if _, err := h.InsertRun(tx.ID, []types.Row{intRow(9)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := count(h, mgr.SnapshotNow()); n != 0 {
		t.Fatalf("aborted row visible: count=%d", n)
	}
}

func TestHeapDelete(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	tx := mgr.Begin()
	id, _ := h.InsertRun(tx.ID, []types.Row{intRow(1)})
	tx.Commit()

	before := mgr.SnapshotNow()
	tx2 := mgr.Begin()
	if err := h.Delete(tx2.ID, id); err != nil {
		t.Fatal(err)
	}
	// Deleter no longer sees it; old snapshot still does.
	if _, ok := h.Get(tx2.Snap, id); ok {
		t.Fatal("deleter still sees row")
	}
	if _, ok := h.Get(before, id); !ok {
		t.Fatal("old snapshot lost the row before commit")
	}
	tx2.Commit()
	if _, ok := h.Get(before, id); !ok {
		t.Fatal("pre-delete snapshot must keep seeing the row (MVCC)")
	}
	if _, ok := h.Get(mgr.SnapshotNow(), id); ok {
		t.Fatal("row visible after committed delete")
	}
	// Double delete errors.
	tx3 := mgr.Begin()
	if err := h.Delete(tx3.ID, id); err == nil {
		t.Fatal("double delete should error")
	}
	tx3.Abort()
}

func TestHeapUndoDelete(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	tx := mgr.Begin()
	id, _ := h.InsertRun(tx.ID, []types.Row{intRow(1)})
	tx.Commit()

	tx2 := mgr.Begin()
	h.Delete(tx2.ID, id)
	tx2.Abort()
	h.UndoDelete(tx2.ID, id)
	if _, ok := h.Get(mgr.SnapshotNow(), id); !ok {
		t.Fatal("row should be visible after aborted delete is undone")
	}
}

func TestHeapSchemaMismatch(t *testing.T) {
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	if _, err := h.InsertRun(txn.Bootstrap, []types.Row{intRow(1, 2)}); err == nil {
		t.Fatal("arity mismatch should error")
	}
	if err := h.Delete(txn.Bootstrap, 99); err == nil {
		t.Fatal("deleting nonexistent row should error")
	}
}

func TestHeapVacuum(t *testing.T) {
	mgr := txn.NewManager()
	h := NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	tx := mgr.Begin()
	var ids []RowID
	for i := int64(0); i < 10; i++ {
		id, _ := h.InsertRun(tx.ID, []types.Row{intRow(i)})
		ids = append(ids, id)
	}
	tx.Commit()
	tx2 := mgr.Begin()
	for _, id := range ids[:5] {
		h.Delete(tx2.ID, id)
	}
	tx2.Commit()
	removed := h.Vacuum(mgr.SnapshotNow(), nil)
	if removed != 5 {
		t.Fatalf("Vacuum removed %d, want 5", removed)
	}
	if n := count(h, mgr.SnapshotNow()); n != 5 {
		t.Fatalf("count after vacuum = %d", n)
	}
	// The survivors are where they were, and the next row goes where it would
	// have gone: no RowID moved and none is handed out twice.
	for i, id := range ids[5:] {
		if row, ok := h.Get(mgr.SnapshotNow(), id); !ok || row[0].Int() != int64(5+i) {
			t.Fatalf("after vacuum RowID %d reads %v, %v", id, row, ok)
		}
	}
	if id, _ := h.InsertRun(txn.Bootstrap, []types.Row{intRow(10)}); id != 10 {
		t.Fatalf("after vacuum the next RowID is %d, want 10", id)
	}
	if err := h.Delete(txn.Bootstrap, ids[0]); err == nil {
		t.Fatal("a reclaimed RowID still holds a row to delete")
	}
}

func TestBTreeBasics(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 100; i++ {
		bt.Insert(intRow(i%10, i), RowID(i))
	}
	if bt.Len() != 100 {
		t.Fatalf("Len = %d", bt.Len())
	}
	// SeekEqual on composite prefix needs full key here; check exact key.
	var got []RowID
	bt.SeekEqual(intRow(3, 13), func(r RowID) bool { got = append(got, r); return true })
	if len(got) != 1 || got[0] != 13 {
		t.Fatalf("SeekEqual = %v", got)
	}
	// Range scan.
	var keys []int64
	bt.AscendRange(intRow(2, 0), intRow(2, 99), func(k types.Row, _ RowID) bool {
		keys = append(keys, k[1].Int())
		return true
	})
	if len(keys) != 10 {
		t.Fatalf("range scan found %d, want 10", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("range scan out of order")
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 50; i++ {
		bt.Insert(intRow(7), RowID(i))
	}
	n := 0
	bt.SeekEqual(intRow(7), func(RowID) bool { n++; return true })
	if n != 50 {
		t.Fatalf("found %d duplicates, want 50", n)
	}
	if !bt.Delete(intRow(7), RowID(25)) {
		t.Fatal("delete of existing entry failed")
	}
	if bt.Delete(intRow(7), RowID(25)) {
		t.Fatal("second delete should report not found")
	}
	n = 0
	bt.SeekEqual(intRow(7), func(RowID) bool { n++; return true })
	if n != 49 {
		t.Fatalf("found %d after delete, want 49", n)
	}
}

func TestBTreeEarlyStop(t *testing.T) {
	bt := NewBTree()
	for i := int64(0); i < 200; i++ {
		bt.Insert(intRow(i), RowID(i))
	}
	n := 0
	bt.Ascend(func(types.Row, RowID) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestBTreeMatchesModel is a property test: random inserts and deletes
// against a sorted-slice model must agree on full-order iteration — while the
// tree grows, while deletes outnumber inserts three to one until it is empty
// (deletion never merges, so leaves and whole subtrees empty out under items
// that are still there), and when it grows again from that.
func TestBTreeMatchesModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	bt := NewBTree()
	type entry struct {
		k   int64
		rid RowID
	}
	var model []entry
	for _, phase := range []struct{ ops, insertOf4 int }{{10000, 3}, {30000, 1}, {2000, 3}} {
		for op := 0; op < phase.ops; op++ {
			if r.Intn(4) < phase.insertOf4 || len(model) == 0 {
				k := int64(r.Intn(500))
				rid := RowID(r.Int63())
				bt.Insert(intRow(k), rid)
				model = append(model, entry{k, rid})
			} else {
				i := r.Intn(len(model))
				e := model[i]
				if !bt.Delete(intRow(e.k), e.rid) {
					t.Fatalf("op %d: model entry missing from tree", op)
				}
				model = append(model[:i], model[i+1:]...)
			}
		}
		sort.Slice(model, func(i, j int) bool {
			if model[i].k != model[j].k {
				return model[i].k < model[j].k
			}
			return model[i].rid < model[j].rid
		})
		if bt.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", bt.Len(), len(model))
		}
		i := 0
		bt.Ascend(func(k types.Row, rid RowID) bool {
			if i >= len(model) {
				t.Fatalf("tree has extra entries")
			}
			if k[0].Int() != model[i].k || rid != model[i].rid {
				t.Fatalf("position %d: tree (%d,%d) vs model (%d,%d)",
					i, k[0].Int(), rid, model[i].k, model[i].rid)
			}
			i++
			return true
		})
		if i != len(model) {
			t.Fatalf("tree iterated %d, model %d", i, len(model))
		}
		// Range queries agree with the model too.
		for trial := 0; trial < 50; trial++ {
			lo := int64(r.Intn(500))
			hi := lo + int64(r.Intn(100))
			want := 0
			for _, e := range model {
				if e.k >= lo && e.k <= hi {
					want++
				}
			}
			got := 0
			bt.AscendRange(intRow(lo), intRow(hi), func(types.Row, RowID) bool { got++; return true })
			if got != want {
				t.Fatalf("range [%d,%d]: got %d, want %d", lo, hi, got, want)
			}
		}
	}
}

// btreeKeys returns n distinct one-column keys, in random or ascending order.
func btreeKeys(ascending bool, n int) []types.Row {
	keys := make([]types.Row, n)
	for i, v := range rand.New(rand.NewSource(7)).Perm(n) {
		if ascending {
			v = i
		}
		keys[i] = intRow(int64(v))
	}
	return keys
}

// shape counts the tree's leaves and interior nodes, and its levels.
func (n *node) shape() (leaves, interiors, height int) {
	if n.leaf() {
		return 1, 0, 1
	}
	for _, c := range n.children {
		l, i, h := c.shape()
		leaves, interiors, height = leaves+l, interiors+i, h
	}
	return leaves, interiors + 1, height + 1
}

// TestBTreeSplitAllocs: a split allocates its new node once, with the
// array of items it will ever hold, so 20 000 inserts, random or ascending,
// cost one object a leaf split, two an interior one (its children's array
// too), and the root's growth by append — at most 16 objects a level: its
// items and its children's array doubling to 64. A split that copied the
// upper half exactly cost that copy and its regrowth by the next insert too.
func TestBTreeSplitAllocs(t *testing.T) {
	const n = 20000
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, ascending := range []bool{false, true} {
		keys, bt := btreeKeys(ascending, n), NewBTree()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, k := range keys {
			bt.Insert(k, RowID(i))
		}
		runtime.ReadMemStats(&after)
		leaves, interiors, height := bt.root.shape()
		allocs, want := after.Mallocs-before.Mallocs, uint64(leaves+2*interiors+16*height)
		t.Logf("ascending %v: %d allocations for %d leaves, %d interior nodes, %d levels", ascending, allocs, leaves, interiors, height)
		if allocs > want {
			t.Errorf("ascending %v: %d inserts allocate %d times, want ≤ %d: %d leaves, %d interior nodes, %d levels",
				ascending, n, allocs, want, leaves, interiors, height)
		}
	}
}

// TestBTreeSplitPinsNoDeletedKey: a split clears the half it moves from the
// node it splits, so a key deleted from the new node — an index key may be a
// view of its heap row — is garbage, not held by a stale copy.
func TestBTreeSplitPinsNoDeletedKey(t *testing.T) {
	bt := NewBTree()
	var key weak.Pointer[types.Datum]
	for i := range btreeDegree { // the last insert splits the root leaf
		k := intRow(int64(i))
		if i == btreeDegree-2 {
			key = weak.Make(&k[0])
		}
		bt.Insert(k, RowID(i))
	}
	if !bt.Delete(intRow(btreeDegree-2), btreeDegree-2) {
		t.Fatal("the key is not in the tree")
	}
	runtime.GC()
	runtime.GC()
	if key.Value() != nil {
		t.Fatal("a key deleted after a split is still reachable")
	}
	runtime.KeepAlive(bt)
}

// BenchmarkBTreeInsert: 20 000 inserts into an empty tree, random and
// ascending, the index's cost a row under a channel's writes.
func BenchmarkBTreeInsert(b *testing.B) {
	for _, c := range []struct {
		name      string
		ascending bool
	}{{"random", false}, {"ascending", true}} {
		keys := btreeKeys(c.ascending, 20000)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				bt := NewBTree()
				for i, k := range keys {
					bt.Insert(k, RowID(i))
				}
			}
		})
	}
}
