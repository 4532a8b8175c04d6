package catalog

import (
	"errors"
	"fmt"
	"testing"

	"streamrel/internal/sql"
	"streamrel/internal/types"
)

func intSchema(names ...string) types.Schema {
	s := make(types.Schema, len(names))
	for i, n := range names {
		s[i] = types.Column{Name: n, Type: types.TypeInt}
	}
	return s
}

func streamSchema() types.Schema {
	return types.Schema{
		{Name: "v", Type: types.TypeInt},
		{Name: "at", Type: types.TypeTimestamp},
	}
}

func TestSharedNamespace(t *testing.T) {
	c := New()
	if _, err := c.CreateTable("x", intSchema("a")); err != nil {
		t.Fatal(err)
	}
	// Every other kind collides with the table name.
	if _, err := c.CreateStream("x", streamSchema(), 1, false); err == nil {
		t.Fatal("stream should collide with table")
	}
	if err := c.CreateView(&View{Name: "x"}); err == nil {
		t.Fatal("view should collide with table")
	}
	if err := c.CreateDerivedStream(&DerivedStream{Name: "x"}); err == nil {
		t.Fatal("derived should collide with table")
	}
	var exists ErrExists
	_, err := c.CreateTable("x", intSchema("a"))
	if !errors.As(err, &exists) || exists.Name != "x" {
		t.Fatalf("ErrExists not surfaced: %v", err)
	}
}

func TestStreamValidation(t *testing.T) {
	c := New()
	if _, err := c.CreateStream("s", streamSchema(), 5, false); err == nil {
		t.Fatal("out-of-range cqtime column")
	}
	if _, err := c.CreateStream("s", intSchema("a", "b"), 0, false); err == nil {
		t.Fatal("non-timestamp cqtime column")
	}
	s, err := c.CreateStream("s", streamSchema(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if !s.SystemTime || s.CQTimeCol != 1 {
		t.Fatalf("%+v", s)
	}
}

func TestChannelDependencies(t *testing.T) {
	c := New()
	c.CreateTable("tgt", intSchema("a"))
	c.CreateDerivedStream(&DerivedStream{Name: "d", CloseCol: -1})
	if err := c.CreateChannel(&Channel{Name: "ch", From: "nope", Into: "tgt"}); err == nil {
		t.Fatal("channel from missing derived")
	}
	if err := c.CreateChannel(&Channel{Name: "ch", From: "d", Into: "nope"}); err == nil {
		t.Fatal("channel into missing table")
	}
	if err := c.CreateChannel(&Channel{Name: "ch", From: "d", Into: "tgt"}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Table("tgt")
	if !tbl.Active {
		t.Fatal("channel target should be Active")
	}
	// Dependency protection.
	if err := c.Drop(sql.ObjTable, "tgt"); err == nil {
		t.Fatal("dropping channel target should fail")
	}
	if err := c.Drop(sql.ObjStream, "d"); err == nil {
		t.Fatal("dropping channel source should fail")
	}
	if err := c.Drop(sql.ObjChannel, "ch"); err != nil {
		t.Fatal(err)
	}
	if tbl.Active {
		t.Fatal("table should stop being Active when its only channel drops")
	}
	if err := c.Drop(sql.ObjStream, "d"); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop(sql.ObjTable, "tgt"); err != nil {
		t.Fatal(err)
	}
}

func TestIndexLifecycle(t *testing.T) {
	c := New()
	c.CreateTable("t", intSchema("a", "b"))
	if _, err := c.CreateIndex("ix", "t", []string{"nope"}); err == nil {
		t.Fatal("index on missing column")
	}
	if _, err := c.CreateIndex("ix", "missing", []string{"a"}); err == nil {
		t.Fatal("index on missing table")
	}
	ix, err := c.CreateIndex("ix", "t", []string{"b", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Columns) != 2 || ix.Columns[0] != 1 || ix.Columns[1] != 0 {
		t.Fatalf("columns: %v", ix.Columns)
	}
	key := ix.KeyOf(types.Row{types.NewInt(10), types.NewInt(20)})
	if key[0].Int() != 20 || key[1].Int() != 10 {
		t.Fatalf("KeyOf: %v", key)
	}
	if _, err := c.CreateIndex("ix", "t", []string{"a"}); err == nil {
		t.Fatal("duplicate index name")
	}
	tbl, _ := c.Table("t")
	if len(tbl.Indexes) != 1 {
		t.Fatal("table should list its index")
	}
	if err := c.Drop(sql.ObjIndex, "ix"); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Indexes) != 0 {
		t.Fatal("index not detached from table")
	}
	// Dropping a table removes its indexes from the global map.
	c.CreateIndex("ix2", "t", []string{"a"})
	c.Drop(sql.ObjTable, "t")
	var nf ErrNotFound
	if err := c.Drop(sql.ObjIndex, "ix2"); !errors.As(err, &nf) {
		t.Fatalf("index should be gone with its table: %v", err)
	}
}

// TestKeyOfViewsItsRow: an index whose columns are one ascending run keys a
// row by a view of it, at no allocation; any other order copies. Either way
// the key is the row's values in the index's column order.
func TestKeyOfViewsItsRow(t *testing.T) {
	c := New()
	c.CreateTable("t", intSchema("a", "b", "c"))
	row := types.Row{types.NewInt(1), types.NewInt(2), types.NewInt(3)}
	for i, tc := range []struct {
		cols []string
		view bool
		want types.Row
	}{
		{[]string{"a"}, true, types.Row{row[0]}},
		{[]string{"a", "b"}, true, types.Row{row[0], row[1]}},
		{[]string{"b", "a"}, false, types.Row{row[1], row[0]}},
		{[]string{"a", "c"}, false, types.Row{row[0], row[2]}},
	} {
		ix, err := c.CreateIndex(fmt.Sprint("ix", i), "t", tc.cols)
		if err != nil {
			t.Fatal(err)
		}
		key := ix.KeyOf(row)
		if !key.Equal(tc.want) || cap(key) != len(key) {
			t.Errorf("%v: KeyOf = %v (cap %d), want %v", tc.cols, key, cap(key), tc.want)
		}
		if view := &key[0] == &row[ix.Columns[0]]; view != tc.view {
			t.Errorf("%v: the key is a view of its row: %v, want %v", tc.cols, view, tc.view)
		}
		if allocs := testing.AllocsPerRun(10, func() { key = ix.KeyOf(row) }); (allocs == 0) != tc.view {
			t.Errorf("%v: KeyOf allocates %.0f times", tc.cols, allocs)
		}
	}
}

func TestNamesAndListings(t *testing.T) {
	c := New()
	c.CreateTable("t2", intSchema("a"))
	c.CreateTable("t1", intSchema("a"))
	c.CreateStream("s1", streamSchema(), 1, false)
	c.CreateDerivedStream(&DerivedStream{Name: "d1"})
	c.CreateView(&View{Name: "v1"})
	c.CreateChannel(&Channel{Name: "c1", From: "d1", Into: "t1"})

	check := func(what string, want ...string) {
		t.Helper()
		got := c.Names(what)
		if len(got) != len(want) {
			t.Fatalf("%s: %v", what, got)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: %v (want %v)", what, got, want)
			}
		}
	}
	check("tables", "t1", "t2")
	check("streams", "d1", "s1")
	check("views", "v1")
	check("channels", "c1")
	if len(c.Tables()) != 2 || c.Tables()[0].Name != "t1" {
		t.Fatal("Tables() sorted listing")
	}
	if len(c.Channels()) != 1 || len(c.DerivedStreams()) != 1 {
		t.Fatal("listings")
	}
	var nf ErrNotFound
	if err := c.Drop(sql.ObjView, "nope"); !errors.As(err, &nf) {
		t.Fatal("ErrNotFound")
	}
}

func TestLookups(t *testing.T) {
	c := New()
	c.CreateTable("t", intSchema("a"))
	if _, ok := c.Table("t"); !ok {
		t.Fatal("table lookup")
	}
	if _, ok := c.Table("nope"); ok {
		t.Fatal("phantom table")
	}
	if _, ok := c.Stream("t"); ok {
		t.Fatal("table is not a stream")
	}
	if _, ok := c.View("t"); ok {
		t.Fatal("table is not a view")
	}
	if _, ok := c.Channel("t"); ok {
		t.Fatal("table is not a channel")
	}
	if _, ok := c.Derived("t"); ok {
		t.Fatal("table is not a derived stream")
	}
}
