//go:build go1.24

package exec

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// TestReopenedTreePinsNoRow: a tree kept for its next execution keeps
// scratch, never a row. Each tree here hands out rows it made — an
// aggregate's groups, a projection's, a top-k sort's, a join's — and runs
// twice; once the
// consumer drops what the second execution returned, the rows are
// collectable while the tree lives on.
func TestReopenedTreePinsNoRow(t *testing.T) {
	rows := streamRows(2 * chunkRows)
	project := func() Operator { return &Project{Child: &Values{Rows: rows}, Exprs: []*expr.Scalar{col(1), col(0)}} }
	for name, tree := range map[string]Operator{
		"aggregate": countSum(&Values{Rows: rows}, col(0), col(1)),
		"projection under a filter and a limit": &Limit{Count: -1, Child: &Filter{Child: project(),
			Pred: predFn(func(r types.Row) bool { return r[0].Int()%2 == 0 })}},
		"sort":       &Sort{Child: project(), Keys: []SortKey{{Col: 0, Desc: true}}},
		"top-k sort": &Limit{Count: 5, Child: &Sort{Child: project(), Keys: []SortKey{{Col: 0, Desc: true}}, Limit: 5}},
		"distinct":   &Distinct{Child: project()},
		"join": &HashJoin{Left: project(), Right: &Values{Rows: streamRows(allocGroups)},
			LeftKeys: []*expr.Scalar{col(1)}, RightKeys: []*expr.Scalar{col(1)},
			Type: JoinLeft, LeftWidth: 2, RightWidth: 2},
	} {
		if _, err := Drain(&Ctx{}, tree, 0); err != nil {
			t.Fatal(err)
		}
		out, err := Drain(&Ctx{}, tree, 0)
		if err != nil || len(out) == 0 {
			t.Fatalf("%s: %d rows, %v", name, len(out), err)
		}
		row := weak.Make(&out[len(out)-1][0])
		out = nil
		runtime.GC()
		runtime.GC()
		if row.Value() != nil {
			t.Errorf("%s: the tree keeps a row of its last execution reachable", name)
		}
		runtime.KeepAlive(tree)
	}

	// Nor its input: an aggregate under a projection keeps its groups' rows
	// for the next execution, cleared of what the last one read; a top-k
	// sort keeps its slots, and the projection under it its block, cleared;
	// so does a join under an aggregate. Poison mode is off here: it
	// overwrites what a rewind takes back, which would hide a kept block's
	// stale rows.
	types.Poison = false
	defer func() { types.Poison = true }()
	for name, tree := range map[string]func(window *[]types.Row) Operator{
		"aggregate": func(window *[]types.Row) Operator {
			return &Project{Child: countSum(&Relation{Rows: window}, col(0), col(1)), Exprs: []*expr.Scalar{col(2)}}
		},
		"top-k sort": func(window *[]types.Row) Operator {
			return &Limit{Count: 5, Child: &Sort{Keys: []SortKey{{Col: 1}}, Limit: 5,
				Child: &Project{Child: &Relation{Rows: window}, Exprs: []*expr.Scalar{col(1), col(0)}}}}
		},
		"join under an aggregate": func(window *[]types.Row) Operator {
			return countSum(&HashJoin{Left: &Relation{Rows: window}, Right: &Values{Rows: []types.Row{irow(1, 1)}},
				LeftKeys: []*expr.Scalar{col(1)}, RightKeys: []*expr.Scalar{col(0)}, Type: JoinInner, LeftWidth: 2, RightWidth: 2}, col(2), col(3))
		},
	} {
		window := []types.Row{{types.NewString(strings.Repeat("k", 32)), types.NewInt(1)}}
		key := weak.Make(unsafe.StringData(window[0][0].Str()))
		tree := tree(&window)
		for range 2 {
			if out, err := Drain(&Ctx{}, tree, 0); err != nil || len(out) != 1 {
				t.Fatalf("%s: %d rows, %v", name, len(out), err)
			}
		}
		window = nil
		runtime.GC()
		runtime.GC()
		if key.Value() != nil {
			t.Errorf("%s: the tree keeps a string of its last execution's input reachable", name)
		}
		runtime.KeepAlive(tree)
	}
}

// TestHashAggKeptGroupsMemoryBounded: an aggregate opened again keeps its
// groups for the next execution, but not a burst's: once an execution used
// at most half of them, they all go at the next Open.
func TestHashAggKeptGroupsMemoryBounded(t *testing.T) {
	burst, steady := groupRows(10000), groupRows(10)
	agg := countSum(&Values{Rows: burst}, col(0), col(1))
	if _, err := Drain(&Ctx{}, agg, 0); err != nil {
		t.Fatal(err)
	}
	var group weak.Pointer[aggGroup] // a group of the burst, kept
	for _, g := range agg.groups {
		group = weak.Make(g)
		break
	}
	agg.Child = &Values{Rows: steady}
	for i := 1; i <= 2; i++ {
		if out, err := Drain(&Ctx{}, agg, 0); err != nil || len(out) != 10 {
			t.Fatalf("execution %d: %d rows, %v", i, len(out), err)
		}
		runtime.GC()
		switch alive := group.Value() != nil; {
		case i == 1 && !alive:
			t.Fatal("the groups the burst left are gone before an execution showed it used at most half of them")
		case i == 2 && alive:
			t.Fatalf("the burst's groups are reachable after an execution used 10 of %d", 10000)
		}
	}
	runtime.KeepAlive(agg)
}

// TestTopKSortSlotsMemoryBounded: a top-k sort's slots grow with the rows it
// admits, never with its bound — LIMIT 1 000 000 000 over 10 rows carves 10
// — and a tree keeps at most twice the slots its last execution used: after
// a burst of 10 000, an execution of 10 keeps them, the next one drops them.
func TestTopKSortSlotsMemoryBounded(t *testing.T) {
	burst, steady := makeRows(10000), makeRows(10)
	sort := &Sort{Child: &Values{Rows: steady}, Keys: []SortKey{{Col: 1}}, Limit: 1e9}
	tree := &Limit{Count: 1e9, Child: sort}
	if out, err := Drain(&Ctx{}, tree, 0); err != nil || len(out) != 10 || sort.carved != 10 {
		t.Fatalf("10 rows under LIMIT 1e9: %d out, %d slots carved, %v", len(out), sort.carved, err)
	}
	sort.Child = &Values{Rows: burst}
	if out, err := Drain(&Ctx{}, tree, 0); err != nil || len(out) != 10000 {
		t.Fatalf("the burst: %d rows, %v", len(out), err)
	}
	slot := weak.Make(&sort.top[:sort.carved][sort.carved-1][0]) // a slot of the burst, kept
	sort.Child = &Values{Rows: steady}
	for i := 1; i <= 2; i++ {
		if out, err := Drain(&Ctx{}, tree, 0); err != nil || len(out) != 10 {
			t.Fatalf("execution %d: %d rows, %v", i, len(out), err)
		}
		runtime.GC()
		switch alive := slot.Value() != nil; {
		case i == 1 && !alive:
			t.Fatal("the burst's slots are gone before an execution showed it used at most half of them")
		case i == 2 && alive:
			t.Fatal("the burst's slots are reachable after an execution used 10 of 10 000")
		}
	}
	runtime.KeepAlive(tree)
}
