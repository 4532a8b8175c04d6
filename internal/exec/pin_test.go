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
// aggregate's groups, a projection's, a join's — and runs twice; once the
// consumer drops what the second execution returned, the rows are
// collectable while the tree lives on.
func TestReopenedTreePinsNoRow(t *testing.T) {
	rows := streamRows(2 * chunkRows)
	project := func() Operator { return &Project{Child: &Values{Rows: rows}, Exprs: []*expr.Scalar{col(1), col(0)}} }
	for name, tree := range map[string]Operator{
		"aggregate": countSum(&Values{Rows: rows}, col(0), col(1)),
		"projection under a filter and a limit": &Limit{Count: -1, Child: &Filter{Child: project(),
			Pred: predFn(func(r types.Row) bool { return r[0].Int()%2 == 0 })}},
		"sort":     &Sort{Child: project(), Keys: []SortKey{{Expr: col(0), Desc: true}}},
		"distinct": &Distinct{Child: project()},
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
	// for the next execution, cleared of what the last one read.
	window := []types.Row{{types.NewString(strings.Repeat("k", 32)), types.NewInt(1)}}
	key := weak.Make(unsafe.StringData(window[0][0].Str()))
	tree := &Project{Child: countSum(&Relation{Rows: &window}, col(0), col(1)), Exprs: []*expr.Scalar{col(2)}}
	for range 2 {
		if out, err := Drain(&Ctx{}, tree, 0); err != nil || len(out) != 1 {
			t.Fatalf("%d rows, %v", len(out), err)
		}
	}
	window = nil
	runtime.GC()
	runtime.GC()
	if key.Value() != nil {
		t.Error("the tree keeps a string of its last execution's input reachable")
	}
	runtime.KeepAlive(tree)
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
