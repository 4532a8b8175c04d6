package exec

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// topRows is n rows (a, b, seq): a in 0..3 and b in 0..2, each NULL one time
// in five or four — heavy ties — and seq the row's position, which tells
// tied rows apart.
func topRows(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = nrow(rng.Int63n(5)-1, rng.Int63n(4)-1, int64(i))
	}
	return rows
}

// topShapes are the trees a LIMIT sits on when it bounds a Sort, over rows
// of topRows ordered by keys, key i reading a, then b — their Col is set
// here: the bare Sort, and the planner's shape for ORDER BY expressions
// outside the select list (post: project, sort, project), which here
// projects seq alone and sorts by hidden copies of a and b. a, if set,
// replaces the scalar the projection reads a with.
func topShapes(rows []types.Row, keys []SortKey, a *expr.Scalar) map[string]func() (Operator, *Sort) {
	if a == nil {
		a = col(0)
	}
	reading := func(first int) []SortKey {
		ks := slices.Clone(keys)
		for i := range ks {
			ks[i].Col = first + i
		}
		return ks
	}
	return map[string]func() (Operator, *Sort){
		"sort": func() (Operator, *Sort) {
			s := &Sort{Child: &Values{Rows: rows}, Keys: reading(0)}
			return s, s
		},
		"project, sort, project": func() (Operator, *Sort) {
			s := &Sort{Child: &Project{Child: &Values{Rows: rows}, Exprs: []*expr.Scalar{col(2), a, col(1)}}, Keys: reading(1)}
			return &Project{Child: s, Exprs: []*expr.Scalar{col(0)}}, s
		},
	}
}

// window is what LIMIT count OFFSET offset reads of rows.
func window(rows []types.Row, count, offset int64) []string {
	n := int64(len(rows))
	return rowStrings(rows[min(offset, n):min(offset+count, n)])
}

// TestTopKSortMatchesFullSort: a Sort bounded as the planner bounds it under
// a LIMIT (OFFSET + LIMIT rows) keeps only the rows the LIMIT reads, and
// hands out exactly what a full stable sort followed by LIMIT/OFFSET does —
// over heavy ties, NULL keys under every placement in both directions,
// limits beyond the input and offsets past it, in both shapes a LIMIT
// bounds a Sort in, with and without the EXPLAIN ANALYZE instrument, each
// tree opened three times (run) and pulled at three demands.
func TestTopKSortMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	placements := []SortKey{{}, {NullsFirst: true}, {NullsLast: true}}
	for trial := range 150 {
		n := rng.Intn(3 * chunkRows)
		rows := topRows(rng, n)
		keys := make([]SortKey, 1+rng.Intn(2))
		for i := range keys {
			keys[i] = placements[rng.Intn(len(placements))]
			keys[i].Desc = rng.Intn(2) == 0
		}
		count := []int64{1, 5, 1 + rng.Int63n(int64(n)+1), int64(n) + 5, 1e9}[rng.Intn(5)]
		offset := []int64{0, 0, 3, rng.Int63n(int64(n) + 1), int64(n) + 3}[rng.Intn(5)]
		for name, shape := range topShapes(rows, keys, nil) {
			full, _ := shape()
			all, err := Drain(&Ctx{}, full, 0) // nothing bounds it
			if err != nil {
				t.Fatal(err)
			}
			want := window(all, count, offset)
			for _, instrumented := range []bool{false, true} {
				under, sort := shape()
				sort.Limit = int(count + offset)
				var tree Operator = &Limit{Child: under, Count: count, Offset: offset}
				if instrumented {
					tree, _ = Instrument(tree)
				}
				got := rowStrings(run(t, tree))
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d, %s (instrumented %v), %d rows, keys %+v, LIMIT %d OFFSET %d:\ngot  %v\nwant %v",
						trial, name, instrumented, n, keys, count, offset, got, want)
				}
			}
		}
	}
}

// TestTopKSortKeyErrorThenReopen: a projected key that fails partway
// through the input fails the execution, and the tree opened again is
// correct.
func TestTopKSortKeyErrorThenReopen(t *testing.T) {
	const shape = "project, sort, project" // a bare Sort evaluates nothing
	rows := topRows(rand.New(rand.NewSource(61)), 2*chunkRows+100)
	boom := errors.New("boom")
	fail := true
	a := &expr.Scalar{Type: types.TypeInt, Eval: func(ctx *expr.Ctx) (types.Datum, error) {
		if fail && ctx.Row[2].Int() == chunkRows+50 { // seq
			return types.Null, boom
		}
		return ctx.Row[0], nil
	}}
	keys := []SortKey{{Desc: true}, {NullsFirst: true}}
	full, _ := topShapes(rows, keys, nil)[shape]()
	all, err := Drain(&Ctx{}, full, 0)
	if err != nil {
		t.Fatal(err)
	}
	under, sort := topShapes(rows, keys, a)[shape]()
	sort.Limit = 9
	tree := &Limit{Child: under, Count: 7, Offset: 2}
	if _, err := Drain(&Ctx{}, tree, 0); !errors.Is(err, boom) {
		t.Fatalf("the failing key's execution returned %v", err)
	}
	fail = false
	if got, want := rowStrings(run(t, tree)), window(all, 7, 2); !slices.Equal(got, want) {
		t.Fatalf("after a failed execution got %v, want %v", got, want)
	}
}

// TestTopKSortBytesIndependentOfGroups: LIMIT 5 over ORDER BY over an
// aggregate — top_sources' shape — opened again allocates the same bytes
// per execution over 1 000 groups and over 10 000: the Sort keeps 10 slots
// and hands out 5 rows, the Project under it carves every chunk from one
// kept block, the aggregate keeps its groups. (A full sort kept a keyed
// entry, a key row and a projected row for every group, each execution.)
func TestTopKSortBytesIndependentOfGroups(t *testing.T) {
	bytesAt := func(groups int) float64 {
		tree := &Limit{Count: 5, Child: &Sort{
			Child: &Project{Child: countSum(&Values{Rows: groupRows(groups)}, col(0), col(1)), Exprs: []*expr.Scalar{col(0), col(2)}},
			Keys:  []SortKey{{Col: 1, Desc: true}, {Col: 0}},
			Limit: 5,
		}}
		// drainBytes counts the whole process's bytes, so a collection cycle
		// or another goroutine inside the measured executions adds to it:
		// the least of three measurements is the executions' own.
		least := math.Inf(1)
		for range 3 {
			least = min(least, drainBytes(t, &Ctx{}, func() Operator { return tree }))
		}
		return least
	}
	small, large := bytesAt(1000), bytesAt(10000)
	t.Logf("%.0f B an execution over 1 000 groups, %.0f B over 10 000", small, large)
	if large > small+256 {
		t.Errorf("a reopened top-5 over an aggregate allocates %.0f B over 1 000 groups and %.0f B over 10 000", small, large)
	}
}
