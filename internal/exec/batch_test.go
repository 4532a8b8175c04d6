package exec

import (
	"fmt"
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

func makeRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = irow(int64(i), int64(i%7))
	}
	return rows
}

// filterProject builds Project(col1, col0)(Filter(col1 != 0)(child)).
func filterProject(child Operator) Operator {
	return &Project{
		Child: &Filter{
			Child: child,
			Pred:  predFn(func(r types.Row) bool { return r[1].Int() != 0 }),
		},
		Exprs: []*expr.Scalar{col(1), col(0)},
	}
}

// TestBatchRetainSafe verifies Drain's result survives the producing
// operators being reused: batch containers are reused, row values must
// not be.
func TestBatchRetainSafe(t *testing.T) {
	p := filterProject(&Values{Rows: makeRows(64)})
	first := run(t, p)
	snapshot := fmt.Sprint(first)
	// Drive a second execution through the same operator values (fresh
	// Open resets position); the first result must be unchanged.
	_ = run(t, p)
	if fmt.Sprint(first) != snapshot {
		t.Fatal("retained rows mutated by a later execution")
	}
}

// TestFilterBatchSkipsEmptyChunks covers the Filter.NextBatch loop that
// must keep pulling when an entire child chunk is filtered out.
func TestFilterBatchSkipsEmptyChunks(t *testing.T) {
	f := &Filter{
		Child: &Values{Rows: makeRows(21)},
		Pred:  predFn(func(r types.Row) bool { return false }),
	}
	if err := f.Open(&Ctx{}); err != nil {
		t.Fatal(err)
	}
	batch, err := f.NextBatch(4)
	if err != nil || batch != nil {
		t.Fatalf("want end of stream, got %v, %v", batch, err)
	}
}

// nrow builds a row of BIGINTs where a negative value stands for NULL.
func nrow(vs ...int64) types.Row {
	r := irow(vs...)
	for i, v := range vs {
		if v < 0 {
			r[i] = types.Null
		}
	}
	return r
}

func rowStrings(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// TestHashJoinFrozenOutput pins HashJoin's output — values and order —
// against frozen lists: probe rows in input order, each one's matches in
// build order, outer padding where the probe row had none, then (FULL)
// the unmatched build rows, NULL-keyed ones first, the rest by first
// appearance of their key. Output rows are carved from shared blocks, so
// the table is what notices a row aliasing its neighbour.
func TestHashJoinFrozenOutput(t *testing.T) {
	left := []types.Row{nrow(1, 10), nrow(2, 20), nrow(-1, 30), nrow(3, 40), nrow(2, 50)}
	right := []types.Row{nrow(2, 200), nrow(3, 300), nrow(-1, 999), nrow(2, 201), nrow(4, 400), nrow(5, 500)}
	secondColsDiffer := predFn(func(r types.Row) bool { return r[1].Int()*10 != r[3].Int() })
	cases := []struct {
		name     string
		typ      JoinType
		residual *expr.Scalar
		want     []string
	}{
		{"inner, fan-out", JoinInner, nil, []string{
			"2|20|2|200", "2|20|2|201", "3|40|3|300", "2|50|2|200", "2|50|2|201"}},
		{"left, NULL key and no partner pad", JoinLeft, nil, []string{
			"1|10|NULL|NULL", "2|20|2|200", "2|20|2|201", "NULL|30|NULL|NULL", "3|40|3|300",
			"2|50|2|200", "2|50|2|201"}},
		{"full", JoinFull, nil, []string{
			"1|10|NULL|NULL", "2|20|2|200", "2|20|2|201", "NULL|30|NULL|NULL", "3|40|3|300",
			"2|50|2|200", "2|50|2|201", "NULL|NULL|NULL|999", "NULL|NULL|4|400", "NULL|NULL|5|500"}},
		// The residual drops (2,20)⋈(2,200) only (20*10 == 200); the
		// rejected candidate must not leak into the next output row.
		{"inner, residual", JoinInner, secondColsDiffer, []string{
			"2|20|2|201", "3|40|3|300", "2|50|2|200", "2|50|2|201"}},
		{"left, residual rejects every partner", JoinLeft,
			predFn(func(r types.Row) bool { return r[0].Int() != 3 }), []string{
				"1|10|NULL|NULL", "2|20|2|200", "2|20|2|201", "NULL|30|NULL|NULL", "3|40|NULL|NULL",
				"2|50|2|200", "2|50|2|201"}},
	}
	for _, c := range cases {
		j := &HashJoin{
			Left: &Values{Rows: left}, Right: &Values{Rows: right},
			LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
			Type: c.typ, Residual: c.residual, LeftWidth: 2, RightWidth: 2,
		}
		got := rowStrings(run(t, j))
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s:\n got %v\nwant %v", c.name, got, c.want)
		}
	}
}

// TestJoinOutputRowsDoNotAlias retains a join's whole output across many
// block refills (fan-out 3 over 500 probe rows, with a residual rejecting
// a third of the candidates), checks it against a nested-loop reference,
// then scribbles over every row: with block carving, a row that shared
// storage with another — or with a discarded candidate — would lose its
// mark.
func TestJoinOutputRowsDoNotAlias(t *testing.T) {
	var left, right []types.Row
	for i := 0; i < 500; i++ {
		left = append(left, irow(int64(i%50), int64(i)))
	}
	for i := 0; i < 150; i++ {
		right = append(right, irow(int64(i%50), int64(1000+i)))
	}
	keep := func(r types.Row) bool { return (r[1].Int()+r[3].Int())%3 != 0 }
	var want []string
	for _, l := range left {
		for _, r := range right {
			if out := append(l.Clone(), r...); l[0].Int() == r[0].Int() && keep(out) {
				want = append(want, out.String())
			}
		}
	}
	hash := &HashJoin{
		Left: &Values{Rows: left}, Right: &Values{Rows: right},
		LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
		Type: JoinInner, Residual: predFn(keep), LeftWidth: 2, RightWidth: 2,
	}
	loop := &HashJoin{
		Left: &Values{Rows: left}, Right: &Values{Rows: right}, Type: JoinInner, LeftWidth: 2, RightWidth: 2,
		Residual: predFn(func(r types.Row) bool { return r[0].Int() == r[2].Int() && keep(r) }),
	}
	for name, op := range map[string]Operator{"hash": hash, "nested loop": loop} {
		got := run(t, op)
		if len(got) < 1000 { // blocks of 16, 32, … 256, 256, 256 rows
			t.Fatalf("%s: %d rows do not span several full-size blocks", name, len(got))
		}
		if fmt.Sprint(rowStrings(got)) != fmt.Sprint(want) {
			t.Fatalf("%s: output differs from the nested-loop reference", name)
		}
		for i, r := range got {
			for c := range r {
				r[c] = types.NewInt(int64(-i - 1))
			}
			_ = append(r, types.NewInt(7)) // must spill, not overwrite row i+1
		}
		for i, r := range got {
			for c := range r {
				if r[c].Int() != int64(-i-1) {
					t.Fatalf("%s: row %d column %d was overwritten through another row", name, i, c)
				}
			}
		}
	}
}
