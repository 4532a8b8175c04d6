package exec

import (
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/storage"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

func irow(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

// col returns a scalar projecting column i.
func col(i int) *expr.Scalar {
	return &expr.Scalar{
		Type: types.TypeInt,
		Eval: func(ctx *expr.Ctx) (types.Datum, error) { return ctx.Row[i], nil },
	}
}

// constScalar returns a scalar producing d.
func constScalar(d types.Datum) *expr.Scalar {
	return &expr.Scalar{Type: d.Type(), Eval: func(*expr.Ctx) (types.Datum, error) { return d, nil }}
}

// predCol returns a predicate fn(row) built from a Go closure.
func predFn(f func(types.Row) bool) *expr.Scalar {
	return &expr.Scalar{Type: types.TypeBool, Eval: func(ctx *expr.Ctx) (types.Datum, error) {
		return types.NewBool(f(ctx.Row)), nil
	}}
}

// run drains op and returns its rows. Every tree a test hands it is
// executed three times — pulled unbounded (Drain), three rows at a time and
// one row at a time — and must produce identical rows in identical order,
// so each operator test is also a chunk-boundary test.
func run(t *testing.T, op Operator) []types.Row {
	t.Helper()
	return runCtx(t, &Ctx{}, op)
}

func runCtx(t *testing.T, ctx *Ctx, op Operator) []types.Row {
	t.Helper()
	rows, err := Drain(ctx, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int{3, 1} {
		got := drainBy(t, ctx, op, max)
		if len(got) != len(rows) {
			t.Fatalf("demand %d: %d rows, unbounded %d", max, len(got), len(rows))
		}
		for i := range got {
			if !got[i].Equal(rows[i]) {
				t.Fatalf("demand %d: row %d is %v, unbounded %v", max, i, got[i], rows[i])
			}
		}
	}
	return rows
}

// drainBy is Drain pulling at most max rows per call. It fails the test if
// the operator returns more than it was asked for or an empty chunk.
func drainBy(t *testing.T, ctx *Ctx, op Operator, max int) []types.Row {
	t.Helper()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var out []types.Row
	for {
		batch, err := op.NextBatch(max)
		if err != nil {
			t.Fatal(err)
		}
		if batch == nil {
			return out
		}
		if len(batch) == 0 || len(batch) > max {
			t.Fatalf("NextBatch(%d) returned %d rows", max, len(batch))
		}
		out = append(out, batch...)
	}
}

func TestValuesAndRelation(t *testing.T) {
	rows := run(t, &Values{Rows: []types.Row{irow(1), irow(2)}})
	if len(rows) != 2 {
		t.Fatal("values")
	}
	window := []types.Row{irow(3)}
	rows = run(t, &Relation{Rows: &window})
	if len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Fatal("relation")
	}
}

func TestSeqScanVisibility(t *testing.T) {
	mgr := txn.NewManager()
	h := storage.NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	tx := mgr.Begin()
	h.InsertRun(tx.ID, []types.Row{irow(1)})
	tx.Commit()
	tx2 := mgr.Begin()
	h.InsertRun(tx2.ID, []types.Row{irow(2)}) // uncommitted

	rows := runCtx(t, &Ctx{Snap: mgr.SnapshotNow()}, &SeqScan{Heap: h})
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Fatalf("scan saw %v", rows)
	}
	tx2.Abort()
}

func TestFilterProject(t *testing.T) {
	src := &Values{Rows: []types.Row{irow(1), irow(2), irow(3), irow(4)}}
	f := &Filter{Child: src, Pred: predFn(func(r types.Row) bool { return r[0].Int()%2 == 0 })}
	p := &Project{Child: f, Exprs: []*expr.Scalar{
		{Eval: func(ctx *expr.Ctx) (types.Datum, error) {
			return types.NewInt(ctx.Row[0].Int() * 10), nil
		}},
	}}
	rows := run(t, p)
	if len(rows) != 2 || rows[0][0].Int() != 20 || rows[1][0].Int() != 40 {
		t.Fatalf("got %v", rows)
	}
}

func TestLimitOffset(t *testing.T) {
	mk := func() Operator {
		return &Values{Rows: []types.Row{irow(1), irow(2), irow(3), irow(4), irow(5)}}
	}
	rows := run(t, &Limit{Child: mk(), Count: 2, Offset: 1})
	if len(rows) != 2 || rows[0][0].Int() != 2 {
		t.Fatalf("limit 2 offset 1: %v", rows)
	}
	rows = run(t, &Limit{Child: mk(), Count: -1, Offset: 3})
	if len(rows) != 2 {
		t.Fatalf("offset only: %v", rows)
	}
	rows = run(t, &Limit{Child: mk(), Count: 0, Offset: 0})
	if len(rows) != 0 {
		t.Fatalf("limit 0: %v", rows)
	}
}

func TestSort(t *testing.T) {
	src := &Values{Rows: []types.Row{irow(3, 1), irow(1, 2), irow(2, 3), irow(1, 1)}}
	s := &Sort{Child: src, Keys: []SortKey{{Col: 0}, {Col: 1, Desc: true}}}
	rows := run(t, s)
	want := [][2]int64{{1, 2}, {1, 1}, {2, 3}, {3, 1}}
	for i, w := range want {
		if rows[i][0].Int() != w[0] || rows[i][1].Int() != w[1] {
			t.Fatalf("row %d: %v, want %v", i, rows[i], w)
		}
	}
}

func TestSortNullsFirst(t *testing.T) {
	src := &Values{Rows: []types.Row{{types.NewInt(1)}, {types.Null}, {types.NewInt(0)}}}
	rows := run(t, &Sort{Child: src, Keys: []SortKey{{Col: 0}}})
	if !rows[0][0].IsNull() {
		t.Fatal("NULL should sort first ascending")
	}
	src2 := &Values{Rows: []types.Row{{types.NewInt(1)}, {types.Null}, {types.NewInt(0)}}}
	rows = run(t, &Sort{Child: src2, Keys: []SortKey{{Col: 0, Desc: true}}})
	if !rows[2][0].IsNull() {
		t.Fatal("NULL should sort last descending")
	}
}

func TestDistinct(t *testing.T) {
	src := &Values{Rows: []types.Row{irow(1), irow(2), irow(1), {types.Null}, {types.Null}}}
	rows := run(t, &Distinct{Child: src})
	if len(rows) != 3 {
		t.Fatalf("distinct: %v", rows)
	}
}

func TestHashJoinInner(t *testing.T) {
	left := &Values{Rows: []types.Row{irow(1, 10), irow(2, 20), irow(3, 30)}}
	right := &Values{Rows: []types.Row{irow(2, 200), irow(3, 300), irow(3, 301), irow(4, 400)}}
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
		Type: JoinInner, LeftWidth: 2, RightWidth: 2,
	}
	rows := run(t, j)
	if len(rows) != 3 {
		t.Fatalf("inner join rows: %v", rows)
	}
	for _, r := range rows {
		if r[0].Int() != r[2].Int() {
			t.Fatalf("join key mismatch: %v", r)
		}
	}
}

func TestHashJoinLeftOuter(t *testing.T) {
	left := &Values{Rows: []types.Row{irow(1), irow(2)}}
	right := &Values{Rows: []types.Row{irow(2, 20)}}
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
		Type: JoinLeft, LeftWidth: 1, RightWidth: 2,
	}
	rows := run(t, j)
	if len(rows) != 2 {
		t.Fatalf("left join rows: %v", rows)
	}
	var sawPadded bool
	for _, r := range rows {
		if r[0].Int() == 1 {
			if !r[1].IsNull() || !r[2].IsNull() {
				t.Fatalf("unmatched row not padded: %v", r)
			}
			sawPadded = true
		}
	}
	if !sawPadded {
		t.Fatal("missing padded row")
	}
}

func TestHashJoinFullOuter(t *testing.T) {
	left := &Values{Rows: []types.Row{irow(1), irow(2)}}
	right := &Values{Rows: []types.Row{irow(2), irow(3)}}
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
		Type: JoinFull, LeftWidth: 1, RightWidth: 1,
	}
	rows := run(t, j)
	if len(rows) != 3 {
		t.Fatalf("full join rows: %d %v", len(rows), rows)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	left := &Values{Rows: []types.Row{{types.Null}}}
	right := &Values{Rows: []types.Row{{types.Null}}}
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
		Type: JoinInner, LeftWidth: 1, RightWidth: 1,
	}
	if rows := run(t, j); len(rows) != 0 {
		t.Fatalf("NULL keys joined: %v", rows)
	}
}

func TestNestedLoopJoin(t *testing.T) {
	left := &Values{Rows: []types.Row{irow(1), irow(5)}}
	right := &Values{Rows: []types.Row{irow(2), irow(6)}}
	// Non-equi: l.a < r.a
	j := &HashJoin{
		Left: left, Right: right, Type: JoinInner, LeftWidth: 1, RightWidth: 1,
		Residual: predFn(func(r types.Row) bool { return r[0].Int() < r[1].Int() }),
	}
	rows := run(t, j)
	if len(rows) != 3 {
		t.Fatalf("nl join: %v", rows)
	}
	// Cross join.
	j2 := &HashJoin{
		Left:  &Values{Rows: []types.Row{irow(1), irow(2)}},
		Right: &Values{Rows: []types.Row{irow(3), irow(4)}},
		Type:  JoinCross, LeftWidth: 1, RightWidth: 1,
	}
	if rows := run(t, j2); len(rows) != 4 {
		t.Fatalf("cross join: %v", rows)
	}
}

func TestHashAggGrouped(t *testing.T) {
	src := &Values{Rows: []types.Row{irow(1, 10), irow(1, 20), irow(2, 5)}}
	agg := &HashAgg{
		Child:   src,
		GroupBy: []*expr.Scalar{col(0)},
		Aggs: []expr.AggSpec{
			{Name: "count", Star: true},
			{Name: "sum", Arg: col(1)},
		},
		SortedOutput: true,
	}
	rows := run(t, agg)
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rows)
	}
	byKey := map[int64][2]int64{}
	for _, r := range rows {
		byKey[r[0].Int()] = [2]int64{r[1].Int(), r[2].Int()}
	}
	if byKey[1] != [2]int64{2, 30} || byKey[2] != [2]int64{1, 5} {
		t.Fatalf("agg results: %v", byKey)
	}
}

func TestHashAggScalarOnEmptyInput(t *testing.T) {
	agg := &HashAgg{
		Child: &Values{},
		Aggs: []expr.AggSpec{
			{Name: "count", Star: true},
			{Name: "sum", Arg: col(0)},
		},
	}
	rows := run(t, agg)
	if len(rows) != 1 {
		t.Fatalf("scalar agg on empty input must return one row: %v", rows)
	}
	if rows[0][0].Int() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("defaults: %v", rows[0])
	}
	// But with GROUP BY, empty input yields no rows.
	agg2 := &HashAgg{Child: &Values{}, GroupBy: []*expr.Scalar{col(0)},
		Aggs: []expr.AggSpec{{Name: "count", Star: true}}}
	if rows := run(t, agg2); len(rows) != 0 {
		t.Fatalf("grouped agg on empty input: %v", rows)
	}
}

func TestSetOps(t *testing.T) {
	mk := func(vals ...int64) Operator {
		rows := make([]types.Row, len(vals))
		for i, v := range vals {
			rows[i] = irow(v)
		}
		return &Values{Rows: rows}
	}
	rows := run(t, &SetOp{Kind: SetUnion, Left: mk(1, 2, 2), Right: mk(2, 3)})
	if len(rows) != 3 {
		t.Fatalf("union: %v", rows)
	}
	rows = run(t, &SetOp{Kind: SetUnion, All: true, Left: mk(1, 2, 2), Right: mk(2, 3)})
	if len(rows) != 5 {
		t.Fatalf("union all: %v", rows)
	}
	rows = run(t, &SetOp{Kind: SetExcept, Left: mk(1, 2, 2, 3), Right: mk(2)})
	if len(rows) != 2 {
		t.Fatalf("except: %v", rows)
	}
	rows = run(t, &SetOp{Kind: SetExcept, All: true, Left: mk(1, 2, 2, 3), Right: mk(2)})
	if len(rows) != 3 {
		t.Fatalf("except all: %v", rows)
	}
	rows = run(t, &SetOp{Kind: SetIntersect, Left: mk(1, 2, 2, 3), Right: mk(2, 3, 4)})
	if len(rows) != 2 {
		t.Fatalf("intersect: %v", rows)
	}
}

func TestIndexScan(t *testing.T) {
	mgr := txn.NewManager()
	h := storage.NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}, {Name: "b", Type: types.TypeInt}})
	tree := storage.NewBTree()
	tx := mgr.Begin()
	for i := int64(0); i < 100; i++ {
		rid, _ := h.InsertRun(tx.ID, []types.Row{irow(i, i*10)})
		tree.Insert(types.Row{types.NewInt(i)}, rid)
	}
	tx.Commit()
	ix := &IndexScan{
		Heap: h,
		Tree: tree,
		Lo:   constScalar(types.NewInt(10)),
		Hi:   constScalar(types.NewInt(15)),
	}
	rows := runCtx(t, &Ctx{Snap: mgr.SnapshotNow()}, ix)
	if len(rows) != 6 || rows[0][0].Int() != 10 || rows[5][0].Int() != 15 {
		t.Fatalf("index range: %v", rows)
	}
}

// TestSeqScanStreams: a table scan holds one container of at most chunkRows
// row headers whatever the table's size, reads the heap only as far as its
// consumer's demand has reached — a LIMIT above it leaves the rest of the
// heap unread — and returns exactly its snapshot's rows when rows are
// appended and deleted between its pulls.
func TestSeqScanStreams(t *testing.T) {
	mgr := txn.NewManager()
	heap := storage.NewHeap("t", types.Schema{{Name: "a", Type: types.TypeInt}})
	const n = 3*chunkRows + 5
	tx := mgr.Begin()
	for i := int64(0); i < n; i++ {
		heap.InsertRun(tx.ID, []types.Row{irow(i)})
	}
	tx.Commit()
	ctx := &Ctx{Snap: mgr.SnapshotNow()}

	lim := &Limit{Child: &SeqScan{Heap: heap}, Count: 1}
	if rows := runCtx(t, ctx, lim); len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Fatalf("LIMIT 1 over the scan = %v", rows)
	}
	scan := lim.Child.(*SeqScan)
	if err := lim.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := lim.NextBatch(chunkRows); err != nil {
		t.Fatal(err)
	}
	if scan.next != chunkRows {
		t.Errorf("a scan under LIMIT 1 read the heap up to version %d, want one chunk (%d)", scan.next, chunkRows)
	}
	lim.Close()

	for _, max := range []int{1, 100, chunkRows, 2 * chunkRows} {
		scan := &SeqScan{Heap: heap}
		if err := scan.Open(ctx); err != nil {
			t.Fatal(err)
		}
		next := int64(0)
		for pulls := 0; ; pulls++ {
			batch, err := scan.NextBatch(max)
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				break
			}
			if len(batch) > max || cap(scan.rows) > chunkRows {
				t.Fatalf("demand %d: a pull returned %d rows from a container of %d", max, len(batch), cap(scan.rows))
			}
			for _, row := range batch {
				if row[0].Int() != next {
					t.Fatalf("demand %d: row %d is %d", max, next, row[0].Int())
				}
				next++
			}
			// Writes the snapshot must not see, landing between pulls.
			if pulls%50 == 0 {
				w := mgr.Begin()
				heap.InsertRun(w.ID, []types.Row{irow(-1)})
				heap.Delete(w.ID, storage.RowID(next%n))
				w.Commit()
			}
		}
		if next != n {
			t.Fatalf("demand %d: the scan returned %d rows, its snapshot holds %d", max, next, n)
		}
		scan.Close()
	}

	// A five-row table gets a five-row container.
	small := storage.NewHeap("s", types.Schema{{Name: "a", Type: types.TypeInt}})
	for i := int64(0); i < 5; i++ {
		small.InsertRun(txn.Bootstrap, []types.Row{irow(i)})
	}
	scan = &SeqScan{Heap: small}
	if rows := runCtx(t, &Ctx{Snap: mgr.SnapshotNow()}, scan); len(rows) != 5 {
		t.Fatalf("%d rows from a five-row table", len(rows))
	}
	scan.Open(ctx)
	scan.NextBatch(chunkRows)
	if cap(scan.rows) != 5 {
		t.Errorf("a five-row table is scanned through a container of %d", cap(scan.rows))
	}
}
