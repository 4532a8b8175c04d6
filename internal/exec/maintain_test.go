package exec

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/storage"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// report is the tree a cached report runs: a projection over an aggregate of
// fact's (g, v) rows — bare, or joined on g to dim's (g, name) rows and
// grouped by name — with count(*), a float sum and min(v). The aggregate is
// maintained when maintain is set; keep, if set, is the join's kept build
// side. The float sum fails at v = 4243. *read counts the rows fact's scan
// hands out: the filter above it evaluates each.
func report(fact, dim *storage.Heap, keep *JoinBuild, maintain bool) (tree Operator, read *int64) {
	read = new(int64)
	var in Operator = &Filter{Child: &SeqScan{Heap: fact}, Pred: predFn(func(r types.Row) bool {
		*read++
		return r[1].IsNull() || r[1].Int()%7 != 0
	})}
	group := col(0)
	if dim != nil {
		in = &HashJoin{Left: in, Right: &SeqScan{Heap: dim}, Keep: keep,
			LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
			Type: JoinInner, LeftWidth: 2, RightWidth: 2}
		group = col(3)
	}
	tenth := &expr.Scalar{Type: types.TypeFloat, Eval: func(ctx *expr.Ctx) (types.Datum, error) {
		if v := ctx.Row[1]; !v.IsNull() && v.Int() == 4243 {
			return types.Null, errors.New("no 4243")
		}
		return types.Mul(ctx.Row[1], types.NewFloat(0.1))
	}}
	agg := &HashAgg{Child: in, GroupBy: []*expr.Scalar{group}, Maintain: maintain, Aggs: []expr.AggSpec{
		{Name: "count", Star: true}, {Name: "sum", Arg: tenth}, {Name: "min", Arg: col(1)}}}
	return &Project{Child: agg, Exprs: []*expr.Scalar{col(0), col(1), col(2), col(3)}}, read
}

func drainStrings(t *testing.T, snap txn.Snapshot, op Operator) []string {
	t.Helper()
	rows, err := Drain(&Ctx{Snap: snap}, op, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rowStrings(rows)
}

// TestMaintainedAggMatchesFresh is TestKeptBuildMatchesFresh for the
// aggregate: random interleavings of every write to the fact table and the
// dimension table (runs, refreshes of occupied slots, gaps filled below the
// next RowID, deletes and their undoing), commits, aborts, vacuums and
// snapshots — an older snapshot after a newer one, and a transaction's own —
// and under each snapshot one maintained tree, opened again at every step,
// returns what a fresh tree does, byte for byte.
func TestMaintainedAggMatchesFresh(t *testing.T) {
	schema := types.Schema{{Name: "g", Type: types.TypeInt}, {Name: "v", Type: types.TypeInt}}
	var deltas, execs int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mgr := txn.NewManager()
		fact, dim := storage.NewHeap("fact", schema), storage.NewHeap("dim", schema)
		bare, _ := report(fact, nil, nil, true)
		joined, read := report(fact, dim, &JoinBuild{Heap: dim}, true)
		type open struct {
			tx      *txn.Txn
			deleted map[*storage.Heap][]storage.RowID
		}
		var txs []*open
		snaps := []txn.Snapshot{mgr.SnapshotNow()}
		for step := 0; step < 400; step++ {
			h := fact
			if rng.Intn(4) == 0 {
				h = dim
			}
			var w *open
			if len(txs) > 0 {
				w = txs[rng.Intn(len(txs))]
			}
			row := func() types.Row { return nrow(int64(rng.Intn(8))-1, int64(rng.Intn(1000))-1) }
			op := rng.Intn(12)
			if w == nil && op > 0 && op < 7 {
				op = 11 // nothing in flight to write: execute
			}
			switch {
			case op == 0 && len(txs) < 3:
				txs = append(txs, &open{tx: mgr.Begin(), deleted: map[*storage.Heap][]storage.RowID{}})
			case op == 1 || op == 2:
				rows := make([]types.Row, rng.Intn(20)+1)
				for i := range rows {
					rows[i] = row()
				}
				h.InsertRun(w.tx.ID, rows)
			case op == 3 && h.NextID() > 0:
				// An occupied slot refreshed, or a gap filled below the end.
				h.InsertRunAt(w.tx.ID, storage.RowID(rng.Intn(int(h.NextID()+4))), []types.Row{row()})
			case op == 4 && h.NextID() > 0:
				if rid := storage.RowID(rng.Intn(int(h.NextID()))); h.Delete(w.tx.ID, rid) == nil {
					w.deleted[h] = append(w.deleted[h], rid)
				}
			case op == 5 || op == 6:
				if op == 5 && rng.Intn(3) > 0 {
					w.tx.Commit()
				} else {
					for h, rids := range w.deleted {
						for _, rid := range rids {
							h.UndoDelete(w.tx.ID, rid)
						}
					}
					w.tx.Abort()
				}
				txs = slices.DeleteFunc(txs, func(o *open) bool { return o == w })
			case op == 7:
				h.Vacuum(mgr.SnapshotNow(), nil)
			default:
				snap := snaps[len(snaps)-1]
				switch r := rng.Intn(6); {
				case r == 0 && w != nil:
					snap = w.tx.Snap
				case r == 1:
					snap = snaps[rng.Intn(len(snaps))]
				case r < 5:
					snap = mgr.SnapshotNow()
					snaps = append(snaps, snap)
				}
				for _, c := range []struct {
					tree Operator
					dim  *storage.Heap
				}{{bare, nil}, {joined, dim}} {
					fresh, freshRead := report(fact, c.dim, nil, false)
					want := drainStrings(t, snap, fresh)
					before := *read
					got := drainStrings(t, snap, c.tree)
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d step %d, join %v: the maintained tree reads\n%v\na fresh one\n%v", seed, step, c.dim != nil, got, want)
					}
					if execs++; c.dim != nil && *read-before < *freshRead {
						deltas++
					}
				}
			}
		}
	}
	t.Logf("%d of %d executions read a delta", deltas, execs)
	if deltas == 0 {
		t.Fatal("no execution read a delta: the model does not exercise the maintained path")
	}
}

// TestMaintainedAggReadsOnlyTheDelta is the counting pin: over a table of
// 5 000 rows — two heap segments — a maintained aggregate, bare or over a
// join to a kept build side, reads at each execution the k rows appended
// since the last, counted as the SeqScan hands them out, and EXPLAIN marks
// it; a delete, a change to the build side, an undecided snapshot or a failed
// execution makes the next read the whole table, and without Maintain every
// execution does.
func TestMaintainedAggReadsOnlyTheDelta(t *testing.T) {
	schema := types.Schema{{Name: "g", Type: types.TypeInt}, {Name: "v", Type: types.TypeInt}}
	for _, c := range []struct {
		name     string
		join     bool
		maintain bool
	}{{"bare", false, true}, {"join", true, true}, {"not maintained", false, false}} {
		mgr := txn.NewManager()
		fact, dim := storage.NewHeap("fact", schema), storage.NewHeap("dim", schema)
		var table int64
		insert := func(h *storage.Heap, n int, rows ...types.Row) {
			tx := mgr.Begin()
			for i := len(rows); i < n; i++ {
				rows = append(rows, irow(int64(i%10), int64(i%13+1)))
			}
			h.InsertRun(tx.ID, rows)
			tx.Commit()
			if h == fact {
				table += int64(n)
			}
		}
		insert(dim, 10)
		insert(fact, 5000)
		build := func() (Operator, *int64) {
			if c.join {
				return report(fact, dim, &JoinBuild{Heap: dim}, c.maintain)
			}
			return report(fact, nil, nil, c.maintain)
		}
		explained, _ := build()
		if _, stats := Instrument(explained); (stats[1].Detail == "(maintained)") != c.maintain {
			t.Errorf("%s: EXPLAIN reads %q", c.name, stats[1].Name+" "+stats[1].Detail)
		}
		tree, read := build()
		step := func(what string, want int64, snap txn.Snapshot) {
			t.Helper()
			if !c.maintain {
				want = table
			}
			before := *read
			fresh, _ := report(fact, map[bool]*storage.Heap{true: dim}[c.join], nil, false)
			if got, fresh := drainStrings(t, snap, tree), drainStrings(t, snap, fresh); !slices.Equal(got, fresh) {
				t.Fatalf("%s, %s: %v, fresh %v", c.name, what, got, fresh)
			}
			if got := *read - before; got != want {
				t.Errorf("%s, %s: the scan read %d rows, want %d", c.name, what, got, want)
			}
		}
		step("first execution", table, mgr.SnapshotNow())
		step("nothing appended", 0, mgr.SnapshotNow())
		for _, k := range []int{1, 37, 1000} {
			insert(fact, k)
			step("rows appended", int64(k), mgr.SnapshotNow())
		}
		tx := mgr.Begin()
		if err := fact.Delete(tx.ID, 3); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		table--
		step("after a delete", table, mgr.SnapshotNow())
		insert(fact, 5)
		step("rows appended", 5, mgr.SnapshotNow())

		inFlight := mgr.Begin()
		fact.InsertRun(inFlight.ID, []types.Row{irow(1, 1)})
		undecided := mgr.SnapshotNow()
		step("undecided", table, undecided)
		step("undecided again", table, undecided)
		inFlight.Abort()
		step("decided", table, mgr.SnapshotNow())
		step("decided again", 0, mgr.SnapshotNow())

		insert(fact, 1, irow(1, 4243))
		for _, want := range []int64{1, table} { // the delta, then the table: the failure kept nothing
			before := *read
			if _, err := Drain(&Ctx{Snap: mgr.SnapshotNow()}, tree, 0); err == nil {
				t.Fatalf("%s: a row that fails the aggregate was read without an error", c.name)
			}
			if got := *read - before; got != want && c.maintain {
				t.Errorf("%s, failing: the scan read %d rows, want %d", c.name, got, want)
			}
		}
		tx = mgr.Begin()
		if err := fact.Delete(tx.ID, storage.RowID(fact.NextID()-1)); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		table--
		step("the failing row deleted", table, mgr.SnapshotNow())
		step("after it", 0, mgr.SnapshotNow())
		if c.join {
			insert(dim, 1)
			step("the build side changed", table, mgr.SnapshotNow())
			step("the build side unchanged", 0, mgr.SnapshotNow())
		}
	}
}
