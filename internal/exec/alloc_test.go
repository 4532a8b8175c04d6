package exec

import (
	"runtime"
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/storage"
	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// The allocation pins below are what keeps re-execution cheap per visited
// row: a keyed operator probes its map with key bytes in a reused buffer,
// evaluates through an expression context it owns, and carves join output
// from blocks, so its allocations scale with groups and build rows — never
// with the rows it visits.

const allocGroups = 100

// streamRows is n (group, value) rows over allocGroups groups.
func streamRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = irow(int64(i%allocGroups), int64(i))
	}
	return rows
}

func countSum(child Operator, group *expr.Scalar, arg *expr.Scalar) *HashAgg {
	return &HashAgg{Child: child, GroupBy: []*expr.Scalar{group}, SortedOutput: true,
		Aggs: []expr.AggSpec{{Name: "count", Star: true}, {Name: "sum", Arg: arg}}}
}

func drainAllocs(t *testing.T, build func() Operator) float64 {
	t.Helper()
	// A collection that starts inside a run allocates on the runtime's own
	// account; start from a collected heap so that a few small runs end
	// before the next one is due.
	runtime.GC()
	return testing.AllocsPerRun(5, func() {
		if _, err := Drain(&Ctx{}, build(), 0); err != nil {
			t.Fatal(err)
		}
	})
}

// drainBytes is how many bytes one execution of build's tree allocates.
func drainBytes(t *testing.T, ctx *Ctx, build func() Operator) float64 {
	t.Helper()
	const runs = 5
	var before, after runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 { // the first run is the warm-up
			runtime.ReadMemStats(&before)
		}
		if _, err := Drain(ctx, build(), 0); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestHashAggAllocsIndependentOfRows: ten times the rows over the same
// 100 groups must not cost more allocations (Drain's output slice grows
// with the groups, not the rows).
func TestHashAggAllocsIndependentOfRows(t *testing.T) {
	small, large := streamRows(1000), streamRows(10000)
	a := drainAllocs(t, func() Operator { return countSum(&Values{Rows: small}, col(0), col(1)) })
	b := drainAllocs(t, func() Operator { return countSum(&Values{Rows: large}, col(0), col(1)) })
	if b > a+2 {
		t.Errorf("HashAgg allocations grow with rows: %.0f at 1000 rows, %.0f at 10000", a, b)
	}
}

// groupRows is two rows for each of n groups.
func groupRows(n int) []types.Row {
	rows := make([]types.Row, 2*n)
	for i := range rows {
		rows[i] = irow(int64(i%n), int64(i))
	}
	return rows
}

// TestHashAggAllocsPerGroup: a group is a slab slot, its output row a
// block's and its map key a chunk's, so a fresh tree's Open — what a snapshot
// query pays — costs per chunk of groups: 11, 61 and 379 allocations when
// this was written (one more than before trees were opened again: the key
// scratch the tree keeps), 6.4 a group when each had its struct, key string,
// cloned key row, accumulator slice and two accumulators to itself.
func TestHashAggAllocsPerGroup(t *testing.T) {
	for _, c := range []struct {
		groups int
		limit  float64
	}{{8, 16}, {allocGroups, 100}, {10000, 0.1 * 10000}} {
		rows := groupRows(c.groups)
		var fresh []*HashAgg // AllocsPerRun runs once more than it is asked to
		for range 6 {
			fresh = append(fresh, countSum(&Values{Rows: rows}, col(0), col(1)))
		}
		runtime.GC()
		got := testing.AllocsPerRun(5, func() {
			agg := fresh[0]
			if fresh = fresh[1:]; agg.Open(&Ctx{}) != nil || len(agg.rows) != c.groups {
				t.Fatalf("Open over %d groups: %d rows", c.groups, len(agg.rows))
			}
		})
		t.Logf("a fresh Open over %d groups × 2 aggregates: %.0f allocations", c.groups, got)
		if got > c.limit {
			t.Errorf("a fresh Open over %d groups allocates %.0f times, want ≤ %.0f", c.groups, got, c.limit)
		}
	}
}

// TestHashAggReopenAllocsPerGroup: a tree opened again — a continuous query's
// post stage at every close — keeps its groups in its map by key, so an
// execution over the keys of the one before pays for its output rows' block
// alone: 2 allocations whatever the groups when this was written, the Ctx
// this test makes one of them, against the fresh tree's 11, 61 and 379.
func TestHashAggReopenAllocsPerGroup(t *testing.T) {
	for _, c := range []struct {
		groups int
		limit  float64
	}{{8, 3}, {allocGroups, 3}, {10000, 3}} {
		agg := countSum(&Values{Rows: groupRows(c.groups)}, col(0), col(1))
		runtime.GC()
		got := testing.AllocsPerRun(5, func() {
			if agg.Open(&Ctx{}) != nil || len(agg.rows) != c.groups {
				t.Fatalf("Open over %d groups: %d rows", c.groups, len(agg.rows))
			}
			agg.Close()
		})
		t.Logf("Open again over %d groups × 2 aggregates: %.0f allocations", c.groups, got)
		if got > c.limit {
			t.Errorf("Open again over %d groups allocates %.0f times, want ≤ %.0f", c.groups, got, c.limit)
		}
	}
}

// TestJoinTreeAllocs: Filter → HashJoin(stream rows ⋈ 100-row table) →
// HashAgg, the enrichment shape of the paper's §3.3, allocates per block
// of join output and per group/build row only.
func TestJoinTreeAllocs(t *testing.T) {
	const n = 10000
	rows := streamRows(n)
	table := make([]types.Row, allocGroups)
	for i := range table {
		table[i] = irow(int64(i), int64(i%10)) // (key, category)
	}
	build := func() Operator {
		return countSum(&HashJoin{
			Left: &Filter{Child: &Values{Rows: rows},
				Pred: predFn(func(r types.Row) bool { return r[1].Int()%5 != 0 })},
			Right:    &Values{Rows: table},
			LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
			Type: JoinInner, LeftWidth: 2, RightWidth: 2,
		}, col(3), col(1))
	}
	got := drainAllocs(t, build)
	t.Logf("join tree over %d rows: %.0f allocations", n, got)
	// 47: the hash table over 100 build rows, the one recycled block of join
	// output, and the aggregate's 10 groups (categories) in one chunk — 99
	// when each group had six objects to itself, 142 when every batch of join
	// output was carved afresh.
	if got > 55 {
		t.Errorf("join tree over %d rows allocates %.0f times, want ≤ 55", n, got)
	}
}

// TestProjectOverAggAllocsPerChunk: HashAgg hands its groups up as one
// chunk, so the Project above it carves all its output rows from one block
// — the projection costs a fixed number of allocations, not one per group.
func TestProjectOverAggAllocsPerChunk(t *testing.T) {
	rows := streamRows(1000)
	agg := func() Operator { return countSum(&Values{Rows: rows}, col(0), col(1)) }
	exprs := []*expr.Scalar{col(0), col(2)}
	bare := drainAllocs(t, agg)
	projected := drainAllocs(t, func() Operator { return &Project{Child: agg(), Exprs: exprs} })
	// The Project value, its block and its output container.
	if projected > bare+3 {
		t.Errorf("Project over %d groups adds %.0f allocations to HashAgg's %.0f", allocGroups, projected-bare, bare)
	}
}

// TestSortAllocsLogarithmic: key rows are carved from a block per input
// chunk, so what grows with the input is only the doubling of the slices
// that hold it.
func TestSortAllocsLogarithmic(t *testing.T) {
	rows := streamRows(10000)
	got := drainAllocs(t, func() Operator {
		return &Sort{Child: &Values{Rows: rows}, Keys: []SortKey{{Col: 1, Desc: true}, {Col: 0}}}
	})
	// 33 when this was written; one key row per input row would be 10 000 more.
	if got > 60 {
		t.Errorf("sorting %d rows allocates %.0f times", len(rows), got)
	}
}

// TestHashJoinBuildAllocs: building the hash table costs a fixed handful of
// allocations — the row chain, the key offsets, one backing string for
// every key, the map — not a key string and a bucket per build row, so a
// post stage or a report that joins a dimension table per execution pays
// for the table's size in bytes only.
func TestHashJoinBuildAllocs(t *testing.T) {
	open := func(n int) float64 {
		table := make([]types.Row, n)
		for i := range table {
			table[i] = irow(int64(i/2), int64(i)) // two rows per key
		}
		return drainAllocs(t, func() Operator {
			return &HashJoin{Left: &Values{}, Right: &Values{Rows: table},
				LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
				Type: JoinInner, LeftWidth: 2, RightWidth: 2}
		})
	}
	// An empty build side is what the operators themselves cost: 13 when
	// this was written, 22 at 100 rows and 24 at 1000 (181 and 1542 with a
	// string per key and a bucket slice growing per row).
	none, small, large := open(0), open(100), open(1000)
	if small > none+12 || large > small+4 {
		t.Errorf("HashJoin build allocates %.0f times for no rows, %.0f for 100, %.0f for 1000", none, small, large)
	}
}

// TestDrainAllocsSized: told the row count to expect, Drain allocates its
// result once, however many chunks it arrives in; told nothing, a
// 10 000-row result reallocates about ten times on the way.
func TestDrainAllocsSized(t *testing.T) {
	rows, ctx := streamRows(10000), &Ctx{}
	drain := func(expect int) float64 {
		return testing.AllocsPerRun(5, func() {
			out, err := Drain(ctx, &Values{Rows: rows}, expect)
			if err != nil || len(out) != len(rows) {
				t.Fatalf("%d rows, %v", len(out), err)
			}
		})
	}
	// The Values and the result.
	if sized := drain(len(rows)); sized > 2 {
		t.Errorf("Drain sized for its %d rows allocates %.0f times, want 2", len(rows), sized)
	}
	if unsized := drain(0); unsized < 5 {
		t.Errorf("Drain of %d rows from nil allocates %.0f times: the unsized case this test contrasts is gone", len(rows), unsized)
	}
	// An underestimate still grows; an empty result is nil whatever was expected.
	if out, err := Drain(ctx, &Values{Rows: rows}, 10); err != nil || len(out) != len(rows) {
		t.Fatalf("underestimated: %d rows, %v", len(out), err)
	}
	if out, err := Drain(ctx, &Values{}, 10); err != nil || out != nil {
		t.Fatalf("empty result = %v, %v, want nil", out, err)
	}
}

// TestProjectSmallBatchAllocs: a Project pulled a row at a time — under a
// join's probe side, or a LIMIT — keeps carving from one block, refilled by
// doubling, instead of allocating a one-row block per pull.
func TestProjectSmallBatchAllocs(t *testing.T) {
	const n = 4096
	rows := streamRows(n)
	exprs := []*expr.Scalar{col(1), col(0)}
	allocs := testing.AllocsPerRun(5, func() {
		p := &Project{Child: &Values{Rows: rows}, Exprs: exprs}
		if err := p.Open(&Ctx{}); err != nil {
			t.Fatal(err)
		}
		for i := 0; ; i++ {
			batch, err := p.NextBatch(1)
			if err != nil {
				t.Fatal(err)
			}
			if batch == nil {
				if i != n {
					t.Fatalf("%d rows, want %d", i, n)
				}
				break
			}
			if len(batch) != 1 || batch[0][1].Int() != int64(i%allocGroups) {
				t.Fatalf("pull %d = %v", i, batch)
			}
		}
	})
	if perRow := allocs / n; perRow > 0.05 {
		t.Errorf("Project at max = 1 allocates %.3f times per row (%.0f for %d rows), want ≤ 0.05", perRow, allocs, n)
	}
}

// TestScanAggAllocsIndependentOfTableRows: an aggregate over a table scan
// allocates for its groups and for the scan's one container of chunkRows
// row headers — not a copy of the table, which is what a scan that
// materialized in Open cost (2.4 MB of headers at 100 000 rows, and as much
// again in regrowth).
func TestScanAggAllocsIndependentOfTableRows(t *testing.T) {
	mgr := txn.NewManager()
	schema := types.Schema{{Name: "g", Type: types.TypeInt}, {Name: "v", Type: types.TypeInt}}
	heap := storage.NewHeap("t", schema)
	bytesAt := func(n int) float64 {
		tx := mgr.Begin()
		for i := int(heap.NextID()); i < n; i++ {
			heap.InsertRun(tx.ID, []types.Row{irow(int64(i%allocGroups), int64(i))})
		}
		tx.Commit()
		return drainBytes(t, &Ctx{Snap: mgr.SnapshotNow()}, func() Operator {
			return countSum(&SeqScan{Heap: heap}, col(0), col(1))
		})
	}
	small, large := bytesAt(10000), bytesAt(100000)
	t.Logf("%.0f B over 10 000 rows, %.0f B over 100 000", small, large)
	if large > small+1024 {
		t.Errorf("HashAgg(SeqScan) allocates %.0f B over 10 000 rows and %.0f B over 100 000", small, large)
	}
	// 67 kB: the container, and ≈ 420 B per group.
	if limit := float64(24*chunkRows + 440*allocGroups); large > limit {
		t.Errorf("HashAgg(SeqScan) over %d groups allocates %.0f B, want ≤ %.0f (the container + 440 B per group)", allocGroups, large, limit)
	}
}

// aggOverJoin is the report shape: probe rows joined to a 100-row dimension
// table on their key, under an aggregate by the dimension's category.
func aggOverJoin(probe []types.Row) func() Operator {
	table := make([]types.Row, allocGroups)
	for i := range table {
		table[i] = irow(int64(i), int64(i%10)) // (key, category)
	}
	return func() Operator {
		return countSum(&HashJoin{
			Left: &Values{Rows: probe}, Right: &Values{Rows: table},
			LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
			Type: JoinInner, LeftWidth: 2, RightWidth: 2,
		}, col(3), col(1))
	}
}

// TestRecycledJoinAllocsIndependentOfProbeRows: a join under an aggregate
// carves every batch from its one 16-row block, so its bytes do not grow
// with the rows it joins at all (96 B per output row when every batch was
// carved afresh: 2 MB at 20 480 probe rows).
func TestRecycledJoinAllocsIndependentOfProbeRows(t *testing.T) {
	two := drainBytes(t, &Ctx{}, aggOverJoin(streamRows(2*chunkRows)))
	twenty := drainBytes(t, &Ctx{}, aggOverJoin(streamRows(20*chunkRows)))
	t.Logf("%.0f B over %d probe rows, %.0f B over %d", two, 2*chunkRows, twenty, 20*chunkRows)
	if twenty > two+1024 {
		t.Errorf("HashAgg(HashJoin) allocates %.0f B over %d probe rows and %.0f B over %d", two, 2*chunkRows, twenty, 20*chunkRows)
	}
	// 20 kB at 16 bytes a datum (21 kB at 24, 22 kB at 40): the hash table
	// over 100 build rows, the aggregate's 10 groups, the block (1 kB) and the
	// containers.
	if twenty > 30<<10 {
		t.Errorf("HashAgg(HashJoin) allocates %.0f B, want ≤ 30 kB", twenty)
	}
}

// TestSmallJoinAllocsNoMoreThanBefore: a window fire's post-stage join of
// ≤ 100 groups to a dimension table, thousands of times a minute, allocates
// no more than it did before joins could recycle — 45 192 B in 118
// allocations at the commit before, at 40 bytes a datum; the bound is that
// less what the 24-byte datum took off what the join allocates now (21 944
// → 20 224 B). (It allocates half: the one block in place of 16 + 32 + 64
// rows, and an inner join no longer makes the NULL padding rows only outer
// joins use.)
func TestSmallJoinAllocsNoMoreThanBefore(t *testing.T) {
	got := drainBytes(t, &Ctx{}, aggOverJoin(streamRows(100)))
	t.Logf("%.0f B", got)
	if got > 41650 {
		t.Errorf("a 100-row join under an aggregate allocates %.0f B, want ≤ 41 650 (before joins recycled)", got)
	}
	if allocs := drainAllocs(t, aggOverJoin(streamRows(100))); allocs > 118 {
		t.Errorf("a 100-row join under an aggregate allocates %.0f times, 118 before joins recycled", allocs)
	}
}
