package exec

import (
	"fmt"
	"os"
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// TestMain runs every test of the package in poison mode: each time a join
// under a consumer that declared its rows transient is pulled, the rows it
// takes back are overwritten with a sentinel, so an operator that declares
// (or forwards) the declaration and keeps a row anyway produces wrong
// output in whichever test runs it, not in some later run that happens to
// carve the memory again. The root SQL suites run the same way under the
// build tag `poison` (make poison). Poisoning allocates nothing, so the
// allocation pins hold in either mode.
func TestMain(m *testing.M) {
	types.Poison = true
	os.Exit(m.Run())
}

// joinedRows is a join wide enough to recycle many times: probe row i has
// key i%keys and the build side two rows per key, so n probe rows make 2n
// output rows (key, i, key, partner).
func joinedRows(n, keys int, residual *expr.Scalar) *HashJoin {
	probe := make([]types.Row, n)
	for i := range probe {
		probe[i] = irow(int64(i%keys), int64(i))
	}
	build := make([]types.Row, 2*keys)
	for i := range build {
		build[i] = irow(int64(i/2), int64(1000+i))
	}
	return &HashJoin{
		Left: &Values{Rows: probe}, Right: &Values{Rows: build},
		LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
		Type: JoinInner, Residual: residual, LeftWidth: 2, RightWidth: 2,
	}
}

// TestRecycledJoinsAggregateTheSame: every consumer shape that declares its
// rows transient — HashAgg directly, through Filter, Limit and the ANALYZE
// instrument, Project, and a join's probe side feeding another join —
// computes over recycled join output exactly what it computes over the
// same rows retained by Drain. The joins run hundreds of batches (and,
// pulled by an outer join, thousands of one-row batches), a residual
// discards candidates across rewinds and at the end of the block, and
// poison mode (TestMain) scribbles over every batch taken back.
func TestRecycledJoinsAggregateTheSame(t *testing.T) {
	const n, keys = 5*chunkRows + 17, 50
	keepTwoThirds := predFn(func(r types.Row) bool { return (r[1].Int()+r[3].Int())%3 != 0 })
	agg := func(child Operator) Operator { return countSum(child, col(0), col(3)) }
	loop := func() Operator {
		j := joinedRows(n/2, keys, nil)
		return &HashJoin{Left: j.Left, Right: j.Right, Type: JoinInner, LeftWidth: 2, RightWidth: 2,
			Residual: predFn(func(r types.Row) bool { return r[0].Int() == r[2].Int() && r[3].Int()%2 == 0 })}
	}
	dims := make([]types.Row, keys)
	for i := range dims {
		dims[i] = irow(int64(i), int64(i%4))
	}
	// outer joins join's output (as its probe side) to dims on the key.
	outer := func(join Operator) Operator {
		return &HashJoin{Left: join, Right: &Values{Rows: dims},
			LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(0)},
			Type: JoinInner, LeftWidth: 4, RightWidth: 2}
	}
	for name, build := range map[string]func(join Operator) Operator{
		"HashAgg":          agg,
		"HashAgg(Filter)":  func(j Operator) Operator { return agg(&Filter{Child: j, Pred: keepTwoThirds}) },
		"HashAgg(Limit)":   func(j Operator) Operator { return agg(&Limit{Child: j, Count: 3*chunkRows + 5, Offset: 7}) },
		"HashAgg(counted)": func(j Operator) Operator { c, _ := Instrument(j); return agg(c) },
		"HashAgg(Project)": func(j Operator) Operator {
			return agg(&Project{Child: j, Exprs: []*expr.Scalar{col(2), col(1), col(0), col(3)}})
		},
		"HashAgg(HashJoin)": func(j Operator) Operator { return countSum(outer(j), col(5), col(3)) },
		// Sort keeps its input and must go on receiving rows nobody rewrites.
		"HashAgg(Sort)":  func(j Operator) Operator { return agg(&Sort{Child: j, Keys: []SortKey{{Col: 1, Desc: true}}}) },
		"Drain(Project)": func(j Operator) Operator { return &Project{Child: j, Exprs: []*expr.Scalar{col(3), col(1)}} },
	} {
		for joinName, join := range map[string]func() Operator{
			"hash":           func() Operator { return joinedRows(n, keys, nil) },
			"hash, residual": func() Operator { return joinedRows(n, keys, keepTwoThirds) },
			"nested loop":    loop,
		} {
			// The reference consumes the join's rows retained: a Values
			// over what Drain collected from a join nobody told anything.
			retained, err := Drain(&Ctx{}, join(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(retained) <= chunkRows {
				t.Fatalf("%s: %d rows fit one pull", joinName, len(retained))
			}
			want := rowStrings(run(t, build(&Values{Rows: retained})))
			got := rowStrings(run(t, build(join())))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s over a %s join: recycled output gives\n%.300v\nretained output gives\n%.300v", name, joinName, got, want)
			}
		}
	}
}

// TestOnlyDeclaredConsumersRecycle: the declaration reaches a join through
// Filter, Limit and the instrument and from a probe side, and through
// nothing else — under Drain, Sort, Distinct, SetOp, or as a build side, a
// join's rows are kept by someone and are never rewritten, whatever sits
// above.
func TestOnlyDeclaredConsumersRecycle(t *testing.T) {
	for name, c := range map[string]struct {
		tree func(j *HashJoin) Operator
		want bool
	}{
		"Drain":          {func(j *HashJoin) Operator { return j }, false},
		"HashAgg":        {func(j *HashJoin) Operator { return countSum(j, col(0), col(3)) }, true},
		"Project":        {func(j *HashJoin) Operator { return &Project{Child: j, Exprs: []*expr.Scalar{col(0)}} }, true},
		"Limit":          {func(j *HashJoin) Operator { return &Limit{Child: j, Count: 10} }, false},
		"HashAgg(Limit)": {func(j *HashJoin) Operator { return countSum(&Limit{Child: j, Count: 10}, col(0), col(3)) }, true},
		"HashAgg(Filter)": {func(j *HashJoin) Operator {
			return countSum(&Filter{Child: j, Pred: constScalar(types.True)}, col(0), col(3))
		}, true},
		"HashAgg(Sort)": {func(j *HashJoin) Operator {
			return countSum(&Sort{Child: j, Keys: []SortKey{{Col: 1}}}, col(0), col(3))
		}, false},
		"HashAgg(Distinct)": {func(j *HashJoin) Operator { return countSum(&Distinct{Child: j}, col(0), col(3)) }, false},
		"HashAgg(Union all)": {func(j *HashJoin) Operator {
			return countSum(&SetOp{Kind: SetUnion, All: true, Left: j, Right: &Values{}}, col(0), col(3))
		}, false},
		"probe side": {func(j *HashJoin) Operator {
			return &HashJoin{Left: j, Right: &Values{Rows: []types.Row{irow(1)}}, Type: JoinCross, LeftWidth: 4, RightWidth: 1}
		}, true},
		"build side under HashAgg": {func(j *HashJoin) Operator {
			return countSum(&HashJoin{Left: &Values{Rows: makeRows(10)}, Right: j,
				LeftKeys: []*expr.Scalar{col(0)}, RightKeys: []*expr.Scalar{col(1)},
				Type: JoinInner, LeftWidth: 2, RightWidth: 4}, col(0), col(5))
		}, false},
	} {
		j := joinedRows(100, 10, nil)
		if _, err := Drain(&Ctx{}, c.tree(j), 0); err != nil {
			t.Fatal(err)
		}
		if j.out.recycle != c.want {
			t.Errorf("join under %s: recycles %v, want %v", name, j.out.recycle, c.want)
		}
	}
}

// TestPoisonCatchesARetainedRow is the poison mode's own test: a consumer
// that declares its rows transient and then reads one after its next pull
// never reads what it was given — the next batch's row if the memory was
// carved again, the sentinel in every column if not (as after the pull that
// found the end of the stream) — while one that declared nothing reads its
// rows unchanged.
func TestPoisonCatchesARetainedRow(t *testing.T) {
	for _, declared := range []bool{true, false} {
		j := joinedRows(3*chunkRows, 10, nil)
		if declared {
			rowsTransient(j)
		}
		if err := j.Open(&Ctx{}); err != nil {
			t.Fatal(err)
		}
		var kept []types.Row
		var was []string
		for {
			batch, err := j.NextBatch(chunkRows)
			if err != nil {
				t.Fatal(err)
			}
			for i, now := range rowStrings(kept) {
				if declared == (now == was[i]) {
					t.Fatalf("declared %v: a row handed out as %s reads %s after the next pull", declared, was[i], now)
				}
				if poisoned := kept[i][0].Equal(types.Recycled) && kept[i][3].Equal(types.Recycled); declared && batch == nil && !poisoned {
					t.Fatalf("a row taken back at the end of the stream reads %s, not the sentinel", now)
				}
			}
			if batch == nil {
				break
			}
			kept = append(kept[:0], batch[0], batch[len(batch)-1])
			was = rowStrings(kept)
		}
		j.Close()
	}
}
