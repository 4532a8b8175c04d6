package exec

import (
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// counting wraps a scalar so a test can see how often it was evaluated.
func counting(n *int, s *expr.Scalar) *expr.Scalar {
	return &expr.Scalar{Type: s.Type, Eval: func(ctx *expr.Ctx) (types.Datum, error) {
		*n++
		return s.Eval(ctx)
	}}
}

// TestLimitLaziness pins how much work a LIMIT lets the operators below
// it skip: the evaluation counts are the ones the row-at-a-time executor
// produced, where Limit pulled exactly the rows it owed. A pull carries
// the consumer's demand so that a batch-only tree skips the same work.
func TestLimitLaziness(t *testing.T) {
	notThird := predFn(func(r types.Row) bool { return r[0].Int()%3 != 0 })
	all := predFn(func(types.Row) bool { return true })
	// The first probe row (key 0) has five partners, the rest one each.
	build := []types.Row{irow(0, 100), irow(0, 101), irow(0, 102), irow(0, 103), irow(0, 104)}
	for i := int64(1); i < 7; i++ {
		build = append(build, irow(i, 100*i))
	}
	var filters, projects, residuals int
	overFilter := func(count, offset int64) Operator {
		return &Limit{Count: count, Offset: offset, Child: &Project{
			Exprs: []*expr.Scalar{counting(&projects, col(0))},
			Child: &Filter{Pred: counting(&filters, notThird), Child: &Values{Rows: makeRows(1000)}},
		}}
	}
	overJoin := func(residual *expr.Scalar) Operator {
		return &Limit{Count: 1, Child: &Project{
			Exprs: []*expr.Scalar{counting(&projects, col(3))},
			Child: &HashJoin{
				Left:     &Filter{Pred: counting(&filters, all), Child: &Values{Rows: makeRows(1000)}},
				Right:    &Values{Rows: build},
				LeftKeys: []*expr.Scalar{col(1)}, RightKeys: []*expr.Scalar{col(0)},
				Type: JoinInner, Residual: residual, LeftWidth: 2, RightWidth: 2,
			},
		}}
	}
	cases := []struct {
		name                               string
		op                                 Operator
		rows, filters, projects, residuals int
	}{
		{"limit 3 offset 2 over a filter", overFilter(3, 2), 3, 8, 5, 0},
		{"limit 0", overFilter(0, 0), 0, 0, 0, 0},
		{"limit 0 offset 2", overFilter(0, 2), 0, 3, 2, 0},
		{"offset 660, no limit", overFilter(-1, 660), 6, 1000, 666, 0},
		{"limit 1 over a join with fan-out 5", overJoin(nil), 1, 1, 1, 0},
		{"limit 1 over a join, residual keeps the 4th partner",
			overJoin(counting(&residuals, predFn(func(r types.Row) bool { return r[3].Int() >= 103 }))), 1, 1, 1, 4},
	}
	for _, c := range cases {
		filters, projects, residuals = 0, 0, 0
		rows, err := Drain(&Ctx{}, c.op, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.rows || filters != c.filters || projects != c.projects || residuals != c.residuals {
			t.Errorf("%s: %d rows after %d filter, %d project and %d residual evaluations, want %d after %d, %d and %d",
				c.name, len(rows), filters, projects, residuals, c.rows, c.filters, c.projects, c.residuals)
		}
	}
}
