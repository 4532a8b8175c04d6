package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"streamrel/internal/expr"
	"streamrel/internal/types"
)

// joinPred is an ON conjunct over a left row (k, v) and a right row (k, w),
// in three-valued logic: NULL when a column it reads is NULL.
type joinPred func(l, r types.Row) types.Datum

func lessK(l, r types.Row) types.Datum {
	if l[0].IsNull() || r[0].IsNull() {
		return types.Null
	}
	return types.NewBool(l[0].Int() < r[0].Int())
}

func eqK(l, r types.Row) types.Datum {
	if l[0].IsNull() || r[0].IsNull() {
		return types.Null
	}
	return types.NewBool(l[0].Int() == r[0].Int())
}

// sumNot3 is a residual that is NULL whenever v or w is.
func sumNot3(l, r types.Row) types.Datum {
	if l[1].IsNull() || r[1].IsNull() {
		return types.Null
	}
	return types.NewBool((l[1].Int()+r[1].Int())%3 != 0)
}

// and is SQL's AND of the conjuncts that are not nil; of none, TRUE.
func and(ps ...joinPred) joinPred {
	return func(l, r types.Row) types.Datum {
		out := types.NewBool(true)
		for _, p := range ps {
			if p == nil {
				continue
			}
			switch v := p(l, r); {
			case v.IsNull():
				out = types.Null
			case !v.Bool():
				return v
			}
		}
		return out
	}
}

// residualOf compiles p over the joined row; nil stays nil.
func residualOf(p joinPred) *expr.Scalar {
	if p == nil {
		return nil
	}
	return &expr.Scalar{Type: types.TypeBool, Eval: func(ctx *expr.Ctx) (types.Datum, error) {
		return p(ctx.Row[:2], ctx.Row[2:]), nil
	}}
}

// nestedLoop is the oracle: every pair of rows tried under on, the left rows
// that met none padded for LEFT and FULL, then the right rows that met none
// for RIGHT and FULL.
func nestedLoop(left, right []types.Row, typ JoinType, on joinPred) []string {
	var out []string
	met := make([]bool, len(right))
	for _, l := range left {
		found := false
		for i, r := range right {
			if v := on(l, r); !v.IsNull() && v.Bool() {
				out = append(out, append(l.Clone(), r...).String())
				found, met[i] = true, true
			}
		}
		if !found && (typ == JoinLeft || typ == JoinFull) {
			out = append(out, append(l.Clone(), nullRow(2)...).String())
		}
	}
	for i, r := range right {
		if !met[i] && (typ == JoinRight || typ == JoinFull) {
			out = append(out, append(nullRow(2), r...).String())
		}
	}
	return out
}

// joinNames names every JoinType, indexed by it.
var joinNames = []string{JoinInner: "inner", JoinLeft: "left", JoinRight: "right", JoinFull: "full", JoinCross: "cross"}

// joinSides draws n rows (k, v) with k in 0..3 and NULL in about one of six
// of each column.
func joinSides(rng *rand.Rand, n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = nrow(rng.Int63n(5)-1, rng.Int63n(7)-1)
	}
	return rows
}

// TestJoinMatchesNestedLoop: every join type, keyed and keyless, gives the
// brute-force nested loop's rows as a multiset — over NULL keys, residuals
// that yield NULL, an empty side and each tree opened three times (run).
func TestJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	left, right := joinSides(rng, 40), joinSides(rng, 30)
	key := []*expr.Scalar{col(0)}
	shapes := []struct {
		name     string
		keys     bool
		residual joinPred
	}{
		{"keyed", true, nil},
		{"keyed, residual", true, sumNot3},
		{"keyless", false, nil},
		{"keyless, l.k < r.k", false, lessK},
		{"keyless, l.k = r.k and residual", false, and(eqK, sumNot3)},
	}
	sides := []struct {
		name        string
		left, right []types.Row
	}{
		{"both", left, right},
		{"empty build", left, nil},
		{"empty probe", nil, right},
	}
	for _, s := range shapes {
		on := and(s.residual)
		if s.keys {
			on = and(eqK, s.residual)
		}
		for typ, typName := range joinNames {
			for _, d := range sides {
				name := fmt.Sprintf("%s/%s/%s", s.name, typName, d.name)
				j := &HashJoin{
					Left: &Values{Rows: d.left}, Right: &Values{Rows: d.right},
					Type: JoinType(typ), Residual: residualOf(s.residual), LeftWidth: 2, RightWidth: 2,
				}
				if s.keys {
					j.LeftKeys, j.RightKeys = key, key
				}
				want := nestedLoop(d.left, d.right, JoinType(typ), on)
				slices.Sort(want)
				got := rowStrings(run(t, j))
				slices.Sort(got)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: got %d rows %v, want %d %v", name, len(got), got, len(want), want)
				}
			}
		}
	}
}

// TestJoinAfterFailedResidual: a residual that fails partway through an
// execution surfaces its error, and the next execution of the same tree —
// outer joins' matched marks and the carved output included — is correct.
func TestJoinAfterFailedResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	left, right := joinSides(rng, 40), joinSides(rng, 30)
	boom := errors.New("residual failed")
	for _, keys := range [][]*expr.Scalar{{col(0)}, nil} {
		for typ, typName := range joinNames {
			evals, failAt := 0, 50
			j := &HashJoin{
				Left: &Values{Rows: left}, Right: &Values{Rows: right},
				LeftKeys: keys, RightKeys: keys, Type: JoinType(typ), LeftWidth: 2, RightWidth: 2,
				Residual: &expr.Scalar{Type: types.TypeBool, Eval: func(ctx *expr.Ctx) (types.Datum, error) {
					if evals++; evals == failAt {
						return types.Null, boom
					}
					return sumNot3(ctx.Row[:2], ctx.Row[2:]), nil
				}},
			}
			on := sumNot3
			if keys != nil {
				on = and(eqK, sumNot3)
			}
			if _, err := Drain(&Ctx{}, j, 0); !errors.Is(err, boom) {
				t.Fatalf("keys %d, %s: Drain returned %v, want the residual's error", len(keys), typName, err)
			}
			want := nestedLoop(left, right, JoinType(typ), on)
			slices.Sort(want)
			got := rowStrings(run(t, j))
			slices.Sort(got)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("keys %d, %s: after a failed execution got %v, want %v", len(keys), typName, got, want)
			}
		}
	}
}
