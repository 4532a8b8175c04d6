package expr

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"streamrel/internal/types"
)

// sameBits reports whether two results are one datum: the same type and, for a
// DOUBLE, the same bits (-0.0 is not 0.0).
func sameBits(a, b types.Datum) bool {
	switch {
	case a.Type() != b.Type():
		return false
	case a.Type() == types.TypeFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return a.Equal(b)
}

// TestTypedLanesMatchGeneric is the typed lanes' differential: over BIGINT,
// DOUBLE and INTERVAL arguments with NULLs among them, seeded sequences of
// Add into a slice, Merge of a slice into a window and Sub of the oldest one
// out of it give, after every step, the sum lane's Result the type and bits of
// a re-sum of the values the window holds in the type's own arithmetic (NULL
// when none is non-NULL), and the COUNT lanes' the counts of those values —
// through a column, as the window state keeps them. The windows retract to no
// non-NULL value (NULL) and to nothing at times, BIGINT and INTERVAL sums wrap
// near ±2^62, and DOUBLE values are quarters, whose sums a retraction leaves
// exact, with -0.0 among them.
func TestTypedLanesMatchGeneric(t *testing.T) {
	for _, typ := range []types.Type{types.TypeInt, types.TypeFloat, types.TypeInterval} {
		typed := AggSpec{Name: "sum", Arg: &Scalar{Type: typ}}
		if a, _ := NewAcc(typed); !isLane(a) {
			t.Fatalf("sum over a %s argument got %T, want a typed lane", typ, a)
		}
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(typ)))
			value := func(nulls bool) types.Datum {
				if nulls || rng.Intn(5) == 0 {
					return types.Null
				}
				n := rng.Int63n(1<<20) - 1<<19
				if rng.Intn(4) == 0 && typ != types.TypeFloat { // near ±2^62, so that sums wrap
					n = 1<<62 - n
					if rng.Intn(2) == 0 {
						n = -n
					}
				}
				switch typ {
				case types.TypeInt:
					return types.NewInt(n)
				case types.TypeFloat:
					if rng.Intn(6) == 0 {
						return types.NewFloat(math.Copysign(0, -1))
					}
					return types.NewFloat(float64(n) / 4)
				}
				return types.NewIntervalMicros(n)
			}
			// resum is the window's values summed afresh by types.Add, from the
			// type's zero (0.0, where the lane also starts: -0.0 + 0.0 is 0.0).
			zero := map[types.Type]types.Datum{types.TypeInt: types.NewInt(0), types.TypeFloat: types.NewFloat(0), types.TypeInterval: types.NewIntervalMicros(0)}[typ]
			resum := func(vals []types.Datum) types.Datum {
				sum := types.Null
				for _, v := range vals {
					if !v.IsNull() {
						if sum.IsNull() {
							sum = zero
						}
						sum, _ = types.Add(sum, v)
					}
				}
				return sum
			}
			specs := []AggSpec{typed, {Name: "count", Star: true}, {Name: "count", Arg: typed.Arg}}
			type slice struct {
				accs  []Acc
				vals  []types.Datum
				nulls bool // a slice of NULLs only
			}
			newSlice := func() *slice {
				sl := &slice{nulls: rng.Intn(3) == 0}
				for _, spec := range specs {
					a, err := NewAcc(spec)
					if err != nil {
						t.Fatal(err)
					}
					sl.accs = append(sl.accs, a)
				}
				return sl
			}
			window := make([]Column, len(specs))
			for i, spec := range specs {
				c, err := NewColumn(spec)
				if err != nil {
					t.Fatal(err)
				}
				c.Resize(1)
				window[i] = c
			}
			cur, merged := newSlice(), []*slice{}
			nulls, empties := 0, 0
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 6:
					v := value(cur.nulls)
					cur.vals = append(cur.vals, v)
					for _, a := range cur.accs {
						if err := a.Add(v); err != nil {
							t.Fatal(err)
						}
					}
				case op < 8:
					for i, c := range window {
						if err := c.Acc(0).Merge(cur.accs[i]); err != nil {
							t.Fatal(err)
						}
					}
					merged, cur = append(merged, cur), newSlice()
				default:
					for k := 1 + rng.Intn(2); k > 0 && len(merged) > 0; k-- {
						for i, c := range window {
							if err := c.Acc(0).(Retractable).Sub(merged[0].accs[i]); err != nil {
								t.Fatal(err)
							}
						}
						merged = merged[1:]
					}
				}
				star, nonNull, vals := 0, 0, []types.Datum{}
				for _, sl := range merged {
					for _, v := range sl.vals {
						if star++; !v.IsNull() {
							nonNull++
						}
					}
					vals = append(vals, sl.vals...)
				}
				if lane, sum := window[0].Result(0), resum(vals); !sameBits(lane, sum) {
					t.Fatalf("%s seed %d step %d: lane %v (%s), re-sum %v (%s)", typ, seed, step, lane, lane.Type(), sum, sum.Type())
				}
				if got := window[1].Result(0); !sameBits(got, types.NewInt(int64(star))) {
					t.Fatalf("%s seed %d step %d: count(*) %v, want %d", typ, seed, step, got, star)
				}
				if got := window[2].Result(0); !sameBits(got, types.NewInt(int64(nonNull))) {
					t.Fatalf("%s seed %d step %d: count(x) %v, want %d", typ, seed, step, got, nonNull)
				}
				if nonNull == 0 && star > 0 {
					nulls++
				} else if star == 0 && step > 0 {
					empties++
				}
			}
			if nulls == 0 || empties == 0 {
				t.Fatalf("%s seed %d: %d steps of a window of only NULLs, %d of an empty one: the tape is too tame", typ, seed, nulls, empties)
			}
		}
	}
}

// TestTypedLaneRefusesOtherTypes: a typed lane that meets a value of another
// type returns an error naming the sum, and sums nothing.
func TestTypedLaneRefusesOtherTypes(t *testing.T) {
	for typ, other := range map[types.Type]types.Datum{
		types.TypeInt:      types.NewFloat(1.5),
		types.TypeFloat:    types.NewInt(3),
		types.TypeInterval: types.NewInt(3),
	} {
		a, err := NewAcc(AggSpec{Name: "sum", Arg: &Scalar{Type: typ}})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Add(other); err == nil || !strings.Contains(err.Error(), "sum") {
			t.Errorf("a %s lane took %v (%v)", typ, other, err)
		}
		if got := a.Result(); !got.IsNull() {
			t.Errorf("a %s lane that refused %v sums %v", typ, other, got)
		}
	}
}

func isLane(a Acc) bool { _, ok := a.(lane); return ok }
