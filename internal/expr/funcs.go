package expr

import (
	"fmt"
	"math"
	"strings"
	"time"

	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// scalarFunc is the implementation of one builtin scalar function: typ is
// its result's type, or, TypeUnknown, its arguments' common type, each
// argument cast to it (unify).
type scalarFunc struct {
	minArgs, maxArgs int
	typ              types.Type
	eval             func(ctx *Ctx, args []types.Datum) (types.Datum, error)
}

// nullIfAnyNull wraps an eval that wants non-NULL inputs.
func nullIfAnyNull(f func(ctx *Ctx, args []types.Datum) (types.Datum, error)) func(*Ctx, []types.Datum) (types.Datum, error) {
	return func(ctx *Ctx, args []types.Datum) (types.Datum, error) {
		for _, a := range args {
			if a.IsNull() {
				return types.Null, nil
			}
		}
		return f(ctx, args)
	}
}

var scalarFuncs = map[string]scalarFunc{
	"lower": {1, 1, types.TypeString, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewString(strings.ToLower(a[0].Str())), nil
		})},
	"upper": {1, 1, types.TypeString, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewString(strings.ToUpper(a[0].Str())), nil
		})},
	"length": {1, 1, types.TypeInt, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewInt(int64(len(a[0].Str()))), nil
		})},
	"trim": {1, 1, types.TypeString, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewString(strings.TrimSpace(a[0].Str())), nil
		})},
	"replace": {3, 3, types.TypeString, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewString(strings.ReplaceAll(a[0].Str(), a[1].Str(), a[2].Str())), nil
		})},
	"substr": {2, 3, types.TypeString, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			s := a[0].Str()
			start := int(a[1].Int()) - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				return types.NewString(""), nil
			}
			end := len(s)
			if len(a) == 3 {
				if n := int(a[2].Int()); n >= 0 && start+n < end {
					end = start + n
				}
			}
			return types.NewString(s[start:end]), nil
		})},
	"strpos": {2, 2, types.TypeInt, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewInt(int64(strings.Index(a[0].Str(), a[1].Str()) + 1)), nil
		})},
	"concat": {1, 16, types.TypeString,
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			var b strings.Builder
			for _, d := range a {
				if d.IsNull() {
					continue
				}
				s, err := types.Cast(d, types.TypeString)
				if err != nil {
					return types.Null, err
				}
				b.WriteString(s.Str())
			}
			return types.NewString(b.String()), nil
		}},
	"abs": {1, 1, types.TypeUnknown, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			switch a[0].Type() {
			case types.TypeInt:
				v := a[0].Int()
				if v < 0 {
					v = -v
				}
				return types.NewInt(v), nil
			case types.TypeFloat:
				return types.NewFloat(math.Abs(a[0].Float())), nil
			case types.TypeInterval:
				v := a[0].IntervalMicros()
				if v < 0 {
					v = -v
				}
				return types.NewIntervalMicros(v), nil
			}
			return types.Null, fmt.Errorf("expr: abs on %s", a[0].Type())
		})},
	"floor": {1, 1, types.TypeFloat, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewFloat(math.Floor(a[0].Float())), nil
		})},
	"ceil": {1, 1, types.TypeFloat, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewFloat(math.Ceil(a[0].Float())), nil
		})},
	"round": {1, 2, types.TypeFloat, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			n := 0
			if len(a) == 2 {
				n = int(a[1].Int())
			}
			scale := math.Pow(10, float64(n))
			return types.NewFloat(math.Round(a[0].Float()*scale) / scale), nil
		})},
	"sqrt": {1, 1, types.TypeFloat, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			v := a[0].Float()
			if v < 0 {
				return types.Null, fmt.Errorf("expr: sqrt of negative value")
			}
			return types.NewFloat(math.Sqrt(v)), nil
		})},
	"power": {2, 2, types.TypeFloat, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewFloat(math.Pow(a[0].Float(), a[1].Float())), nil
		})},
	"ln": {1, 1, types.TypeFloat, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			v := a[0].Float()
			if v <= 0 {
				return types.Null, fmt.Errorf("expr: ln of non-positive value")
			}
			return types.NewFloat(math.Log(v)), nil
		})},
	"sign": {1, 1, types.TypeInt, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			v := a[0].Float()
			switch {
			case v > 0:
				return types.NewInt(1), nil
			case v < 0:
				return types.NewInt(-1), nil
			}
			return types.NewInt(0), nil
		})},
	"coalesce": {1, 16, types.TypeUnknown,
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			for _, d := range a {
				if !d.IsNull() {
					return d, nil
				}
			}
			return types.Null, nil
		}},
	"nullif": {2, 2, types.TypeUnknown,
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			if !a[0].IsNull() && !a[1].IsNull() &&
				types.Comparable(a[0].Type(), a[1].Type()) && types.Compare(a[0], a[1]) == 0 {
				return types.Null, nil
			}
			return a[0], nil
		}},
	"greatest": {1, 16, types.TypeUnknown, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			best := a[0]
			for _, d := range a[1:] {
				if types.Compare(d, best) > 0 {
					best = d
				}
			}
			return best, nil
		})},
	"least": {1, 16, types.TypeUnknown, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			best := a[0]
			for _, d := range a[1:] {
				if types.Compare(d, best) < 0 {
					best = d
				}
			}
			return best, nil
		})},
	"date_trunc": {2, 2, types.TypeTimestamp, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			unit := strings.ToLower(a[0].Str())
			us := a[1].TimestampMicros()
			var width int64
			switch unit {
			case "second":
				width = 1_000_000
			case "minute":
				width = 60_000_000
			case "hour":
				width = 3_600_000_000
			case "day":
				width = 86_400_000_000
			case "week":
				width = 7 * 86_400_000_000
			default:
				return types.Null, fmt.Errorf("expr: date_trunc: unknown unit %q", unit)
			}
			trunc := us - mod(us, width)
			return types.NewTimestampMicros(trunc), nil
		})},
	"epoch": {1, 1, types.TypeFloat, nullIfAnyNull(
		func(_ *Ctx, a []types.Datum) (types.Datum, error) {
			return types.NewFloat(float64(a[0].TimestampMicros()) / 1e6), nil
		})},
	"year":   {1, 1, types.TypeInt, timePart(func(t time.Time) int64 { return int64(t.Year()) })},
	"month":  {1, 1, types.TypeInt, timePart(func(t time.Time) int64 { return int64(t.Month()) })},
	"day":    {1, 1, types.TypeInt, timePart(func(t time.Time) int64 { return int64(t.Day()) })},
	"hour":   {1, 1, types.TypeInt, timePart(func(t time.Time) int64 { return int64(t.Hour()) })},
	"minute": {1, 1, types.TypeInt, timePart(func(t time.Time) int64 { return int64(t.Minute()) })},
	"second": {1, 1, types.TypeInt, timePart(func(t time.Time) int64 { return int64(t.Second()) })},
	"dow":    {1, 1, types.TypeInt, timePart(func(t time.Time) int64 { return int64(t.Weekday()) })},
	"now": {0, 0, types.TypeTimestamp,
		func(ctx *Ctx, _ []types.Datum) (types.Datum, error) {
			if ctx.Now != nil {
				return types.NewTimestamp(ctx.Now()), nil
			}
			return types.NewTimestamp(time.Now()), nil
		}},
}

// timePart builds an eval extracting one calendar field from a timestamp
// (UTC).
func timePart(f func(time.Time) int64) func(*Ctx, []types.Datum) (types.Datum, error) {
	return nullIfAnyNull(func(_ *Ctx, a []types.Datum) (types.Datum, error) {
		if a[0].Type() != types.TypeTimestamp {
			return types.Null, fmt.Errorf("expr: calendar function needs a timestamp, got %s", a[0].Type())
		}
		return types.NewInt(f(a[0].Time())), nil
	})
}

// mod is a floored modulo that behaves for negative timestamps.
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// IsScalarFunc reports whether name is a builtin scalar function.
func IsScalarFunc(name string) bool {
	if name == "cq_close" {
		return true
	}
	_, ok := scalarFuncs[name]
	return ok
}

func compileFunc(n *sql.FuncCall, b Binder) (*Scalar, error) {
	name := strings.ToLower(n.Name)
	if name == "cq_close" {
		// cq_close(*) returns the closing window boundary (paper §3.2). It
		// reads per-window context rather than the row.
		if !n.Star && len(n.Args) > 0 {
			return nil, fmt.Errorf("expr: cq_close takes (*)")
		}
		return &Scalar{Type: types.TypeTimestamp, Eval: func(ctx *Ctx) (types.Datum, error) {
			return ctx.WindowClose, nil
		}}, nil
	}
	f, ok := scalarFuncs[name]
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %q", n.Name)
	}
	if n.Star {
		return nil, fmt.Errorf("expr: %s does not take (*)", n.Name)
	}
	if len(n.Args) < f.minArgs || len(n.Args) > f.maxArgs {
		return nil, fmt.Errorf("expr: %s expects %d..%d arguments, got %d",
			n.Name, f.minArgs, f.maxArgs, len(n.Args))
	}
	compiled := make([]*Scalar, len(n.Args))
	for i, a := range n.Args {
		s, err := Compile(a, b)
		if err != nil {
			return nil, err
		}
		compiled[i] = s
	}
	typ := f.typ
	if typ == types.TypeUnknown {
		var err error
		if typ, err = unify(name, compiled); err != nil {
			return nil, err
		}
	}
	eval := f.eval
	return &Scalar{Type: typ, Eval: func(ctx *Ctx) (types.Datum, error) {
		args := make([]types.Datum, len(compiled))
		for i, c := range compiled {
			v, err := c.Eval(ctx)
			if err != nil {
				return types.Null, err
			}
			args[i] = v
		}
		return eval(ctx, args)
	}}, nil
}
