package types

import (
	"errors"
	"fmt"
	"math"
)

// ErrDivisionByZero is returned for integer division or modulo by zero.
var ErrDivisionByZero = errors.New("division by zero")

// Add computes a + b with SQL numeric promotion and timestamp/interval
// arithmetic. NULL propagates.
func Add(a, b Datum) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch at, bt := a.typ(), b.typ(); {
	case at == TypeInt && bt == TypeInt:
		return NewInt(a.int() + b.int()), nil
	case at.Numeric() && bt.Numeric():
		return NewFloat(a.Float() + b.Float()), nil
	case at == TypeTimestamp && bt == TypeInterval:
		return NewTimestampMicros(a.int() + b.int()), nil
	case at == TypeInterval && bt == TypeTimestamp:
		return NewTimestampMicros(a.int() + b.int()), nil
	case at == TypeInterval && bt == TypeInterval:
		return NewIntervalMicros(a.int() + b.int()), nil
	case at == TypeString && bt == TypeString:
		// '+' on strings is not SQL, but || maps here in the evaluator.
		return NewString(a.str() + b.str()), nil
	}
	return Null, typeErr("+", a, b)
}

// Sub computes a - b.
func Sub(a, b Datum) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch at, bt := a.typ(), b.typ(); {
	case at == TypeInt && bt == TypeInt:
		return NewInt(a.int() - b.int()), nil
	case at.Numeric() && bt.Numeric():
		return NewFloat(a.Float() - b.Float()), nil
	case at == TypeTimestamp && bt == TypeInterval:
		return NewTimestampMicros(a.int() - b.int()), nil
	case at == TypeTimestamp && bt == TypeTimestamp:
		return NewIntervalMicros(a.int() - b.int()), nil
	case at == TypeInterval && bt == TypeInterval:
		return NewIntervalMicros(a.int() - b.int()), nil
	}
	return Null, typeErr("-", a, b)
}

// Mul computes a * b.
func Mul(a, b Datum) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch at, bt := a.typ(), b.typ(); {
	case at == TypeInt && bt == TypeInt:
		return NewInt(a.int() * b.int()), nil
	case at.Numeric() && bt.Numeric():
		return NewFloat(a.Float() * b.Float()), nil
	case at == TypeInterval && bt == TypeInt:
		return NewIntervalMicros(a.int() * b.int()), nil
	case at == TypeInt && bt == TypeInterval:
		return NewIntervalMicros(a.int() * b.int()), nil
	case at == TypeInterval && bt == TypeFloat:
		return NewIntervalMicros(int64(float64(a.int()) * b.flt())), nil
	case at == TypeFloat && bt == TypeInterval:
		return NewIntervalMicros(int64(a.flt() * float64(b.int()))), nil
	}
	return Null, typeErr("*", a, b)
}

// Div computes a / b. Integer division truncates toward zero, matching
// Postgres.
func Div(a, b Datum) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch at, bt := a.typ(), b.typ(); {
	case at == TypeInt && bt == TypeInt:
		if b.int() == 0 {
			return Null, ErrDivisionByZero
		}
		return NewInt(a.int() / b.int()), nil
	case at.Numeric() && bt.Numeric():
		bf := b.Float()
		if bf == 0 {
			return Null, ErrDivisionByZero
		}
		return NewFloat(a.Float() / bf), nil
	case at == TypeInterval && bt == TypeInt:
		if b.int() == 0 {
			return Null, ErrDivisionByZero
		}
		return NewIntervalMicros(a.int() / b.int()), nil
	}
	return Null, typeErr("/", a, b)
}

// Mod computes a % b for integers.
func Mod(a, b Datum) (Datum, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.typ() == TypeInt && b.typ() == TypeInt {
		if b.int() == 0 {
			return Null, ErrDivisionByZero
		}
		return NewInt(a.int() % b.int()), nil
	}
	return Null, typeErr("%", a, b)
}

// Neg computes -a.
func Neg(a Datum) (Datum, error) {
	if a.IsNull() {
		return Null, nil
	}
	switch a.typ() {
	case TypeInt:
		return NewInt(-a.int()), nil
	case TypeFloat:
		return NewFloat(-a.flt()), nil
	case TypeInterval:
		return NewIntervalMicros(-a.int()), nil
	}
	return Null, fmt.Errorf("types: cannot negate %s", a.typ())
}

// Cast converts d to type to, following Postgres-ish cast rules. Casting
// NULL yields NULL of any type.
func Cast(d Datum, to Type) (Datum, error) {
	if d.IsNull() {
		return Null, nil
	}
	from := d.typ()
	if from == to {
		return d, nil
	}
	switch to {
	case TypeBool:
		switch from {
		case TypeInt:
			return NewBool(d.int() != 0), nil
		case TypeString:
			return ParseBool(d.str())
		}
	case TypeInt:
		switch from {
		case TypeBool:
			return NewInt(d.int()), nil
		case TypeFloat:
			if math.IsNaN(d.flt()) || d.flt() > math.MaxInt64 || d.flt() < math.MinInt64 {
				return Null, fmt.Errorf("types: float %v out of bigint range", d.flt())
			}
			return NewInt(int64(d.flt())), nil
		case TypeString:
			v, err := parseIntStrict(d.str())
			if err != nil {
				return Null, err
			}
			return NewInt(v), nil
		case TypeTimestamp:
			// Microseconds since epoch; useful for bucketing in tests.
			return NewInt(d.int()), nil
		case TypeInterval:
			return NewInt(d.int()), nil
		}
	case TypeFloat:
		switch from {
		case TypeInt:
			return NewFloat(float64(d.int())), nil
		case TypeString:
			v, err := parseFloatStrict(d.str())
			if err != nil {
				return Null, err
			}
			return NewFloat(v), nil
		}
	case TypeString:
		return NewString(d.String()), nil
	case TypeTimestamp:
		switch from {
		case TypeString:
			return ParseTimestamp(d.str())
		case TypeInt:
			return NewTimestampMicros(d.int()), nil
		}
	case TypeInterval:
		switch from {
		case TypeString:
			return ParseInterval(d.str())
		case TypeInt:
			return NewIntervalMicros(d.int()), nil
		}
	}
	return Null, fmt.Errorf("types: cannot cast %s to %s", from, to)
}

func typeErr(op string, a, b Datum) error {
	return fmt.Errorf("types: operator %s undefined for %s and %s", op, a.typ(), b.typ())
}
