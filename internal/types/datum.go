// Package types implements the SQL value system shared by tables and
// streams: typed datums, rows, schemas, and the time/interval arithmetic
// that window processing is built on.
//
// The paper's central technical claim is that "streaming data and stored
// data are not intrinsically different" (§2.3); a single value
// representation used by every operator, whether its input arrives from a
// heap page or a window close, is the foundation of that unification.
package types

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unsafe"
)

// Type identifies the SQL type of a Datum.
type Type uint8

// The supported SQL types. TypeNull is the type of the SQL NULL literal
// before coercion; a typed column never has TypeNull.
const (
	TypeUnknown Type = iota
	TypeNull
	TypeBool
	TypeInt       // 64-bit signed integer
	TypeFloat     // 64-bit IEEE float
	TypeString    // UTF-8 text
	TypeTimestamp // microseconds since the Unix epoch, UTC
	TypeInterval  // signed duration in microseconds
)

// String returns the SQL spelling of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeBool:
		return "BOOLEAN"
	case TypeInt:
		return "BIGINT"
	case TypeFloat:
		return "DOUBLE"
	case TypeString:
		return "VARCHAR"
	case TypeTimestamp:
		return "TIMESTAMP"
	case TypeInterval:
		return "INTERVAL"
	default:
		return "UNKNOWN"
	}
}

// Numeric reports whether the type participates in numeric arithmetic.
func (t Type) Numeric() bool { return t == TypeInt || t == TypeFloat }

// Comparable reports whether two types can be compared with <, =, etc.
func Comparable(a, b Type) bool {
	if a == b {
		return true
	}
	if a.Numeric() && b.Numeric() {
		return true
	}
	if a == TypeNull || b == TypeNull {
		return true
	}
	return false
}

// Datum is a single SQL value. The zero value is SQL NULL... almost: the
// zero Type is TypeUnknown, so use Null (the package-level variable) or
// NewNull for explicit NULLs. Datum is a value type and is never mutated
// after construction.
//
// It is three words. n is the value of an integer, boolean (0/1), timestamp
// or interval, the math.Float64bits of a float, or the length of a string
// whose bytes p points at (p is nil for every other type); no value ever
// needed more than two of the old layout's five words (typ, i int64,
// f float64, s string — 40 bytes), and every row in every layer (heap
// version, window close, WAL record, replication event, wire row) is a flat
// []Datum. Measured when the layout changed, alloc_bytes_per_row of bench/'s
// four workloads at seed 11, 40-byte → 24-byte: wide_window 1 087 → 801,
// mem_fanout 1 830 → 1 382, wire_durable 1 384 → 1 119, report_mixed
// 940 → 717, with allocs_per_row unmoved.
//
// Two values holding the same text may point at different bytes, so == on a
// Datum would compare addresses: the zero-size func array makes it (and a
// map key, and a switch) a compile error. Call d.Equal(e) for identity of
// type and value, Equal(a, b) or Compare for SQL semantics.
type Datum struct {
	_   [0]func()
	p   unsafe.Pointer
	n   uint64
	typ Type
}

// word builds a datum of a type whose whole value is the one word.
func word(t Type, v int64) Datum { return Datum{typ: t, n: uint64(v)} }

// int, flt and str read the payload as the type tag says to; everything in
// the package that is not a constructor goes through them.
func (d Datum) int() int64   { return int64(d.n) }
func (d Datum) flt() float64 { return math.Float64frombits(d.n) }

// str is the string p and n describe. A RowStrings placeholder (p nil,
// n > 0) panics here: it must never be read before its batch ends.
func (d Datum) str() string { return unsafe.String((*byte)(d.p), d.n) }

// Null is the SQL NULL value.
var Null = Datum{typ: TypeNull}

// True and False are the boolean constants.
var (
	True  = word(TypeBool, 1)
	False = word(TypeBool, 0)
)

// NewNull returns the SQL NULL value.
func NewNull() Datum { return Null }

// NewBool returns a boolean datum.
func NewBool(b bool) Datum {
	if b {
		return True
	}
	return False
}

// NewInt returns an integer datum.
func NewInt(v int64) Datum { return word(TypeInt, v) }

// NewFloat returns a floating-point datum.
func NewFloat(v float64) Datum { return Datum{typ: TypeFloat, n: math.Float64bits(v)} }

// NewString returns a string datum; it shares v's bytes.
func NewString(v string) Datum {
	return Datum{typ: TypeString, p: unsafe.Pointer(unsafe.StringData(v)), n: uint64(len(v))}
}

// NewTimestamp returns a timestamp datum, truncated to microseconds.
func NewTimestamp(t time.Time) Datum {
	return word(TypeTimestamp, t.UnixMicro())
}

// NewTimestampMicros returns a timestamp datum from microseconds since the
// Unix epoch.
func NewTimestampMicros(us int64) Datum { return word(TypeTimestamp, us) }

// NewInterval returns an interval datum, truncated to microseconds.
func NewInterval(d time.Duration) Datum {
	return word(TypeInterval, d.Microseconds())
}

// NewIntervalMicros returns an interval datum from a microsecond count.
func NewIntervalMicros(us int64) Datum { return word(TypeInterval, us) }

// Type returns the datum's type.
func (d Datum) Type() Type { return d.typ }

// IsNull reports whether the datum is SQL NULL (or the unknown zero value).
func (d Datum) IsNull() bool { return d.typ == TypeNull || d.typ == TypeUnknown }

// Bool returns the boolean value; it panics on other types.
func (d Datum) Bool() bool {
	d.mustBe(TypeBool)
	return d.int() != 0
}

// Int returns the integer value; it panics on other types.
func (d Datum) Int() int64 {
	d.mustBe(TypeInt)
	return d.int()
}

// Float returns the floating-point value; for TypeInt it widens.
func (d Datum) Float() float64 {
	switch d.typ {
	case TypeFloat:
		return d.flt()
	case TypeInt:
		return float64(d.int())
	}
	panic(fmt.Sprintf("types: Float on %s", d.typ))
}

// Str returns the string value; it panics on other types.
func (d Datum) Str() string {
	d.mustBe(TypeString)
	return d.str()
}

// TimestampMicros returns the timestamp in microseconds since the epoch.
func (d Datum) TimestampMicros() int64 {
	d.mustBe(TypeTimestamp)
	return d.int()
}

// Time returns the timestamp as a time.Time in UTC.
func (d Datum) Time() time.Time {
	d.mustBe(TypeTimestamp)
	return time.UnixMicro(d.int()).UTC()
}

// IntervalMicros returns the interval in microseconds.
func (d Datum) IntervalMicros() int64 {
	d.mustBe(TypeInterval)
	return d.int()
}

// Duration returns the interval as a time.Duration.
func (d Datum) Duration() time.Duration {
	d.mustBe(TypeInterval)
	return time.Duration(d.int()) * time.Microsecond
}

func (d Datum) mustBe(t Type) {
	if d.typ != t {
		panic(fmt.Sprintf("types: %s datum used as %s", d.typ, t))
	}
}

// String renders the datum the way the REPL and test goldens print values.
func (d Datum) String() string {
	switch d.typ {
	case TypeNull, TypeUnknown:
		return "NULL"
	case TypeBool:
		if d.int() != 0 {
			return "true"
		}
		return "false"
	case TypeInt:
		return strconv.FormatInt(d.int(), 10)
	case TypeFloat:
		return formatFloat(d.flt())
	case TypeString:
		return d.str()
	case TypeTimestamp:
		return time.UnixMicro(d.int()).UTC().Format("2006-01-02 15:04:05.000000")
	case TypeInterval:
		return FormatInterval(d.int())
	default:
		return fmt.Sprintf("<%d>", d.typ)
	}
}

func formatFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "Infinity"
	}
	if math.IsInf(f, -1) {
		return "-Infinity"
	}
	if math.IsNaN(f) {
		return "NaN"
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	// Ensure floats always print with a decimal point or exponent so they
	// are distinguishable from integers in goldens.
	if !strings.ContainsAny(s, ".eE") && !strings.Contains(s, "Inf") {
		s += ".0"
	}
	return s
}

// Compare returns -1, 0 or +1 ordering d before, equal to, or after e.
// NULL sorts before every non-NULL value (Postgres NULLS FIRST for ASC is
// configurable there; here the total order is fixed and documented).
// Mixed int/float comparisons are exact for the magnitudes this engine
// handles. Comparing incomparable types panics: the planner inserts casts
// so executing plans never do that.
func Compare(a, b Datum) int {
	an, bn := a.IsNull(), b.IsNull()
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	if a.typ.Numeric() && b.typ.Numeric() {
		if a.typ == TypeInt && b.typ == TypeInt {
			return cmpInt(a.int(), b.int())
		}
		return cmpFloat(a.Float(), b.Float())
	}
	if a.typ != b.typ {
		panic(fmt.Sprintf("types: cannot compare %s with %s", a.typ, b.typ))
	}
	switch a.typ {
	case TypeBool, TypeTimestamp, TypeInterval:
		return cmpInt(a.int(), b.int())
	case TypeString:
		return strings.Compare(a.str(), b.str())
	default:
		panic(fmt.Sprintf("types: cannot compare %s", a.typ))
	}
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	// NaN sorts after everything, NaN == NaN for ordering purposes.
	case math.IsNaN(a) && math.IsNaN(b):
		return 0
	case math.IsNaN(a):
		return 1
	default:
		return -1
	}
}

// Equal reports SQL equality treating NULL = NULL as true; callers that
// need three-valued logic use expr's comparison evaluation instead. This
// is the definition GROUP BY and DISTINCT use.
func Equal(a, b Datum) bool {
	if !Comparable(a.typ, b.typ) {
		return false
	}
	return Compare(a, b) == 0
}

// Equal reports whether d and e are the same value of the same type: equal
// type tags and equal numbers bit for bit (a NaN equals the same NaN, 0.0
// differs from -0.0 and from the integer 0) or equal text. It is what ==
// would mean if Datum allowed it; SQL equality is the function Equal.
func (d Datum) Equal(e Datum) bool {
	if d.typ != e.typ || d.n != e.n {
		return false
	}
	return d.typ != TypeString || d.str() == e.str()
}

// RowsView views datum slices as rows, and DatumsView rows as datum slices.
// A Row is a []Datum, so the two containers have one layout and the view
// re-types the slice header: nothing is copied, a write through one name is
// seen through the other, and a caller keeps only one of them.
func RowsView(d [][]Datum) []Row { return *(*[]Row)(unsafe.Pointer(&d)) }

// DatumsView is the inverse of RowsView.
func DatumsView(r []Row) [][]Datum { return *(*[][]Datum)(unsafe.Pointer(&r)) }
