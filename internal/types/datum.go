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
// It is two words, in one of three forms, and every value has exactly one:
//
//   - VARCHAR: p points at the bytes (nil when the string is empty, and nil
//     with a length for a RowStrings placeholder) and n is the length with
//     TypeString in its top byte.
//   - inline: a BOOLEAN (0/1), BIGINT, TIMESTAMP or INTERVAL whose value fits
//     56 signed bits (a timestamp of the years 828 to 3111), NULL and the
//     zero value: p is nil and n is the value's low 56 bits under the type.
//   - boxed: every DOUBLE, and any other value outside 56 bits: p points at
//     tags[type] and n is the whole 64-bit value (a float's Float64bits).
//
// Every row an operator, a window close, a WAL record or a wire message
// handles is a flat []Datum, so a word less is a third less memory
// everywhere. A table's history is not: a storage heap segment keeps each
// column as its type's 8-byte words (Word), with no pointer for the collector
// to follow, and builds Datums only for the rows a reader asks for. The other
// types are inline rather than all boxed because the collector follows every
// non-nil pointer word, however static its target (BenchmarkGCMarkRows).
//
// Two values holding the same text may point at different bytes, so == on a
// Datum would compare addresses: the zero-size func array makes it (and a
// map key, and a switch) a compile error. Call d.Equal(e) for identity of
// type and value, Equal(a, b) or Compare for SQL semantics.
type Datum struct {
	_ [0]func()
	p unsafe.Pointer
	n uint64
}

// An inline datum keeps its type in n's top byte and its value below it.
const (
	typeShift = 56
	low       = 1<<typeShift - 1
)

// tags are the boxed form's type tags: a datum whose p points at tags[t] is
// of type t.
var tags [8]byte

// inline is the signed value in n's low 56 bits.
func inline(n uint64) int64 { return int64(n<<(64-typeShift)) >> (64 - typeShift) }

// word builds a datum of a type whose whole value is the one word, inline
// when the value fits.
func word(t Type, v int64) Datum {
	if inline(uint64(v)) == v {
		return Datum{n: uint64(v)&low | uint64(t)<<typeShift}
	}
	return Datum{p: unsafe.Pointer(&tags[t]), n: uint64(v)}
}

// Word is d's 8-byte form in a column of d's type, which is not VARCHAR (see
// Arena.Word): a BOOLEAN, BIGINT, TIMESTAMP or INTERVAL's value, a DOUBLE's
// bits. A NULL has none; its keeper notes it beside the words.
func (d Datum) Word() uint64 { return uint64(d.int()) }

// FromWord is the datum of type t, not VARCHAR, whose Word is w.
func FromWord(t Type, w uint64) Datum {
	if t == TypeFloat {
		return Datum{p: unsafe.Pointer(&tags[TypeFloat]), n: w}
	}
	return word(t, int64(w))
}

// typ is the datum's type: its tag if p points into tags, else n's top byte.
func (d Datum) typ() Type {
	if off := uintptr(d.p) - uintptr(unsafe.Pointer(&tags)); off < uintptr(len(tags)) {
		return Type(off)
	}
	return Type(d.n >> typeShift)
}

// int, flt and str read the payload as the type says to; everything in the
// package that is not a constructor goes through them.
func (d Datum) int() int64 {
	s := uint(0) // a shift, not a branch: both forms are common in one row
	if d.p == nil {
		s = 64 - typeShift
	}
	return int64(d.n<<s) >> s
}

func (d Datum) flt() float64 { return math.Float64frombits(d.n) }

// str is the string p and n describe. A RowStrings placeholder (p nil,
// a length) panics here: it must never be read before its batch ends.
func (d Datum) str() string { return unsafe.String((*byte)(d.p), d.n&low) }

// as is the value of a datum that must be of a word type t.
func (d Datum) as(t Type) int64 {
	if d.p == nil && d.n>>typeShift == uint64(t) {
		return inline(d.n)
	}
	if d.p != unsafe.Pointer(&tags[t]) {
		panic(typeError{d.typ(), t})
	}
	return int64(d.n)
}

// typeError is what an accessor panics with on a datum of another type.
type typeError struct{ got, want Type }

func (e typeError) Error() string { return fmt.Sprintf("types: %s datum used as %s", e.got, e.want) }

// Null is the SQL NULL value.
var Null = word(TypeNull, 0)

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
func NewFloat(v float64) Datum {
	return Datum{p: unsafe.Pointer(&tags[TypeFloat]), n: math.Float64bits(v)}
}

// NewString returns a string datum; it shares v's bytes.
func NewString(v string) Datum {
	d := Datum{n: uint64(len(v)) | uint64(TypeString)<<typeShift}
	if len(v) > 0 {
		d.p = unsafe.Pointer(unsafe.StringData(v))
	}
	return d
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
func (d Datum) Type() Type { return d.typ() }

// IsNull reports whether the datum is SQL NULL (or the unknown zero value),
// both of which are always inline.
func (d Datum) IsNull() bool { return d.p == nil && d.n>>typeShift <= uint64(TypeNull) }

// Bool returns the boolean value; it panics on other types.
func (d Datum) Bool() bool { return d.as(TypeBool) != 0 }

// Int returns the integer value; it panics on other types.
func (d Datum) Int() int64 { return d.as(TypeInt) }

// Float returns the floating-point value; for TypeInt it widens.
func (d Datum) Float() float64 {
	switch t := d.typ(); t {
	case TypeFloat:
		return d.flt()
	case TypeInt:
		return float64(d.int())
	default:
		panic(fmt.Sprintf("types: Float on %s", t))
	}
}

// Str returns the string value; it panics on other types.
func (d Datum) Str() string {
	if t := d.typ(); t != TypeString {
		panic(typeError{t, TypeString})
	}
	return d.str()
}

// TimestampMicros returns the timestamp in microseconds since the epoch.
func (d Datum) TimestampMicros() int64 { return d.as(TypeTimestamp) }

// Time returns the timestamp as a time.Time in UTC.
func (d Datum) Time() time.Time { return time.UnixMicro(d.as(TypeTimestamp)).UTC() }

// IntervalMicros returns the interval in microseconds.
func (d Datum) IntervalMicros() int64 { return d.as(TypeInterval) }

// Duration returns the interval as a time.Duration.
func (d Datum) Duration() time.Duration {
	return time.Duration(d.as(TypeInterval)) * time.Microsecond
}

// String renders the datum the way the REPL and test goldens print values.
func (d Datum) String() string {
	switch t := d.typ(); t {
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
		return fmt.Sprintf("<%d>", t)
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
	at, bt := a.typ(), b.typ()
	if an, bn := at <= TypeNull, bt <= TypeNull; an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	if at != bt {
		if at.Numeric() && bt.Numeric() {
			return cmpFloat(a.Float(), b.Float())
		}
		panic(fmt.Sprintf("types: cannot compare %s with %s", at, bt))
	}
	switch at {
	case TypeInt, TypeBool, TypeTimestamp, TypeInterval:
		return cmpInt(a.int(), b.int())
	case TypeFloat:
		return cmpFloat(a.flt(), b.flt())
	case TypeString:
		return strings.Compare(a.str(), b.str())
	default:
		panic(fmt.Sprintf("types: cannot compare %s", at))
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
	if !Comparable(a.typ(), b.typ()) {
		return false
	}
	return Compare(a, b) == 0
}

// Equal reports whether d and e are the same value of the same type: equal
// type tags and equal numbers bit for bit (a NaN equals the same NaN, 0.0
// differs from -0.0 and from the integer 0) or equal text. It is what ==
// would mean if Datum allowed it; SQL equality is the function Equal. A value
// has one form, so outside VARCHAR it is the same two words.
func (d Datum) Equal(e Datum) bool {
	return d.n == e.n && (d.p == e.p || d.n>>typeShift == uint64(TypeString) && !boxed(d.p) && !boxed(e.p) && d.str() == e.str())
}

// boxed says whether p is a boxed datum's tag.
func boxed(p unsafe.Pointer) bool {
	return uintptr(p)-uintptr(unsafe.Pointer(&tags)) < uintptr(len(tags))
}

// RowsView views datum slices as rows, and DatumsView rows as datum slices.
// A Row is a []Datum, so the two containers have one layout and the view
// re-types the slice header: nothing is copied, a write through one name is
// seen through the other, and a caller keeps only one of them.
func RowsView(d [][]Datum) []Row { return *(*[]Row)(unsafe.Pointer(&d)) }

// DatumsView is the inverse of RowsView.
func DatumsView(r []Row) [][]Datum { return *(*[][]Datum)(unsafe.Pointer(&r)) }

// WordsAt is the n words from *p on, which must all be one array's.
func WordsAt(p *uint64, n int) []uint64 { return unsafe.Slice(p, n) }
