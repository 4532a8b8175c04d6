package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// The four-field Datum this package had until the value became three words
// (and then two), with every operation that read its fields, kept verbatim as
// the test-only reference the 16-byte layout must agree with.
type old struct {
	typ Type
	i   int64 // TypeInt, TypeBool (0/1), TypeTimestamp, TypeInterval
	f   float64
	s   string
}

var oNull = old{typ: TypeNull}

func oBool(b bool) old {
	if b {
		return old{typ: TypeBool, i: 1}
	}
	return old{typ: TypeBool}
}
func oInt(v int64) old     { return old{typ: TypeInt, i: v} }
func oFloat(v float64) old { return old{typ: TypeFloat, f: v} }
func oStr(v string) old    { return old{typ: TypeString, s: v} }
func oTS(us int64) old     { return old{typ: TypeTimestamp, i: us} }
func oIV(us int64) old     { return old{typ: TypeInterval, i: us} }

func (d old) IsNull() bool { return d.typ == TypeNull || d.typ == TypeUnknown }

func oTypeErr(op string, a, b old) error {
	return fmt.Errorf("types: operator %s undefined for %s and %s", op, a.typ, b.typ)
}

// oldOf carries the result of a parser, which builds its datum through the
// constructors, over to the reference.
func oldOf(d Datum, err error) (old, error) {
	if err != nil {
		return oNull, err
	}
	switch d.Type() {
	case TypeBool:
		return oBool(d.Bool()), nil
	case TypeTimestamp:
		return oTS(d.TimestampMicros()), nil
	case TypeInterval:
		return oIV(d.IntervalMicros()), nil
	}
	panic("oldOf: " + d.Type().String())
}

func (d old) Float() float64 {
	switch d.typ {
	case TypeFloat:
		return d.f
	case TypeInt:
		return float64(d.i)
	}
	panic(fmt.Sprintf("types: Float on %s", d.typ))
}

func (d old) String() string {
	switch d.typ {
	case TypeNull, TypeUnknown:
		return "NULL"
	case TypeBool:
		if d.i != 0 {
			return "true"
		}
		return "false"
	case TypeInt:
		return strconv.FormatInt(d.i, 10)
	case TypeFloat:
		return formatFloat(d.f)
	case TypeString:
		return d.s
	case TypeTimestamp:
		return time.UnixMicro(d.i).UTC().Format("2006-01-02 15:04:05.000000")
	case TypeInterval:
		return FormatInterval(d.i)
	default:
		return fmt.Sprintf("<%d>", d.typ)
	}
}

func oCompare(a, b old) int {
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
			return cmpInt(a.i, b.i)
		}
		return cmpFloat(a.Float(), b.Float())
	}
	if a.typ != b.typ {
		panic(fmt.Sprintf("types: cannot compare %s with %s", a.typ, b.typ))
	}
	switch a.typ {
	case TypeBool, TypeTimestamp, TypeInterval:
		return cmpInt(a.i, b.i)
	case TypeString:
		return strings.Compare(a.s, b.s)
	default:
		panic(fmt.Sprintf("types: cannot compare %s", a.typ))
	}
}

func oEqual(a, b old) bool {
	if !Comparable(a.typ, b.typ) {
		return false
	}
	return oCompare(a, b) == 0
}

func (d old) AppendKey(dst []byte) []byte {
	switch d.typ {
	case TypeBool:
		return append(dst, 1, byte(d.i))
	case TypeInt:
		return binary.LittleEndian.AppendUint64(append(dst, 2), uint64(d.i))
	case TypeFloat:
		if i, ok := integralFloat(d.f); ok {
			return binary.LittleEndian.AppendUint64(append(dst, 2), uint64(i))
		}
		return binary.LittleEndian.AppendUint64(append(dst, 3), math.Float64bits(d.f))
	case TypeString:
		dst = binary.LittleEndian.AppendUint64(append(dst, 4, 4), uint64(len(d.s)))
		return append(dst, d.s...)
	case TypeTimestamp:
		return binary.LittleEndian.AppendUint64(append(dst, 5), uint64(d.i))
	case TypeInterval:
		return binary.LittleEndian.AppendUint64(append(dst, 6), uint64(d.i))
	default: // TypeNull, TypeUnknown
		return append(dst, 0)
	}
}

func oEncode(buf []byte, d old) []byte {
	buf = append(buf, byte(d.typ))
	switch d.typ {
	case TypeNull, TypeUnknown:
	case TypeBool, TypeInt, TypeTimestamp, TypeInterval:
		buf = binary.AppendVarint(buf, d.i)
	case TypeFloat:
		buf = binary.AppendUvarint(buf, math.Float64bits(d.f))
	case TypeString:
		buf = binary.AppendUvarint(buf, uint64(len(d.s)))
		buf = append(buf, d.s...)
	}
	return buf
}

func oAdd(a, b old) (old, error) {
	if a.IsNull() || b.IsNull() {
		return oNull, nil
	}
	switch {
	case a.typ == TypeInt && b.typ == TypeInt:
		return oInt(a.i + b.i), nil
	case a.typ.Numeric() && b.typ.Numeric():
		return oFloat(a.Float() + b.Float()), nil
	case a.typ == TypeTimestamp && b.typ == TypeInterval:
		return oTS(a.i + b.i), nil
	case a.typ == TypeInterval && b.typ == TypeTimestamp:
		return oTS(a.i + b.i), nil
	case a.typ == TypeInterval && b.typ == TypeInterval:
		return oIV(a.i + b.i), nil
	case a.typ == TypeString && b.typ == TypeString:
		// '+' on strings is not SQL, but || maps here in the evaluator.
		return oStr(a.s + b.s), nil
	}
	return oNull, oTypeErr("+", a, b)
}

func oSub(a, b old) (old, error) {
	if a.IsNull() || b.IsNull() {
		return oNull, nil
	}
	switch {
	case a.typ == TypeInt && b.typ == TypeInt:
		return oInt(a.i - b.i), nil
	case a.typ.Numeric() && b.typ.Numeric():
		return oFloat(a.Float() - b.Float()), nil
	case a.typ == TypeTimestamp && b.typ == TypeInterval:
		return oTS(a.i - b.i), nil
	case a.typ == TypeTimestamp && b.typ == TypeTimestamp:
		return oIV(a.i - b.i), nil
	case a.typ == TypeInterval && b.typ == TypeInterval:
		return oIV(a.i - b.i), nil
	}
	return oNull, oTypeErr("-", a, b)
}

func oMul(a, b old) (old, error) {
	if a.IsNull() || b.IsNull() {
		return oNull, nil
	}
	switch {
	case a.typ == TypeInt && b.typ == TypeInt:
		return oInt(a.i * b.i), nil
	case a.typ.Numeric() && b.typ.Numeric():
		return oFloat(a.Float() * b.Float()), nil
	case a.typ == TypeInterval && b.typ == TypeInt:
		return oIV(a.i * b.i), nil
	case a.typ == TypeInt && b.typ == TypeInterval:
		return oIV(a.i * b.i), nil
	case a.typ == TypeInterval && b.typ == TypeFloat:
		return oIV(int64(float64(a.i) * b.f)), nil
	case a.typ == TypeFloat && b.typ == TypeInterval:
		return oIV(int64(a.f * float64(b.i))), nil
	}
	return oNull, oTypeErr("*", a, b)
}

func oDiv(a, b old) (old, error) {
	if a.IsNull() || b.IsNull() {
		return oNull, nil
	}
	switch {
	case a.typ == TypeInt && b.typ == TypeInt:
		if b.i == 0 {
			return oNull, ErrDivisionByZero
		}
		return oInt(a.i / b.i), nil
	case a.typ.Numeric() && b.typ.Numeric():
		bf := b.Float()
		if bf == 0 {
			return oNull, ErrDivisionByZero
		}
		return oFloat(a.Float() / bf), nil
	case a.typ == TypeInterval && b.typ == TypeInt:
		if b.i == 0 {
			return oNull, ErrDivisionByZero
		}
		return oIV(a.i / b.i), nil
	}
	return oNull, oTypeErr("/", a, b)
}

func oMod(a, b old) (old, error) {
	if a.IsNull() || b.IsNull() {
		return oNull, nil
	}
	if a.typ == TypeInt && b.typ == TypeInt {
		if b.i == 0 {
			return oNull, ErrDivisionByZero
		}
		return oInt(a.i % b.i), nil
	}
	return oNull, oTypeErr("%", a, b)
}

func oNeg(a old) (old, error) {
	if a.IsNull() {
		return oNull, nil
	}
	switch a.typ {
	case TypeInt:
		return oInt(-a.i), nil
	case TypeFloat:
		return oFloat(-a.f), nil
	case TypeInterval:
		return oIV(-a.i), nil
	}
	return oNull, fmt.Errorf("types: cannot negate %s", a.typ)
}

func oCast(d old, to Type) (old, error) {
	if d.IsNull() {
		return oNull, nil
	}
	if d.typ == to {
		return d, nil
	}
	switch to {
	case TypeBool:
		switch d.typ {
		case TypeInt:
			return oBool(d.i != 0), nil
		case TypeString:
			return oldOf(ParseBool(d.s))
		}
	case TypeInt:
		switch d.typ {
		case TypeBool:
			return oInt(d.i), nil
		case TypeFloat:
			if math.IsNaN(d.f) || d.f > math.MaxInt64 || d.f < math.MinInt64 {
				return oNull, fmt.Errorf("types: float %v out of bigint range", d.f)
			}
			return oInt(int64(d.f)), nil
		case TypeString:
			v, err := parseIntStrict(d.s)
			if err != nil {
				return oNull, err
			}
			return oInt(v), nil
		case TypeTimestamp:
			// Microseconds since epoch; useful for bucketing in tests.
			return oInt(d.i), nil
		case TypeInterval:
			return oInt(d.i), nil
		}
	case TypeFloat:
		switch d.typ {
		case TypeInt:
			return oFloat(float64(d.i)), nil
		case TypeString:
			v, err := parseFloatStrict(d.s)
			if err != nil {
				return oNull, err
			}
			return oFloat(v), nil
		}
	case TypeString:
		return oStr(d.String()), nil
	case TypeTimestamp:
		switch d.typ {
		case TypeString:
			return oldOf(ParseTimestamp(d.s))
		case TypeInt:
			return oTS(d.i), nil
		}
	case TypeInterval:
		switch d.typ {
		case TypeString:
			return oldOf(ParseInterval(d.s))
		case TypeInt:
			return oIV(d.i), nil
		}
	}
	return oNull, fmt.Errorf("types: cannot cast %s to %s", d.typ, to)
}

// spec names one value; pair is that value in both layouts. Kinds, mod 8:
// NULL, the untyped zero value, BOOLEAN n&1, BIGINT n, DOUBLE of bits n,
// VARCHAR s, TIMESTAMP n, INTERVAL n.
type spec struct {
	k uint8
	n uint64
	s string
}

type pair struct {
	d Datum
	o old
}

func (sp spec) pair() pair {
	switch v := int64(sp.n); sp.k % 8 {
	case 0:
		return pair{Null, oNull}
	case 1:
		return pair{Datum{}, old{}}
	case 2:
		return pair{NewBool(sp.n&1 == 1), oBool(sp.n&1 == 1)}
	case 3:
		return pair{NewInt(v), oInt(v)}
	case 4:
		return pair{NewFloat(math.Float64frombits(sp.n)), oFloat(math.Float64frombits(sp.n))}
	case 5:
		return pair{NewString(sp.s), oStr(sp.s)}
	case 6:
		return pair{NewTimestampMicros(v), oTS(v)}
	default:
		return pair{NewIntervalMicros(v), oIV(v)}
	}
}

// modelSpecs are the edges of the representation: every NaN shape, both
// zeros and infinities, subnormals, the integers a float cannot hold, both
// sides of the 56 bits an inline value holds (and a boxed value whose word is
// an inline one's: -1's), timestamps of the years 1 and 9999, and text that
// is empty, holds NUL, is not UTF-8, or casts to another type.
var modelSpecs = func() []spec {
	out := []spec{{k: 0}, {k: 1}, {k: 2, n: 0}, {k: 2, n: 1}}
	for _, v := range []int64{0, 1, -1, 3, 42, math.MinInt64, math.MaxInt64, 1 << 53, 1<<53 + 1, 60_000_000, 1_700_000_000_000_000,
		1<<55 - 1, -1 << 55, 1 << 55, -1<<55 - 1, int64(NewInt(-1).n), -62_135_596_800_000_000, 253_402_300_799_999_999} {
		out = append(out, spec{k: 3, n: uint64(v)}, spec{k: 6, n: uint64(v)}, spec{k: 7, n: uint64(v)})
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1.5, 3, -3, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, 1 << 63, -(1 << 63), 1e19, 1 << 53} {
		out = append(out, spec{k: 4, n: math.Float64bits(f)})
	}
	for _, bits := range []uint64{0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF, 1 << 51, 1<<52 - 1} {
		out = append(out, spec{k: 4, n: bits}) // quiet, negative and signalling NaNs, large subnormals
	}
	for _, s := range []string{"", "a", "abc", "abd", "true", "42", "-9223372036854775808", "4.5", "NaN",
		"2009-01-04 09:30:00", "5 minutes", "a\x00b", "\x00", "\xff\xfe bad \xc3", strings.Repeat("long ", 100)} {
		out = append(out, spec{k: 5, s: s})
	}
	return out
}()

// owned rebuilds the pairs' strings the way a decoder does: end to end in
// the one backing a RowStrings makes, so each is a substring of it.
func owned(ps ...pair) []pair {
	var strs RowStrings
	for _, p := range ps {
		d := p.d
		if p.o.typ == TypeString {
			d = strs.Add([]byte(p.o.s))
		}
		strs.Push(d)
	}
	strs.EndRow()
	row := strs.Rows()[0]
	out := make([]pair, len(ps))
	for i, p := range ps {
		out[i] = pair{row[i], p.o}
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// panicked runs f and reports whether it panicked.
func panicked(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// agree checks that d is o: the type tag, and every accessor the tag allows.
func agree(t testing.TB, what string, d Datum, o old) {
	t.Helper()
	ok := d.Type() == o.typ && d.IsNull() == o.IsNull() && d.String() == o.String()
	switch o.typ {
	case TypeBool:
		ok = ok && d.Bool() == (o.i != 0)
	case TypeInt:
		ok = ok && d.Int() == o.i && d.Float() == o.Float()
	case TypeFloat:
		ok = ok && math.Float64bits(d.Float()) == math.Float64bits(o.f)
	case TypeString:
		ok = ok && d.Str() == o.s && len(d.Str()) == len(o.s)
	case TypeTimestamp:
		ok = ok && d.TimestampMicros() == o.i && d.Time().Equal(time.UnixMicro(o.i))
	case TypeInterval:
		ok = ok && d.IntervalMicros() == o.i && d.Duration() == time.Duration(o.i)*time.Microsecond
	}
	if !ok {
		t.Fatalf("%s: got %v (%s), reference %v (%s)", what, d, d.Type(), o, o.typ)
	}
}

// agreeErr is agree for a computed result: the same error, or the same value.
func agreeErr(t testing.TB, what string, d Datum, err error, o old, oerr error) {
	t.Helper()
	if errText(err) != errText(oerr) {
		t.Fatalf("%s: error %v, reference %v", what, err, oerr)
	}
	if o.typ == TypeFloat && math.IsNaN(o.f) && d.Type() == TypeFloat && math.IsNaN(d.Float()) {
		return // which operand's payload NaN + NaN keeps is the compiler's choice of operand order
	}
	agree(t, what, d, o)
}

// checkModel holds every operation of the package over a and b against the
// reference.
func checkModel(t testing.TB, a, b pair) {
	t.Helper()
	what := fmt.Sprintf("(%s %q, %s %q)", a.o.typ, a.o.String(), b.o.typ, b.o.String())
	agree(t, what, a.d, a.o)
	agree(t, what, b.d, b.o)

	if op := panicked(func() { oCompare(a.o, b.o) }); op != panicked(func() { Compare(a.d, b.d) }) {
		t.Fatalf("%s: Compare panics %v, reference %v", what, !op, op)
	} else if !op && Compare(a.d, b.d) != oCompare(a.o, b.o) {
		t.Fatalf("%s: Compare %d, reference %d", what, Compare(a.d, b.d), oCompare(a.o, b.o))
	}
	if Equal(a.d, b.d) != oEqual(a.o, b.o) {
		t.Fatalf("%s: Equal %v, reference %v", what, Equal(a.d, b.d), oEqual(a.o, b.o))
	}
	identical := a.o.typ == b.o.typ && a.o.i == b.o.i && a.o.s == b.o.s && math.Float64bits(a.o.f) == math.Float64bits(b.o.f)
	if a.d.Equal(b.d) != identical || !a.d.Equal(a.d) {
		t.Fatalf("%s: Datum.Equal %v, fields identical %v", what, a.d.Equal(b.d), identical)
	}

	if got, want := a.d.AppendKey(nil), a.o.AppendKey(nil); string(got) != string(want) {
		t.Fatalf("%s: key % x, reference % x", what, got, want)
	}

	enc := EncodeRow(nil, Row{a.d, b.d})
	oenc := oEncode(oEncode(binary.AppendUvarint(nil, 2), a.o), b.o)
	if string(enc) != string(oenc) {
		t.Fatalf("%s: encodes as % x, reference % x", what, enc, oenc)
	}
	row, rest, err := DecodeRow(enc, new(RowStrings))
	if err != nil || len(rest) != 0 || len(row) != 2 {
		t.Fatalf("%s: decoding its own encoding: %v, %d bytes left", what, err, len(rest))
	}
	for i, p := range []pair{a, b} {
		if p.o.typ == TypeUnknown {
			p.o = oNull // the untyped zero value is written as NULL
		}
		agree(t, what+" decoded", row[i], p.o)
	}

	for to := TypeUnknown; to <= TypeInterval; to++ {
		d, err := Cast(a.d, to)
		o, oerr := oCast(a.o, to)
		agreeErr(t, what+" cast to "+to.String(), d, err, o, oerr)
	}
	for _, op := range []struct {
		name string
		f    func(a, b Datum) (Datum, error)
		o    func(a, b old) (old, error)
	}{{"+", Add, oAdd}, {"-", Sub, oSub}, {"*", Mul, oMul}, {"/", Div, oDiv}, {"%", Mod, oMod}} {
		d, err := op.f(a.d, b.d)
		o, oerr := op.o(a.o, b.o)
		agreeErr(t, what+" "+op.name, d, err, o, oerr)
	}
	d, err := Neg(a.d)
	o, oerr := oNeg(a.o)
	agreeErr(t, what+" negated", d, err, o, oerr)
}

// TestDatumModel runs every pair of edge values through every operation, as
// built by the constructors and as a decoder's RowStrings leaves them.
func TestDatumModel(t *testing.T) {
	for _, sa := range modelSpecs {
		for _, sb := range modelSpecs {
			a, b := sa.pair(), sb.pair()
			checkModel(t, a, b)
			o := owned(a, b)
			checkModel(t, o[0], o[1])
		}
	}
}

// FuzzDatumRoundTrip is TestDatumModel over arbitrary values.
func FuzzDatumRoundTrip(f *testing.F) {
	for i, sp := range modelSpecs {
		other := modelSpecs[(i*7+3)%len(modelSpecs)]
		f.Add(sp.k, sp.n, []byte(sp.s), other.k, other.n, []byte(other.s))
	}
	f.Fuzz(func(t *testing.T, ka uint8, na uint64, sa []byte, kb uint8, nb uint64, sb []byte) {
		a, b := spec{ka, na, string(sa)}.pair(), spec{kb, nb, string(sb)}.pair()
		checkModel(t, a, b)
		o := owned(a, b)
		checkModel(t, o[0], o[1])
	})
}

// TestSizeofDatum pins the layout: two words. Every row in every layer is
// a flat []Datum, so a third word is half again the memory everywhere.
func TestSizeofDatum(t *testing.T) {
	if got := unsafe.Sizeof(Datum{}); got != 16 {
		t.Fatalf("a Datum is %d bytes, want 16", got)
	}
}

// TestDatumLayout is the truth table of the two-word layout: each constructor
// at the edges of its forms reads back its type, its nullness and its value,
// equals a twin built afresh, and holds in p what the layout says — nil
// (inline, or an empty string), a tag (boxed) or its bytes.
func TestDatumLayout(t *testing.T) {
	const inline, boxed, bytes = "nil", "a tag", "its bytes"
	check := func(name string, mk func() Datum, typ Type, want any, form string) {
		t.Helper()
		d, twin := mk(), mk()
		var got any
		switch typ {
		case TypeBool:
			got = d.Bool()
		case TypeInt:
			got = d.Int()
		case TypeFloat:
			got, want = math.Float64bits(d.Float()), math.Float64bits(want.(float64))
		case TypeString:
			got = d.Str()
		case TypeTimestamp:
			got = d.TimestampMicros()
		case TypeInterval:
			got = d.IntervalMicros()
		}
		p := bytes
		if off := uintptr(d.p) - uintptr(unsafe.Pointer(&tags)); off < uintptr(len(tags)) {
			p = boxed
		} else if d.p == nil {
			p = inline
		}
		if d.Type() != typ || d.IsNull() != (typ <= TypeNull) || got != want || !d.Equal(twin) || !twin.Equal(d) || p != form {
			t.Errorf("%s: %s (null %v) holding %v with p %s, equal to its twin %v; want %s holding %v with p %s",
				name, d.Type(), d.IsNull(), got, p, d.Equal(twin), typ, want, form)
		}
	}
	for _, v := range []int64{0, 1, -1, 1<<55 - 1, -1 << 55, 1 << 55, -1<<55 - 1, math.MinInt64, math.MaxInt64} {
		form := inline
		if v >= 1<<55 || v < -1<<55 {
			form = boxed
		}
		name := strconv.FormatInt(v, 10)
		check("BIGINT "+name, func() Datum { return NewInt(v) }, TypeInt, v, form)
		check("INTERVAL "+name, func() Datum { return NewIntervalMicros(v) }, TypeInterval, v, form)
	}
	day := func(y int, m time.Month) time.Time { return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC) }
	for _, c := range []struct {
		ts   time.Time
		form string
	}{{day(1, 1), boxed}, {day(828, 1), boxed}, {day(828, 12), inline}, {time.Now(), inline}, {day(3111, 6), inline}, {day(3112, 1), boxed}, {day(9999, 12), boxed}} {
		check(c.ts.String(), func() Datum { return NewTimestamp(c.ts) }, TypeTimestamp, c.ts.UnixMicro(), c.form)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 1.5} {
		check(fmt.Sprint("DOUBLE ", f), func() Datum { return NewFloat(f) }, TypeFloat, f, boxed)
	}
	check("Null", func() Datum { return Null }, TypeNull, nil, inline)
	check("NewNull", NewNull, TypeNull, nil, inline)
	check("the zero Datum", func() Datum { return Datum{} }, TypeUnknown, nil, inline)
	check("True", func() Datum { return True }, TypeBool, true, inline)
	check("NewBool(false)", func() Datum { return NewBool(false) }, TypeBool, false, inline)

	buf := append(make([]byte, 0, 8), "buffer"...)
	atEnd := unsafe.String(unsafe.SliceData(buf[len(buf):]), 0) // empty, but with an address
	mib := strings.Repeat("x", 1<<20)
	check(`NewString("")`, func() Datum { return NewString("") }, TypeString, "", inline)
	check("an empty string at a buffer's end", func() Datum { return NewString(atEnd) }, TypeString, "", inline)
	check("a 1-byte string", func() Datum { return NewString(string(buf[:1])) }, TypeString, "b", bytes)
	check("a 1 MiB string", func() Datum { return NewString(mib) }, TypeString, mib, bytes)

	var strs RowStrings
	ph := strs.Add([]byte("abc"))
	if ph.Type() != TypeString || ph.IsNull() || !panicked(func() { _ = ph.Str() }) {
		t.Errorf("a placeholder reads as %s (null %v) and does not panic on Str", ph.Type(), ph.IsNull())
	}
	strs.Push(ph)
	strs.EndRow()
	if s := strs.Rows()[0][0].Str(); s != "abc" {
		t.Errorf("a carved placeholder reads %q", s)
	}
	// A boxed value whose word is an inline one's is not that value.
	if a, b := NewInt(-1), NewInt(int64(NewInt(-1).n)); a.Equal(b) || Compare(a, b) == 0 {
		t.Errorf("%v and %v, one word apart in form only, are equal", a, b)
	}
}
