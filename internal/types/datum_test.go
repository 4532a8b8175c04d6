package types

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if !Null.IsNull() {
		t.Fatal("Null is not null")
	}
	if !NewBool(true).Equal(True) || !NewBool(false).Equal(False) {
		t.Fatal("bool constructors")
	}
	if NewInt(42).Int() != 42 {
		t.Fatal("int round trip")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Fatal("float round trip")
	}
	if NewString("abc").Str() != "abc" {
		t.Fatal("string round trip")
	}
	ts := time.Date(2009, 1, 4, 9, 30, 0, 0, time.UTC)
	if !NewTimestamp(ts).Time().Equal(ts) {
		t.Fatal("timestamp round trip")
	}
	if NewInterval(5*time.Minute).Duration() != 5*time.Minute {
		t.Fatal("interval round trip")
	}
	if NewInt(7).Float() != 7.0 {
		t.Fatal("int widens to float")
	}
}

func TestAccessorPanicsOnWrongType(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewString("x").Int()
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeBool: "BOOLEAN", TypeInt: "BIGINT", TypeFloat: "DOUBLE",
		TypeString: "VARCHAR", TypeTimestamp: "TIMESTAMP", TypeInterval: "INTERVAL",
		TypeNull: "NULL",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Datum
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(1.0), NewInt(1), 0},
		{NewString("a"), NewString("b"), -1},
		{NewString("b"), NewString("b"), 0},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
		{True, False, 1},
		{NewTimestampMicros(10), NewTimestampMicros(20), -1},
		{NewIntervalMicros(50), NewIntervalMicros(50), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareNaN(t *testing.T) {
	nan := NewFloat(math.NaN())
	if Compare(nan, nan) != 0 {
		t.Error("NaN should order equal to itself")
	}
	if Compare(nan, NewFloat(math.Inf(1))) != 1 {
		t.Error("NaN should sort after +Inf")
	}
	if Compare(NewFloat(1), nan) != -1 {
		t.Error("1 should sort before NaN")
	}
}

func TestCompareIncomparablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compare(NewString("x"), NewInt(1))
}

func TestDatumString(t *testing.T) {
	cases := []struct {
		d    Datum
		want string
	}{
		{Null, "NULL"},
		{True, "true"},
		{NewInt(-7), "-7"},
		{NewFloat(2.5), "2.5"},
		{NewFloat(3), "3.0"},
		{NewString("hi"), "hi"},
		{NewTimestamp(time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)), "2009-01-04 00:00:00.000000"},
		{NewIntervalMicros(90_000_000), "1 minute 30 seconds"},
		{NewFloat(math.Inf(1)), "Infinity"},
		{NewFloat(math.NaN()), "NaN"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// randDatum generates a random datum for property tests. Only mutually
// comparable types within a class are generated per call site when needed.
func randDatum(r *rand.Rand) Datum {
	switch r.Intn(7) {
	case 0:
		return Null
	case 1:
		return NewBool(r.Intn(2) == 0)
	case 2:
		return NewInt(r.Int63n(1000) - 500)
	case 3:
		return NewFloat(float64(r.Int63n(1000)-500) / 4)
	case 4:
		return NewString(randString(r))
	case 5:
		return NewTimestampMicros(r.Int63n(1 << 40))
	default:
		return NewIntervalMicros(r.Int63n(1<<30) - (1 << 29))
	}
}

func randString(r *rand.Rand) string {
	n := r.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.Intn(26))
	}
	return string(b)
}

// sameClass reports whether two datums can be compared.
func sameClass(a, b Datum) bool { return Comparable(a.Type(), b.Type()) }

func TestCompareIsTotalOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b, c := randDatum(r), randDatum(r), randDatum(r)
		if !sameClass(a, b) || !sameClass(b, c) || !sameClass(a, c) {
			continue
		}
		// Antisymmetry.
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated for %v, %v", a, b)
		}
		// Transitivity of <=.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			t.Fatalf("transitivity violated for %v, %v, %v", a, b, c)
		}
		// Reflexivity.
		if Compare(a, a) != 0 {
			t.Fatalf("reflexivity violated for %v", a)
		}
	}
}

// TestEqualImpliesEqualHashProperty: equal datums group alike. The grouping
// key (AppendKey) is the one hash every operator keys by; checkRowKey's
// "injective up to grouping equality" case (FuzzRowKey) pins the converse too.
func TestEqualImpliesEqualHashProperty(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		a, b := randDatum(r), randDatum(r)
		if !sameClass(a, b) || !Equal(a, b) {
			continue
		}
		if (Row{a}).Key() != (Row{b}).Key() {
			t.Fatalf("equal datums key differently: %v vs %v", a, b)
		}
	}
	// The int/float collision case specifically.
	if (Row{NewInt(3)}).Key() != (Row{NewFloat(3)}).Key() {
		t.Fatal("int 3 and float 3.0 must key equally")
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		n := r.Intn(6)
		row := make(Row, n)
		for j := range row {
			row[j] = randDatum(r)
		}
		buf := EncodeRow(nil, row)
		got, rest, err := DecodeRow(buf, new(RowStrings))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("trailing bytes after decode")
		}
		if !row.Equal(got) {
			t.Fatalf("round trip mismatch: %v -> %v", row, got)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(i int64, fv float64, s string, b bool) bool {
		row := Row{NewInt(i), NewFloat(fv), NewString(s), NewBool(b), Null}
		got, _, err := DecodeRow(EncodeRow(nil, row), new(RowStrings))
		if err != nil {
			return false
		}
		if math.IsNaN(fv) {
			// NaN != NaN under Compare-free equality; check fields manually.
			return got[0].Int() == i && math.IsNaN(got[1].Float()) && got[2].Str() == s
		}
		return row.Equal(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	strs := new(RowStrings)
	if _, err := strs.Decode([]byte{2, byte(TypeInt), 2}); err == nil || err.Error() != "types: decode: empty buffer" {
		t.Error("empty buffer should error")
	}
	if _, err := strs.Decode([]byte{1, byte(TypeString), 200}); err == nil {
		t.Error("truncated string should error")
	}
	if _, err := strs.Decode([]byte{1, 99}); err == nil {
		t.Error("unknown tag should error")
	}
	if _, _, err := DecodeRow([]byte{}, strs); err == nil {
		t.Error("empty row buffer should error")
	}
}

func TestSchema(t *testing.T) {
	s := Schema{{"url", TypeString}, {"cnt", TypeInt}}
	if s.IndexOf("cnt") != 1 || s.IndexOf("nope") != -1 {
		t.Fatal("IndexOf")
	}
	if got := s.String(); got != "(url VARCHAR, cnt BIGINT)" {
		t.Fatalf("String() = %q", got)
	}
	if !reflect.DeepEqual(s.Names(), []string{"url", "cnt"}) {
		t.Fatal("Names")
	}
	c := s.Clone()
	c[0].Name = "x"
	if s[0].Name != "url" {
		t.Fatal("Clone aliases")
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{NewInt(1), NewString("a")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int() != 1 {
		t.Fatal("Clone aliases")
	}
	if r.String() != "1|a" {
		t.Fatalf("Row.String() = %q", r.String())
	}
	if CompareRows(Row{NewInt(1)}, Row{NewInt(1), NewInt(2)}) != -1 {
		t.Fatal("shorter row should sort first on tie")
	}
	if CompareRows(Row{NewInt(2)}, Row{NewInt(1), NewInt(2)}) != 1 {
		t.Fatal("column comparison should dominate length")
	}
}

// TestIntervalRoundTrip: what FormatInterval prints, ParseInterval reads back
// exactly — the most negative interval included, whose magnitude no int64
// holds — and a literal no int64 holds is an error, not a wrapped value.
func TestIntervalRoundTrip(t *testing.T) {
	for _, us := range []int64{0, 1, -1, 90 * 60_000_000, 1<<53 + 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1} {
		d, err := ParseInterval(FormatInterval(us))
		if err != nil || d.IntervalMicros() != us {
			t.Errorf("%d prints %q, which parses to %v, %v", us, FormatInterval(us), d, err)
		}
	}
	for _, bad := range []string{"nan seconds", "inf us", "1e19 us", "-1e19 us", "9000000000000000000 us 9000000000000000000 us"} {
		if d, err := ParseInterval(bad); err == nil {
			t.Errorf("ParseInterval(%q) = %v", bad, d)
		}
	}
}
