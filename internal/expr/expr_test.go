package expr

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// testBinder resolves single-letter columns a..e to row positions 0..4,
// all typed INT except d (FLOAT) and s (STRING at position 5).
type testBinder struct{}

func (testBinder) ResolveColumn(table, name string) (ColumnBinding, error) {
	switch name {
	case "a":
		return ColumnBinding{Index: 0, Type: types.TypeInt}, nil
	case "b":
		return ColumnBinding{Index: 1, Type: types.TypeInt}, nil
	case "c":
		return ColumnBinding{Index: 2, Type: types.TypeInt}, nil
	case "d":
		return ColumnBinding{Index: 3, Type: types.TypeFloat}, nil
	case "n":
		return ColumnBinding{Index: 4, Type: types.TypeInt}, nil // holds NULL in tests
	case "s":
		return ColumnBinding{Index: 5, Type: types.TypeString}, nil
	}
	return ColumnBinding{}, sqlErr(name)
}

func sqlErr(name string) error { return &unknownColumn{name} }

type unknownColumn struct{ name string }

func (e *unknownColumn) Error() string { return "unknown column " + e.name }

var testRow = types.Row{
	types.NewInt(2), types.NewInt(3), types.NewInt(-1),
	types.NewFloat(2.5), types.Null, types.NewString("hello world"),
}

// parseExpr parses a standalone scalar expression: a select list of one.
func parseExpr(src string) (sql.Expr, error) {
	stmt, err := sql.Parse("SELECT " + src)
	if err != nil {
		return nil, err
	}
	return stmt.(*sql.Select).Items[0].Expr, nil
}

func evalStr(t *testing.T, src string) types.Datum {
	t.Helper()
	ast, err := parseExpr(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	s, err := Compile(ast, testBinder{})
	if err != nil {
		t.Fatalf("compile %q: %v", src, err)
	}
	v, err := s.Eval(&Ctx{Row: testRow})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func TestScalarEval(t *testing.T) {
	cases := []struct {
		src  string
		want types.Datum
	}{
		{"1 + 2 * 3", types.NewInt(7)},
		{"a + b", types.NewInt(5)},
		{"a - b", types.NewInt(-1)},
		{"a * d", types.NewFloat(5)},
		{"b / a", types.NewInt(1)},
		{"b % a", types.NewInt(1)},
		{"-c", types.NewInt(1)},
		{"a = 2", types.True},
		{"a <> 2", types.False},
		{"a < b", types.True},
		{"a >= b", types.False},
		{"a = 2 and b = 3", types.True},
		{"a = 0 or b = 3", types.True},
		{"not a = 2", types.False},
		{"n is null", types.True},
		{"a is null", types.False},
		{"a is not null", types.True},
		{"a between 1 and 3", types.True},
		{"a not between 1 and 3", types.False},
		{"a in (1, 2, 3)", types.True},
		{"a in (5, 6)", types.False},
		{"a not in (5, 6)", types.True},
		{"s like 'hello%'", types.True},
		{"s like '%world'", types.True},
		{"s like 'h_llo%'", types.True},
		{"s like 'xyz%'", types.False},
		{"s not like 'xyz%'", types.True},
		{"case when a = 2 then 'two' else 'other' end", types.NewString("two")},
		{"case a when 1 then 'one' when 2 then 'two' end", types.NewString("two")},
		{"case a when 9 then 'nine' end", types.Null},
		{"cast(a as varchar)", types.NewString("2")},
		{"a::double", types.NewFloat(2)},
		{"'12'::bigint + 1", types.NewInt(13)},
		{"s || '!'", types.NewString("hello world!")},
		{"null is null", types.True},
	}
	for _, c := range cases {
		got := evalStr(t, c.src)
		if got.IsNull() != c.want.IsNull() || (!got.IsNull() && types.Compare(got, c.want) != 0) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	cases := []struct {
		src  string
		want types.Datum // Null means NULL
	}{
		{"n = 1", types.Null},
		{"n and true", types.Null},
		{"n = 1 and false", types.False}, // NULL AND false = false
		{"n = 1 or true", types.True},    // NULL OR true = true
		{"n = 1 or false", types.Null},
		{"not (n = 1)", types.Null},
		{"n + 1", types.Null},
		{"n in (1, 2)", types.Null},
		{"1 in (2, n)", types.Null}, // no match, NULL present
		{"1 in (1, n)", types.True}, // match wins
		{"n between 1 and 2", types.Null},
		{"n like 'x'", types.Null},
	}
	for _, c := range cases {
		got := evalStr(t, c.src)
		if got.IsNull() != c.want.IsNull() {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
			continue
		}
		if !got.IsNull() && types.Compare(got, c.want) != 0 {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestBuiltinFunctions(t *testing.T) {
	cases := []struct {
		src  string
		want types.Datum
	}{
		{"lower('ABC')", types.NewString("abc")},
		{"upper('abc')", types.NewString("ABC")},
		{"length(s)", types.NewInt(11)},
		{"trim('  x ')", types.NewString("x")},
		{"replace(s, 'world', 'go')", types.NewString("hello go")},
		{"substr(s, 1, 5)", types.NewString("hello")},
		{"substr(s, 7)", types.NewString("world")},
		{"strpos(s, 'world')", types.NewInt(7)},
		{"concat('a', 1, 'b')", types.NewString("a1b")},
		{"abs(-5)", types.NewInt(5)},
		{"abs(c)", types.NewInt(1)},
		{"floor(2.7)", types.NewFloat(2)},
		{"ceil(2.1)", types.NewFloat(3)},
		{"round(2.567, 2)", types.NewFloat(2.57)},
		{"sqrt(9.0)", types.NewFloat(3)},
		{"power(2, 10)", types.NewFloat(1024)},
		{"sign(-3)", types.NewInt(-1)},
		{"coalesce(n, a)", types.NewInt(2)},
		{"coalesce(n, n)", types.Null},
		{"nullif(a, 2)", types.Null},
		{"nullif(a, 9)", types.NewInt(2)},
		{"greatest(1, 5, 3)", types.NewInt(5)},
		{"least(4, 2, 8)", types.NewInt(2)},
		{"epoch(timestamp '1970-01-01 00:00:01')", types.NewFloat(1)},
		{"date_trunc('minute', timestamp '2009-01-04 09:30:45')",
			mustTS(t, "2009-01-04 09:30:00")},
		{"date_trunc('hour', timestamp '2009-01-04 09:30:45')",
			mustTS(t, "2009-01-04 09:00:00")},
		{"date_trunc('day', timestamp '2009-01-04 09:30:45')",
			mustTS(t, "2009-01-04")},
		{"year(timestamp '2009-01-04 09:30:45')", types.NewInt(2009)},
		{"month(timestamp '2009-01-04 09:30:45')", types.NewInt(1)},
		{"day(timestamp '2009-01-04 09:30:45')", types.NewInt(4)},
		{"hour(timestamp '2009-01-04 09:30:45')", types.NewInt(9)},
		{"minute(timestamp '2009-01-04 09:30:45')", types.NewInt(30)},
		{"second(timestamp '2009-01-04 09:30:45')", types.NewInt(45)},
		{"dow(timestamp '2009-01-04 09:30:45')", types.NewInt(0)}, // Sunday
	}
	for _, c := range cases {
		got := evalStr(t, c.src)
		if got.IsNull() != c.want.IsNull() || (!got.IsNull() && types.Compare(got, c.want) != 0) {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func mustTS(t *testing.T, s string) types.Datum {
	t.Helper()
	d, err := types.ParseTimestamp(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCQClose(t *testing.T) {
	ast, _ := parseExpr("cq_close(*)")
	s, err := Compile(ast, testBinder{})
	if err != nil {
		t.Fatal(err)
	}
	close := types.NewTimestampMicros(42_000_000)
	v, err := s.Eval(&Ctx{Row: testRow, WindowClose: close})
	if err != nil {
		t.Fatal(err)
	}
	if types.Compare(v, close) != 0 {
		t.Fatalf("cq_close = %v", v)
	}
	if s.Type != types.TypeTimestamp {
		t.Fatal("cq_close type")
	}
}

func TestCompileErrors(t *testing.T) {
	bad := []string{
		"zzz",           // unknown column
		"nosuchfunc(1)", // unknown function
		"sum(a)",        // aggregate in scalar context
		"lower(1, 2)",   // arity
		"lower(*)",      // star on scalar
		"'a' < 1",       // incomparable static types
	}
	for _, src := range bad {
		ast, err := parseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Compile(ast, testBinder{}); err == nil {
			t.Errorf("Compile(%q) should fail", src)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	for _, src := range []string{"a / 0", "b % 0", "sqrt(-1.0)", "ln(0.0)"} {
		ast, _ := parseExpr(src)
		s, err := Compile(ast, testBinder{})
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		if _, err := s.Eval(&Ctx{Row: testRow}); err == nil {
			t.Errorf("Eval(%q) should fail", src)
		}
	}
}

func TestMatchLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"", "", true},
		{"", "%", true},
		{"a", "", false},
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"abc", "____", false},
		{"abc", "___", true},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ppx", false},
		{"/index.html", "/%.html", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// ---------------------------------------------------------------- aggs

func addAll(t *testing.T, a Acc, vs ...types.Datum) {
	t.Helper()
	for _, v := range vs {
		if err := a.Add(v); err != nil {
			t.Fatal(err)
		}
	}
}

func newAcc(t *testing.T, name string, distinct bool) Acc {
	t.Helper()
	a, err := NewAcc(AggSpec{Name: name, Star: name == "count" && !distinct, Distinct: distinct})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// typedAcc is newAcc's accumulator, not DISTINCT, over an argument of type typ.
func typedAcc(t *testing.T, name string, typ types.Type) Acc {
	t.Helper()
	a, err := NewAcc(AggSpec{Name: name, Arg: &Scalar{Type: typ}, Star: name == "count"})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func ints(vs ...int64) []types.Datum {
	out := make([]types.Datum, len(vs))
	for i, v := range vs {
		out[i] = types.NewInt(v)
	}
	return out
}

func TestAggregates(t *testing.T) {
	count := newAcc(t, "count", false)
	addAll(t, count, ints(1, 2, 3)...)
	addAll(t, count, types.Null) // count(*) counts NULLs
	if count.Result().Int() != 4 {
		t.Fatalf("count(*) = %v", count.Result())
	}

	countX, _ := NewAcc(AggSpec{Name: "count"})
	addAll(t, countX, ints(1, 2)...)
	addAll(t, countX, types.Null) // count(x) skips NULLs
	if countX.Result().Int() != 2 {
		t.Fatalf("count(x) = %v", countX.Result())
	}

	sum := newAcc(t, "sum", false)
	addAll(t, sum, ints(1, 2, 3)...)
	if sum.Result().Int() != 6 {
		t.Fatalf("sum = %v", sum.Result())
	}

	sumF := typedAcc(t, "sum", types.TypeFloat)
	addAll(t, sumF, types.NewFloat(1), types.NewFloat(0.5))
	if sumF.Result().Float() != 1.5 {
		t.Fatalf("double sum = %v", sumF.Result())
	}

	empty := newAcc(t, "sum", false)
	if !empty.Result().IsNull() {
		t.Fatal("sum of nothing should be NULL")
	}

	avg := newAcc(t, "avg", false)
	addAll(t, avg, ints(1, 2, 3, 4)...)
	if avg.Result().Float() != 2.5 {
		t.Fatalf("avg = %v", avg.Result())
	}

	min := newAcc(t, "min", false)
	addAll(t, min, ints(5, 2, 9)...)
	if min.Result().Int() != 2 {
		t.Fatalf("min = %v", min.Result())
	}

	max := newAcc(t, "max", false)
	addAll(t, max, types.NewString("b"), types.NewString("z"), types.NewString("a"))
	if max.Result().Str() != "z" {
		t.Fatalf("max = %v", max.Result())
	}

	sd := newAcc(t, "stddev", false)
	addAll(t, sd, ints(2, 4, 4, 4, 5, 5, 7, 9)...)
	if got := sd.Result().Float(); math.Abs(got-2.138089935299395) > 1e-9 {
		t.Fatalf("stddev = %v", got)
	}

	one := newAcc(t, "stddev", false)
	addAll(t, one, ints(5)...)
	if !one.Result().IsNull() {
		t.Fatal("stddev of one value should be NULL")
	}

	first := newAcc(t, "first", false)
	addAll(t, first, ints(7, 8, 9)...)
	if first.Result().Int() != 7 {
		t.Fatalf("first = %v", first.Result())
	}
	last := newAcc(t, "last", false)
	addAll(t, last, ints(7, 8, 9)...)
	if last.Result().Int() != 9 {
		t.Fatalf("last = %v", last.Result())
	}
}

func TestCountDistinct(t *testing.T) {
	cd := newAcc(t, "count", true)
	addAll(t, cd, ints(1, 2, 2, 3, 3, 3)...)
	addAll(t, cd, types.Null)
	if cd.Result().Int() != 3 {
		t.Fatalf("count(distinct) = %v", cd.Result())
	}
	sd := newAcc(t, "sum", true)
	addAll(t, sd, ints(5, 5, 7)...)
	if sd.Result().Int() != 12 {
		t.Fatalf("sum(distinct) = %v", sd.Result())
	}
}

// TestMergeEqualsDirect is the core sharing property: splitting any input
// across two accumulators and merging must equal accumulating directly.
func TestMergeEqualsDirect(t *testing.T) {
	inputs := []types.Datum{
		types.NewInt(4), types.NewInt(-2), types.NewInt(4), types.Null,
		types.NewInt(11), types.NewInt(0), types.NewInt(7), types.NewInt(7),
	}
	for _, name := range []string{"count", "sum", "avg", "min", "max", "stddev", "variance", "first", "last"} {
		for _, distinct := range []bool{false, true} {
			if distinct && (name == "first" || name == "last") {
				continue // order-sensitive; distinct not meaningful
			}
			for split := 0; split <= len(inputs); split++ {
				direct := newAcc(t, name, distinct)
				left := newAcc(t, name, distinct)
				right := newAcc(t, name, distinct)
				addAll(t, direct, inputs...)
				addAll(t, left, inputs[:split]...)
				addAll(t, right, inputs[split:]...)
				if err := left.Merge(right); err != nil {
					t.Fatalf("%s merge: %v", name, err)
				}
				want, got := direct.Result(), left.Result()
				if want.IsNull() != got.IsNull() {
					t.Fatalf("%s distinct=%v split=%d: merged %v, direct %v", name, distinct, split, got, want)
				}
				if !want.IsNull() {
					// Compare with tolerance for float aggregates.
					if want.Type().Numeric() && got.Type().Numeric() {
						if math.Abs(want.Float()-got.Float()) > 1e-9 {
							t.Fatalf("%s distinct=%v split=%d: merged %v, direct %v", name, distinct, split, got, want)
						}
					} else if types.Compare(want, got) != 0 {
						t.Fatalf("%s distinct=%v split=%d: merged %v, direct %v", name, distinct, split, got, want)
					}
				}
			}
		}
	}
}

// TestSubUndoesMerge: for every retractable aggregate, merging a partial
// and then retracting it leaves exactly the state of never having merged
// it — for any split of the input, and including the result's type: a
// sum goes back to NULL when everything has left.
func TestSubUndoesMerge(t *testing.T) {
	inputs := []types.Datum{
		types.NewFloat(4), types.NewFloat(1.5), types.NewFloat(-2), types.Null,
		types.NewFloat(11), types.NewFloat(0), types.NewFloat(7), types.NewFloat(7),
	}
	for _, name := range []string{"count", "sum", "avg"} {
		for split := 0; split <= len(inputs); split++ {
			window := typedAcc(t, name, types.TypeFloat).(Retractable)
			kept := typedAcc(t, name, types.TypeFloat)
			leaving := typedAcc(t, name, types.TypeFloat)
			addAll(t, kept, inputs[:split]...)
			addAll(t, window, inputs[:split]...)
			addAll(t, leaving, inputs[split:]...)
			if err := window.Merge(leaving); err != nil {
				t.Fatal(err)
			}
			if err := window.Sub(leaving); err != nil {
				t.Fatal(err)
			}
			want, got := kept.Result(), window.Result()
			if want.Type() != got.Type() || want.IsNull() != got.IsNull() ||
				(!want.IsNull() && types.Compare(want, got) != 0) {
				t.Errorf("%s split=%d: after Merge+Sub %v (%s), never merged %v (%s)",
					name, split, got, got.Type(), want, want.Type())
			}
		}
	}

	// Intervals retract exactly.
	w := typedAcc(t, "sum", types.TypeInterval).(Retractable)
	slice := typedAcc(t, "sum", types.TypeInterval)
	addAll(t, w, types.NewInterval(2*time.Second))
	addAll(t, slice, types.NewInterval(500*time.Millisecond))
	if err := w.Merge(slice); err != nil {
		t.Fatal(err)
	}
	if got := w.Result(); got.Type() != types.TypeInterval || got.IntervalMicros() != 2_500_000 {
		t.Fatalf("interval sum = %v, want 2.5s", got)
	}
	if err := w.Sub(slice); err != nil {
		t.Fatal(err)
	}
	if got := w.Result(); got.IntervalMicros() != 2_000_000 {
		t.Fatalf("after retract = %v, want 2s", got)
	}

	// Retracting a partial of another aggregate is a bug, not a no-op.
	if err := w.Sub(newAcc(t, "count", false)); err == nil {
		t.Fatal("sum.Sub(count) should error")
	}
}

// TestRetractableSet pins which accumulators claim an exact inverse, for
// every aggregate there is; the window-state store re-merges surviving slices
// for the rest, and says it keeps the rows it is handed (ivm's TestKeepsRows).
func TestRetractableSet(t *testing.T) {
	set := map[string]bool{
		"count": true, "sum": true, "avg": true,
		"min": false, "max": false, "stddev": false, "variance": false, "first": false, "last": false,
	}
	for name := range aggregateNames {
		if _, ok := set[name]; !ok {
			t.Errorf("aggregate %s is not pinned here", name)
		}
	}
	for name, want := range set {
		if _, ok := newAcc(t, name, false).(Retractable); ok != want {
			t.Errorf("%s retractable = %v, want %v", name, ok, want)
		}
	}
	if _, ok := newAcc(t, "count", true).(Retractable); ok {
		t.Error("count(DISTINCT) must not claim an inverse")
	}
}

// TestMinMaxRemerge is the retraction path of the aggregates without an
// inverse: merging the surviving partials in slice order reproduces the
// window value, the earlier of two equal values wins as in direct
// evaluation, and an empty partial is a no-op.
func TestMinMaxRemerge(t *testing.T) {
	old, mid, empty := newAcc(t, "max", false), newAcc(t, "max", false), newAcc(t, "max", false)
	addAll(t, old, types.NewFloat(7))
	addAll(t, mid, types.NewInt(7), types.NewInt(3))
	rebuilt := newAcc(t, "max", false)
	for _, part := range []Acc{old, mid, empty} {
		if err := rebuilt.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if got := rebuilt.Result(); got.Type() != types.TypeFloat || got.Float() != 7 {
		t.Errorf("rebuilt max = %v (%s), want the first-seen 7 (DOUBLE)", got, got.Type())
	}
	if err := rebuilt.Add(types.NewString("x")); err == nil {
		t.Fatal("min/max over mixed types should error")
	}
	if !newAcc(t, "min", false).Result().IsNull() {
		t.Fatal("min over nothing should be NULL")
	}
}

func TestMergeTypeMismatch(t *testing.T) {
	a := newAcc(t, "sum", false)
	b := newAcc(t, "count", false)
	if err := a.Merge(b); err == nil {
		t.Fatal("merging different accumulator types should error")
	}
}

func TestAggSpecResultType(t *testing.T) {
	if (AggSpec{Name: "count"}).ResultType() != types.TypeInt {
		t.Fatal("count type")
	}
	if (AggSpec{Name: "avg"}).ResultType() != types.TypeFloat {
		t.Fatal("avg type")
	}
	s := &Scalar{Type: types.TypeInterval}
	if (AggSpec{Name: "sum", Arg: s}).ResultType() != types.TypeInterval {
		t.Fatal("sum type follows arg")
	}
}

func TestIsAggregateAndScalar(t *testing.T) {
	for _, n := range []string{"count", "sum", "avg", "min", "max", "stddev"} {
		if !IsAggregate(n) || !IsAggregate(strings.ToUpper(n)) {
			t.Errorf("IsAggregate(%s)", n)
		}
	}
	if IsAggregate("lower") || !IsScalarFunc("lower") || !IsScalarFunc("cq_close") {
		t.Fatal("classification")
	}
}

// TestResetMatchesNew: an accumulator a slab carved, fed values of every type
// (some of which it refuses) and Reset, is one New just made — the same
// Result before anything arrives and after each step of one Add, Merge and
// Sub sequence, for every aggregate spec: Reset keeps the flags New set
// (count's star, min/max's direction, stddev, first) and forgets the rest,
// a DISTINCT set's members included.
func TestResetMatchesNew(t *testing.T) {
	dirt := []types.Datum{types.NewString("zz"), types.NewInt(4), types.NewFloat(2.5), types.NewInterval(time.Second), types.NewInt(-40)}
	seq := ints(4, -2, 4, 11, 0, 7)
	specs := []AggSpec{{Name: "count", Star: true}}
	var names []string // every aggregate there is
	for name := range aggregateNames {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		specs = append(specs, AggSpec{Name: name})
		if name != "first" && name != "last" { // their DISTINCT merges a set in map order
			specs = append(specs, AggSpec{Name: name, Distinct: true})
		}
	}
	for _, spec := range specs {
		var slab AccSlab
		reset, err := slab.New(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range dirt {
			_ = reset.Add(v) // min/max refuse the types after the first
		}
		Reset(reset)
		fresh, err := NewAcc(spec)
		if err != nil {
			t.Fatal(err)
		}
		part, _ := NewAcc(spec)
		addAll(t, part, seq[3:]...)
		steps := []struct {
			name string
			do   func(a Acc) error
		}{
			{"nothing", func(Acc) error { return nil }},
			{"Add", func(a Acc) error {
				for _, v := range append(seq[:3:3], types.Null) {
					if err := a.Add(v); err != nil {
						return err
					}
				}
				return nil
			}},
			{"Merge", func(a Acc) error { return a.Merge(part) }},
			{"Sub", func(a Acc) error {
				if r, ok := a.(Retractable); ok {
					return r.Sub(part)
				}
				return nil
			}},
		}
		for _, step := range steps {
			errReset, errFresh := step.do(reset), step.do(fresh)
			if got, want := reset.Result(), fresh.Result(); (errReset == nil) != (errFresh == nil) || !got.Equal(want) {
				t.Errorf("%+v after %s: reset %v (%v), new %v (%v)", spec, step.name, got, errReset, want, errFresh)
			}
		}
	}
}

// TestSlabRefillFollowsTheMiss: a slab takes what it was sized for in one
// chunk and, one group past that, a quarter more — not twice as much again
// — while one that expects maxChunk groups or more takes whole chunks.
func TestSlabRefillFollowsTheMiss(t *testing.T) {
	aggs := []AggSpec{{Name: "count", Star: true}}
	for _, c := range []struct{ want, take, carved int }{
		{100, 100, 100}, {100, 101, 125}, {100, 126, 100 + 25 + 31}, {0, 1, 1}, {0, 2, 1 + minRefill},
		{255, 256, 255 + 63}, {1000, 1001, 4 * maxChunk}, {1000, 1025, 5 * maxChunk},
	} {
		b := NewSlab[int](c.want)
		for i := 0; i < c.take; i++ {
			if _, _, err := b.Next(aggs); err != nil {
				t.Fatal(err)
			}
		}
		if b.carved != c.carved {
			t.Errorf("sized for %d, %d groups taken: chunks of %d groups in all, want %d", c.want, c.take, b.carved, c.carved)
		}
	}
}

// TestRecyclerRule: a recycler hands back the object put last; what a
// boundary kept and nothing took goes at the next one, unless its owner
// counts what it carves; a boundary where more than twice the live objects
// were carved drops everything, and one where exactly twice were does not;
// Put resets, and under types.Poison poisons, what Take resets again.
func TestRecyclerRule(t *testing.T) {
	type obj struct{ id, resets, poisons int }
	newRecycler := func() Recycler[*obj] {
		return NewRecycler(func(o *obj, poison bool) {
			if o.resets++; poison {
				o.poisons++
			}
		}, 4)
	}
	objs := make([]*obj, 6)
	for i := range objs {
		objs[i] = &obj{id: i}
	}
	ids := func(r *Recycler[*obj]) (got []int) {
		for o := r.Take(); o != nil; o = r.Take() {
			got = append(got, o.id)
		}
		return got
	}

	r := newRecycler()
	if r.Take() != nil {
		t.Fatal("an empty recycler handed out an object")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for _, o := range objs[:4] {
			r.Put(o)
		}
		r.Boundary(0)
		for r.Take() != nil {
		}
	}); allocs != 0 {
		t.Errorf("putting the 4 objects it has room for allocates %.0f times", allocs)
	}
	for _, o := range objs[:3] {
		r.Put(o)
	}
	if got := ids(&r); !slices.Equal(got, []int{2, 1, 0}) {
		t.Errorf("take order %v, want the object put last first", got)
	}

	// One boundary kept, the next dropped, unless taken and put again.
	r.Put(objs[0])
	r.Put(objs[1])
	r.Boundary(0)
	if r.Len() != 2 {
		t.Fatalf("a boundary dropped what it was put for: %d kept", r.Len())
	}
	r.Put(r.Take()) // objs[1], taken and put again
	r.Put(objs[2])
	r.Boundary(0)
	if got := ids(&r); !slices.Equal(got, []int{2, 1}) {
		t.Errorf("after a second boundary %v kept, want 2 and 1: 0 went unused for a boundary", got)
	}

	// Counted objects stay past boundaries: dropping them would free nothing.
	r.Made(3)
	r.Put(objs[3])
	for i := 0; i < 3; i++ {
		if r.Boundary(2) || r.Len() != 1 {
			t.Fatalf("boundary %d: 3 carved for 2 live, %d kept: want the counted object kept", i, r.Len())
		}
	}
	if r.Take() != objs[3] {
		t.Fatal("the counted object was not handed back")
	}

	// The 2× edge: twice live carved keeps, one more drops all and counts anew.
	for _, live := range []int{1, 5} {
		r := newRecycler()
		r.Made(2 * live)
		r.Put(objs[0])
		if r.Boundary(live) || r.Len() != 1 {
			t.Errorf("live %d, %d carved: fresh, or %d kept, want 1", live, 2*live, r.Len())
		}
		r.Made(1)
		if !r.Boundary(live) || r.Len() != 0 {
			t.Errorf("live %d, %d carved: not fresh, or %d kept, want 0", live, 2*live+1, r.Len())
		}
		if r.Boundary(0) {
			t.Errorf("live %d: a fresh start did not count anew", live)
		}
	}

	// Reset and poison: once at Put, once more at Take under types.Poison.
	defer func(p bool) { types.Poison = p }(types.Poison)
	for _, poison := range []bool{false, true} {
		types.Poison = poison
		o := &obj{}
		r := newRecycler()
		r.Put(o)
		if o.resets != 1 || (o.poisons == 1) != poison {
			t.Errorf("Poison %v: Put reset %d times, poisoned %d", poison, o.resets, o.poisons)
		}
		r.Take()
		if want := map[bool]int{false: 1, true: 2}[poison]; o.resets != want || o.poisons > 1 {
			t.Errorf("Poison %v: after Take reset %d times (want %d), poisoned %d", poison, o.resets, want, o.poisons)
		}
	}
}
