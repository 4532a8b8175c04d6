package ivm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamrel/internal/catalog"
	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// TestStoreColumnsMatchHashAgg is the columns' differential: every close of a
// view equals, bit for bit, exec.HashAgg over the rows logged in that window,
// for every accumulator kind a column holds — COUNT(*) and COUNT(x), SUM, AVG
// and stddev as words, MIN, MAX and first as accumulators — over BIGINT,
// DOUBLE and INTERVAL arguments with NULLs among them and a NULL key, and a
// SUM whose values mix BIGINT and DOUBLE (coalesce hands it either). The
// extents: sliding, where a leaving slice is Sub-tracted from the words and
// the accumulators with no inverse are reset and re-merged from the slices
// left; paired, two cuts an ADVANCE; tumbling, rebuilt at every close; and a
// remerge after reset, keys coming and going so that groups leave a window
// and come back to ids the view reset. Every value is a multiple of 1/4
// below 2^10, so every partial sum is exact and an order of additions cannot
// differ in the last bit: a difference is a state the columns lost or kept
// too long.
func TestStoreColumnsMatchHashAgg(t *testing.T) {
	schema := types.Schema{
		{Name: "k", Type: types.TypeString},
		{Name: "at", Type: types.TypeTimestamp},
		{Name: "i", Type: types.TypeInt},
		{Name: "f", Type: types.TypeFloat},
		{Name: "d", Type: types.TypeInterval},
	}
	const sel = `SELECT k, count(*), count(i), count(f), sum(i), sum(f), sum(d), sum(coalesce(i, f)),
		avg(i), avg(f), stddev(i), stddev(f), min(i), max(f), min(d), max(k), first(f), first(d)`
	for _, c := range []struct {
		name             string
		visible, advance int64
		keys             int // distinct keys a slice draws from, out of the ones rotating through
	}{
		{"sliding", 30, 10, 3},
		{"paired", 25, 10, 3},
		{"tumbling", 10, 10, 3},
		{"remerge", 20, 10, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, spec := storeOver(t, schema, fmt.Sprintf(`%s FROM s <VISIBLE '%d seconds' ADVANCE '%d seconds'> GROUP BY k`,
				sel, c.visible, c.advance))
			v := s.Attach(c.visible * second)
			rng := rand.New(rand.NewSource(int64(c.visible*100 + c.advance)))
			value := func(t types.Type) types.Datum {
				q := int64(rng.Intn(64) - 32)
				switch {
				case rng.Intn(6) == 0:
					return types.Null
				case t == types.TypeInt:
					return types.NewInt(q)
				case t == types.TypeFloat:
					return types.NewFloat(float64(q) / 4)
				}
				return types.NewIntervalMicros(q * 250_000)
			}
			var logged []types.Row
			ts, next, closes := int64(0), c.advance*second, 0
			for step := 0; step < 1200; step++ {
				ts += int64(rng.Intn(int(c.advance))) * second / 4
				for ; next <= ts; next += c.advance * second {
					closes++
					inPlace := closes/2%2 == 1
					out, _, _, err := v.Fire(next, inPlace)
					if err != nil {
						t.Fatal(err)
					}
					var window []types.Row
					for _, r := range logged {
						if at := r[1].TimestampMicros(); at >= next-c.visible*second && at < next {
							window = append(window, r)
						}
					}
					want, err := exec.Drain(&exec.Ctx{}, &exec.HashAgg{Child: &exec.Values{Rows: window},
						GroupBy: spec.GroupBy, Aggs: spec.Aggs, SortedOutput: true}, 0)
					if err != nil {
						t.Fatal(err)
					}
					if len(out) != len(want) {
						t.Fatalf("close %d s: %d groups, HashAgg %d", next/second, len(out), len(want))
					}
					for i := range out {
						if !out[i].Equal(want[i]) {
							t.Fatalf("close %d s (in place %v), group %d:\nview    %v\nHashAgg %v", next/second, inPlace, i, out[i], want[i])
						}
					}
					s.Expire(next)
					for len(logged) > 0 && logged[0][1].TimestampMicros() < next+c.advance*second-c.visible*second {
						logged = logged[1:]
					}
				}
				// The keys rotate: slice n draws from keys n … n+keys-1 of five,
				// the fifth NULL.
				key := types.Null
				if n := (int(ts/(c.advance*second)) + rng.Intn(c.keys)) % 5; n < 4 {
					key = types.NewString(fmt.Sprintf("/k%d", n))
				}
				row := types.Row{key, types.NewTimestampMicros(ts), value(types.TypeInt), value(types.TypeFloat), value(types.TypeInterval)}
				if err := s.Insert(row, ts); err != nil {
					t.Fatal(err)
				}
				logged = append(logged, row)
			}
			if closes < 100 {
				t.Fatalf("%d closes: the tape is too short", closes)
			}
		})
	}
}

// hasPointers says whether a value of type t holds a pointer the collector
// must follow.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	}
	return false
}

// TestWordColumnsHoldNoPointers: COUNT, SUM, AVG, stddev and variance keep a
// slice's partials and a view's window groups in an array of their
// accumulators' values, whose type holds no pointer, so the collector never
// traces them; MIN, MAX, first and DISTINCT keep accumulators that may hold a
// datum. So do a slice's ids and row counts.
func TestWordColumnsHoldNoPointers(t *testing.T) {
	s := newStore(t, `SELECT url, count(*), count(v), sum(v), avg(v), stddev(v), variance(v), min(v), max(v),
		first(v), count(DISTINCT v) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(20 * second)
	insert(t, s, hit("/a", 1, 1))
	fire(t, v, 10*second, false)
	words := []bool{true, true, true, true, true, true, false, false, false, false}
	sl := s.slices[0]
	for _, layer := range []struct {
		name string
		cols []expr.Column
	}{{"slice", sl.cols}, {"view", v.cols}} {
		for i, c := range layer.cols {
			elem := reflect.TypeOf(c.Acc(0)).Elem() // the accumulator's own type
			col, held := reflect.TypeOf(c).Elem(), false
			for j := range col.NumField() {
				if f := col.Field(j).Type; f.Kind() == reflect.Slice && f.Elem() == elem {
					held = true // the column is an array of such values
				}
			}
			if word := held && !hasPointers(elem); word != words[i] {
				t.Errorf("%s column %d (%s): an array of pointer-free %s: %v, want %v", layer.name, i, s.spec.Aggs[i].Name, elem, word, words[i])
			}
		}
	}
	for _, col := range []any{sl.ids, sl.rows} {
		if typ := reflect.TypeOf(col); hasPointers(typ.Elem()) {
			t.Errorf("a slice's %s column holds pointers", typ)
		}
	}
}

// TestRecycledColumnsPoisoned: under types.Poison (make poison) what a store
// or a view lets go of in its columns holds the sentinel — an expired slice's
// partials and the aggregates of a group that left a view — so a reader that
// still reads them fires garbage, not a quiet zero or the last state.
func TestRecycledColumnsPoisoned(t *testing.T) {
	if !types.Poison {
		t.Skip("the sentinel is written under -tags poison")
	}
	s := newStore(t, `SELECT url, count(*), sum(v), avg(v), stddev(v), min(v)
		FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(10 * second)
	poisoned := func(what string, accs []expr.Acc) {
		t.Helper()
		for i, a := range accs {
			fresh, err := expr.NewAcc(s.spec.Aggs[i])
			if err != nil {
				t.Fatal(err)
			}
			_ = fresh.Add(expr.Sentinel)
			if got, want := a.Result(), fresh.Result(); !got.Equal(want) {
				t.Errorf("%s, %s: %v, want the sentinel's %v", what, s.spec.Aggs[i].Name, got, want)
			}
		}
	}
	kept := func(cols []expr.Column, i int) (accs []expr.Acc) {
		for _, c := range cols {
			accs = append(accs, c.Acc(i))
		}
		return accs
	}
	insert(t, s, hit("/a", 1*second, 5))
	insert(t, s, hit("/a", 2*second, 7))
	partial := kept(s.slices[0].cols, 0)
	fire(t, v, 10*second, false)
	group := kept(v.cols, s.byID[0].id)
	s.Expire(10 * second)
	insert(t, s, hit("/b", 11*second, 1))
	fire(t, v, 20*second, false) // /a leaves the view
	poisoned("a group that left the view", group)
	s.Expire(20 * second) // [0, 10) expires
	poisoned("an expired slice's partial", partial)
}

// TestLanesSizedByType: a COUNT element is one word, and every SUM over a
// BIGINT, DOUBLE or INTERVAL argument two — a non-NULL count and the sum in
// the argument's own word — whatever the argument: a base stream's column, an
// expression (coalesce of a BIGINT and a DOUBLE sums in the DOUBLE lane), a
// derived stream's column (its CQ's declared type). A typed lane fed a value
// of another type refuses it, naming the sum.
func TestLanesSizedByType(t *testing.T) {
	schema := types.Schema{
		{Name: "k", Type: types.TypeString},
		{Name: "at", Type: types.TypeTimestamp},
		{Name: "i", Type: types.TypeInt},
		{Name: "f", Type: types.TypeFloat},
		{Name: "d", Type: types.TypeInterval},
	}
	s, spec := storeOver(t, schema, `SELECT k, count(*), count(i), sum(i), sum(f), sum(d), sum(coalesce(i, f))
		FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY k`)
	elem := func(spec expr.AggSpec) reflect.Type {
		c, err := expr.NewColumn(spec)
		if err != nil {
			t.Fatal(err)
		}
		c.Resize(1)
		return reflect.TypeOf(c.Acc(0)).Elem()
	}
	for i, want := range []uintptr{8, 8, 16, 16, 16, 16} {
		if size := elem(spec.Aggs[i]).Size(); size != want {
			t.Errorf("aggregate %d (%s): a %d B element, want %d", i, spec.Aggs[i].Name, size, want)
		}
	}
	if got, want := elem(spec.Aggs[5]), elem(spec.Aggs[3]); got != want {
		t.Errorf("sum(coalesce(i, f)) keeps a %v, want sum(f)'s %v", got, want)
	}

	cat := catalog.New()
	if err := cat.CreateDerivedStream(&catalog.DerivedStream{Name: "d", Schema: types.Schema{
		{Name: "k", Type: types.TypeString}, {Name: "v", Type: types.TypeInt}, {Name: "at", Type: types.TypeTimestamp},
	}, CloseCol: 2}); err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(`SELECT k, sum(v) FROM d <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := (&plan.Planner{Cat: cat}).BuildSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := elem(p.StreamAgg.Aggs[0]), elem(spec.Aggs[2]); got != want {
		t.Errorf("sum over a derived stream's BIGINT column keeps a %v, want sum(i)'s %v", got, want)
	}

	err = s.Insert(types.Row{types.NewString("/a"), types.NewTimestampMicros(second), types.NewFloat(1.5), types.Null, types.Null}, second)
	if err == nil || !strings.Contains(err.Error(), "sum") {
		t.Errorf("a BIGINT lane fed a DOUBLE: %v, want an error naming the sum", err)
	}
}
