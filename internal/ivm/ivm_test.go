package ivm

import (
	"testing"

	"streamrel/internal/catalog"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// compile plans q over stream s (url varchar, at timestamp CQTIME, v
// bigint) and returns its delta state.
func compile(t *testing.T, q string) *State {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.CreateStream("s", types.Schema{
		{Name: "url", Type: types.TypeString},
		{Name: "at", Type: types.TypeTimestamp},
		{Name: "v", Type: types.TypeInt},
	}, 1, false); err != nil {
		t.Fatal(err)
	}
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := (&plan.Planner{Cat: cat}).BuildSelect(stmt.(*sql.Select))
	if err != nil {
		t.Fatal(err)
	}
	s, reason := Compile(p)
	if s == nil {
		t.Fatalf("not delta-eligible: %s", reason)
	}
	return s
}

const second = 1_000_000

func hit(url string, ts, v int64) types.Row {
	return types.Row{types.NewString(url), types.NewTimestampMicros(ts), types.NewInt(v)}
}

// TestInsertExistingGroupAllocatesNothing pins the maintenance cost of the
// common case — a row for a group its slice already holds: the filter,
// the group key and every aggregate argument are evaluated through the
// state's own expression context, and the slice map, window map and dirty
// set are probed with key bytes in a reused buffer.
func TestInsertExistingGroupAllocatesNothing(t *testing.T) {
	s := compile(t, `SELECT url, count(*), sum(v), avg(v), min(v), max(v)
		FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> WHERE v >= 0 GROUP BY url`)
	rows := []types.Row{hit("/a", 1*second, 5), hit("/b", 2*second, 7), hit("/a", 3*second, -1)}
	for _, r := range rows { // births: slice, groups, accumulators
		if err := s.Insert(r, r[1].TimestampMicros()); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range rows {
			if err := s.Insert(r, r[1].TimestampMicros()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Insert into an existing (slice, group) allocates %.1f times per 3 rows, want 0", allocs)
	}
	out, touched, err := s.Fire()
	if err != nil {
		t.Fatal(err)
	}
	// 1 + 101 runs of AllocsPerRun (it warms up once) fold each row in.
	if got, want := types.Row(out[0]).String(), "/a|102|510|5.0|5|5"; got != want || touched != 2 {
		t.Errorf("fire = %s (touched %d), want %s (touched 2)", got, touched, want)
	}
}

// TestInsertGroupLifecycle: NULL is a group like any other, a group dies
// with its last slice, and its re-creation (a fresh window group and key
// string) does not disturb the slices still keyed with the old one.
func TestInsertGroupLifecycle(t *testing.T) {
	s := compile(t, `SELECT url, count(*) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	in := func(r types.Row) {
		t.Helper()
		if err := s.Insert(r, r[1].TimestampMicros()); err != nil {
			t.Fatal(err)
		}
	}
	fire := func() string {
		t.Helper()
		out, _, err := s.Fire()
		if err != nil {
			t.Fatal(err)
		}
		str := ""
		for _, r := range out {
			str += r.String() + ";"
		}
		return str
	}
	null := func(ts int64) types.Row {
		return types.Row{types.Null, types.NewTimestampMicros(ts), types.NewInt(1)}
	}
	in(hit("/a", 1*second, 1))
	in(null(2 * second))
	in(hit("/a", 12*second, 1))
	if got, want := fire(), "NULL|1;/a|2;"; got != want {
		t.Fatalf("window [0,20) = %q, want %q", got, want)
	}
	if err := s.Expire(10 * second); err != nil { // slice [0,10) leaves: NULL group dies
		t.Fatal(err)
	}
	in(null(21 * second))
	if got, want := fire(), "NULL|1;/a|1;"; got != want {
		t.Fatalf("window [10,30) = %q, want %q", got, want)
	}
}
