package ivm

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"streamrel/internal/catalog"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// newStore plans q over stream s (url varchar, at timestamp CQTIME, v
// bigint) and returns the store its plan would attach to, with the
// strategy plan.WindowState picks.
func newStore(t *testing.T, q string) *Store {
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
	key, strategy, reason := p.WindowState(plan.StateAuto)
	if key == "" {
		t.Fatalf("plan keeps no store: %s", reason)
	}
	s, err := New(p.StreamAgg, p.Stream.Window.Advance, strategy == plan.Materialized)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

const second = 1_000_000

func hit(url string, ts, v int64) types.Row {
	return types.Row{types.NewString(url), types.NewTimestampMicros(ts), types.NewInt(v)}
}

func insert(t *testing.T, s *Store, r types.Row) {
	t.Helper()
	if err := s.Insert(r, r[1].TimestampMicros()); err != nil {
		t.Fatal(err)
	}
}

func fire(t *testing.T, v *View, c int64) (string, int) {
	t.Helper()
	out, touched, err := v.Fire(c)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range out {
		sb.WriteString(r.String() + ";")
	}
	return sb.String(), touched
}

// TestInsertExistingGroupAllocatesNothing pins the maintenance cost of the
// common case — a row for a group its slice already holds: the filter,
// the group key and every aggregate argument are evaluated through the
// store's own expression context, and the slice's map is probed with key
// bytes in a reused buffer.
func TestInsertExistingGroupAllocatesNothing(t *testing.T) {
	s := newStore(t, `SELECT url, count(*), sum(v), avg(v), min(v), max(v)
		FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> WHERE v >= 0 GROUP BY url`)
	v := s.Attach(30 * second)
	rows := []types.Row{hit("/a", 1*second, 5), hit("/b", 2*second, 7), hit("/a", 3*second, -1)}
	for _, r := range rows { // births: slice, groups, accumulators
		insert(t, s, r)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range rows {
			insert(t, s, r)
		}
	})
	if allocs != 0 {
		t.Errorf("Insert into an existing (slice, group) allocates %.1f times per 3 rows, want 0", allocs)
	}
	// 1 + 101 runs of AllocsPerRun (it warms up once) fold each row in.
	if got, touched := fire(t, v, 10*second); got != "/a|102|510|5.0|5|5;/b|102|714|7.0|7|7;" || touched != 2 {
		t.Errorf("fire = %s (touched %d)", got, touched)
	}
}

// TestFirstTouchAllocsAmortized pins the other case — the first row of a
// group in a slice, and the first slice of a group in a window: the
// partial (or window group), its accumulator list and its accumulators are
// carved from the slice's (or view's) slab, so a slice of 1000 groups
// costs a few chunk refills and one presized map, not 4 objects per group.
func TestFirstTouchAllocsAmortized(t *testing.T) {
	const groups = 1000
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(10 * second) // tumbling: the window layer is rebuilt at every close
	rows := make([]types.Row, groups)
	mallocs := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	var inserts, fires float64
	const slices = 20
	for k := int64(0); k <= slices; k++ {
		for i := range rows {
			rows[i] = hit("/page/"+strconv.Itoa(i), k*10*second+int64(i), 1)
		}
		ins := mallocs(func() {
			for _, r := range rows {
				insert(t, s, r)
			}
		})
		fired := mallocs(func() {
			if out, _, err := v.Fire((k + 1) * 10 * second); err != nil || len(out) != groups {
				t.Fatalf("fire %d: %d rows, %v", k, len(out), err)
			}
		})
		s.Expire((k + 1) * 10 * second)
		if k > 0 { // slice 0 also makes the groups themselves and sizes nothing from a predecessor
			inserts += ins
			fires += fired
		}
	}
	perInsert, perFire := inserts/(slices*groups), fires/(slices*groups)
	t.Logf("allocations per first-touched (slice, group): %.3f; per (window, group): %.3f", perInsert, perFire)
	if perInsert > 0.1 || perFire > 0.1 {
		t.Errorf("first touch allocates %.3f per (slice, group) and %.3f per (window, group), want ≤ 0.1", perInsert, perFire)
	}
}

// TestGroupLifecycle: NULL is a group like any other, a group leaves a
// view with its last slice and the store with its last retained partial,
// and its re-creation does not disturb the slices still holding the key.
func TestGroupLifecycle(t *testing.T) {
	s := newStore(t, `SELECT url, count(*) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(20 * second)
	null := func(ts int64) types.Row {
		return types.Row{types.Null, types.NewTimestampMicros(ts), types.NewInt(1)}
	}
	insert(t, s, hit("/a", 1*second, 1))
	insert(t, s, null(2*second))
	if got, _ := fire(t, v, 10*second); got != "NULL|1;/a|1;" {
		t.Fatalf("window [-10,10) = %q", got)
	}
	s.Expire(10 * second)
	insert(t, s, hit("/a", 12*second, 1))
	if got, touched := fire(t, v, 20*second); got != "NULL|1;/a|2;" || touched != 1 {
		t.Fatalf("window [0,20) = %q (touched %d)", got, touched)
	}
	s.Expire(20 * second)
	insert(t, s, null(21*second))
	// Slice [20,30) refills the NULL group before slice [0,10) leaves it,
	// so it never dies; both groups changed.
	if got, touched := fire(t, v, 30*second); got != "NULL|1;/a|1;" || touched != 2 {
		t.Fatalf("window [10,30) = %q (touched %d)", got, touched)
	}
	s.Expire(30 * second)
	if got := s.SlicesN.Load(); got != 2 {
		t.Errorf("store retains %d slices after closing 30 s with a 20 s view, want [10,20) and [20,30)", got)
	}
	if got, _ := fire(t, v, 40*second); got != "NULL|1;" {
		t.Fatalf("window [20,40) = %q", got)
	}
	s.Expire(40 * second)
	if got := s.GroupsN.Load(); got != 1 {
		t.Errorf("store holds %d groups, want only NULL: /a's last partial is gone", got)
	}
}

// TestViewsEqualMergeOfRetainedSlices is the store's defining invariant:
// after any tape of inserts, boundary closes, attaches and detaches, what
// a long-lived materialized view fires equals what a view attached that
// instant — built from the retained slices in its extent — fires.
func TestViewsEqualMergeOfRetainedSlices(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := newStore(t, `SELECT url, count(*), sum(v), avg(v), min(v), max(v)
			FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`)
		views := []*View{s.Attach(30 * second)}
		ts, next := int64(0), int64(10*second)
		for step := 0; step < 80; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // a row, after closing every boundary it proves complete
				ts += int64(rng.Intn(4 * second))
				for ; next <= ts; next += 10 * second {
					for _, v := range views {
						got, _ := fire(t, v, next)
						fresh := s.Attach(v.visible)
						want, _ := fire(t, fresh, next)
						s.Detach(fresh)
						if got != want {
							t.Fatalf("seed %d close %d visible %d:\nview  %s\nmerge %s", seed, next/second, v.visible/second, got, want)
						}
					}
					s.Expire(next)
				}
				insert(t, s, hit([]string{"/a", "/b", "/c"}[rng.Intn(3)], ts, int64(rng.Intn(9))))
			case op < 8 && len(views) < 4:
				views = append(views, s.Attach(int64(rng.Intn(6)+1)*10*second))
			case len(views) > 1:
				i := rng.Intn(len(views))
				s.Detach(views[i])
				views = append(views[:i], views[i+1:]...)
			}
		}
		// One more close applies any retention a last detach shrank.
		widest := int64(0)
		for _, v := range views {
			fire(t, v, next)
			widest = max(widest, v.visible)
		}
		s.Expire(next)
		if got, bound := s.SlicesN.Load(), widest/(10*second)+2; got > bound {
			t.Fatalf("seed %d: %d slices retained for a widest view of %d", seed, got, widest/(10*second))
		}
	}
}

// TestSliceStartQuick: SliceStart is real floored division for any inputs.
func TestSliceStartQuick(t *testing.T) {
	f := func(a int64, b int64) bool {
		a, b = a/2, b%1000+1001 // positive divisor, no overflow at the edges
		q := SliceStart(a, b)
		return q%b == 0 && q <= a && q+b > a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
