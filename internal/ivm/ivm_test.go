package ivm

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"streamrel/internal/catalog"
	"streamrel/internal/expr"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/types"
)

// newStore plans q over stream s (url varchar, at timestamp CQTIME, v
// bigint) and returns the store its plan would attach to.
func newStore(t testing.TB, q string) *Store {
	t.Helper()
	s, _ := storeOver(t, types.Schema{
		{Name: "url", Type: types.TypeString},
		{Name: "at", Type: types.TypeTimestamp},
		{Name: "v", Type: types.TypeInt},
	}, q)
	return s
}

// storeOver plans q over stream s of the schema, its CQTIME column the
// second, and returns the store its plan would attach to and the plan's
// aggregate spec.
func storeOver(t testing.TB, schema types.Schema, q string) (*Store, *plan.StreamAgg) {
	t.Helper()
	cat := catalog.New()
	if _, err := cat.CreateStream("s", schema, 1, false); err != nil {
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
	if key, reason := p.WindowState(plan.StateAuto); key == "" {
		t.Fatalf("plan keeps no store: %s", reason)
	}
	s, err := New(p.StreamAgg, p.Stream.Window.Advance, plan.PairOffset(p.Stream.Window))
	if err != nil {
		t.Fatal(err)
	}
	return s, p.StreamAgg
}

const second = 1_000_000

var racing bool // race_test.go

// modes are the schedules an equivalence suite reads its views under: whether
// the k-th close's frame is lent back in, at the next close as a CQ's reader
// hands it back, or kept out. mixed keeps two closes' frames and lends the
// next two, so a view writes into fresh frames and into frames one and two
// closes old.
var modes = []struct {
	name string
	lend func(k int) bool
}{
	{"out", func(int) bool { return false }},
	{"in", func(int) bool { return true }},
	{"mixed", func(k int) bool { return k/2%2 == 1 }},
}

// lent holds, by view, the frame fire lent last, handed back at the view's
// next fire.
var lent = map[*View]*Frame{}

func hit(url string, ts, v int64) types.Row {
	return types.Row{types.NewString(url), types.NewTimestampMicros(ts), types.NewInt(v)}
}

func insert(t *testing.T, s *Store, r types.Row) {
	t.Helper()
	if err := s.Insert(r, r[1].TimestampMicros()); err != nil {
		t.Fatal(err)
	}
}

// fire closes c and renders the view's rows, then hands back the frame of
// the view's last close if it was lent, and lends this one or keeps it.
func fire(t *testing.T, v *View, c int64, lend bool) (string, int) {
	t.Helper()
	f, touched, _, err := v.Fire(c)
	if err != nil {
		t.Fatal(err)
	}
	lent[v].Release()
	if delete(lent, v); lend {
		lent[v] = f
	}
	return render(f.Rows), touched
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
	if got, touched := fire(t, v, 10*second, false); got != "/a|102|510|5.0|5|5;/b|102|714|7.0|7|7;" || touched != 2 {
		t.Errorf("fire = %s (touched %d)", got, touched)
	}
}

// mallocs and bytes allocated while f runs.
func allocated(f func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// leastOfThree runs round, which measures the same closes, three times and
// returns the least mallocs and bytes it read. allocated counts the whole
// process, so the rest of a loaded host's test binary can add to a round
// (make alloc-pins read 5 allocations in 20 closes that allocate nothing);
// what the closes allocate is the same every round, so the least is theirs.
func leastOfThree(round func() (mallocs, bytes float64)) (mallocs, bytes float64) {
	mallocs, bytes = math.Inf(1), math.Inf(1)
	for range 3 {
		m, b := round()
		mallocs, bytes = min(mallocs, m), min(bytes, b)
	}
	return mallocs, bytes
}

// allocsPerClose runs step, one close, n times and returns the allocations
// a close, counted over all n (the least of three such runs): testing.AllocsPerRun
// divides in integers, so a cost below one allocation a close — a 4-allocation
// slab chunk every 16 closes — would read 0. Callers turn the collector off, so
// a cycle starting inside a close does not count the runtime's own objects.
func allocsPerClose(n int, step func()) float64 {
	mallocs, _ := leastOfThree(func() (float64, float64) {
		return allocated(func() {
			for range n {
				step()
			}
		})
	})
	return mallocs / float64(n)
}

// maxAllocsPerClose is what "allocates nothing" allows a close: one
// allocation in twenty closes, under the 0.25 of a slab chunk every 16.
const maxAllocsPerClose = 0.05

// TestFirstTouchAllocsAmortized pins the other case — the first row of a
// group in a slice, and the first slice of a group in a window: the
// partial (or window group) is a position in the slice's (or the view's)
// columns, which grow by doubling, so a slice of 1000 groups costs a few
// regrowths and one presized map, not 4 objects per group.
func TestFirstTouchAllocsAmortized(t *testing.T) {
	const groups = 1000
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(10 * second) // tumbling: the window layer is rebuilt at every close
	rows := make([]types.Row, groups)
	var inserts, fires float64
	const slices = 20
	for k := int64(0); k <= slices; k++ {
		for i := range rows {
			rows[i] = hit("/page/"+strconv.Itoa(i), k*10*second+int64(i), 1)
		}
		ins, _ := allocated(func() {
			for _, r := range rows {
				insert(t, s, r)
			}
		})
		fired, _ := allocated(func() {
			if f, _, _, err := v.Fire((k + 1) * 10 * second); err != nil || len(f.Rows) != groups {
				t.Fatalf("fire %d: %v", k, err)
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

// TestSliceRecycleAllocs: an expired slice is the next slice, so once a store
// has cycled one retention, opening a slice, filling it with every group and
// expiring the slice one retention back allocates nothing — for every kind of
// accumulator, on a plain store and on a paired one (two slices an ADVANCE).
// A DISTINCT set still makes one key string per value it takes, as it does on
// a fresh slice (and one more for the sentinel under types.Poison); nothing
// else.
func TestSliceRecycleAllocs(t *testing.T) {
	const groups, cycles = 100, 20
	for _, agg := range []string{"count(*)", "count(v)", "sum(v)", "avg(v)", "min(v)", "max(v)",
		"stddev(v)", "first(v)", "last(v)", "count(DISTINCT v)"} {
		for _, visible := range []int64{30, 25} {
			s := newStore(t, fmt.Sprintf(`SELECT url, %s FROM s <VISIBLE '%d seconds' ADVANCE '10 seconds'> GROUP BY url`, agg, visible))
			s.Attach(visible * second)
			rows := make([]types.Row, 2*groups) // every group in both halves of an ADVANCE
			for i := range rows {
				rows[i] = hit("/page/"+strconv.Itoa(i%groups), 0, int64(i%groups))
			}
			k := int64(0)
			cycle := func() {
				for i, r := range rows {
					r[1] = types.NewTimestampMicros(k*10*second + int64(i/groups)*5*second + int64(i))
					insert(t, s, r)
				}
				k++
				s.Expire(k * 10 * second)
			}
			for k < 4 {
				cycle()
			}
			want := 0.0
			if strings.Contains(agg, "DISTINCT") {
				want = float64(groups) // one value per group and slice
				if s.offset != 0 {
					want *= 2
				}
				if types.Poison {
					want *= 2
				}
			}
			if got := testing.AllocsPerRun(cycles, cycle); got != want {
				t.Errorf("%s VISIBLE %d: a slice opened, filled and expired allocates %.1f times, want %.0f", agg, visible, got, want)
			}
			if got, want := s.SlicesN.Load(), map[int64]int64{30: 3, 25: 5}[visible]; got != want {
				t.Errorf("%s VISIBLE %d: %d slices retained, want %d", agg, visible, got, want)
			}
		}
	}
}

// TestIdleGroupRevives: under a tumbling window a group's last partial
// expires one boundary after its window closed; a key that recurs in the
// window after that finds its group idle, not gone, and costs nothing — the
// slice from a spare, the partial from its free list, the group itself kept
// — where re-creating it, even from the store's free list, builds its key
// string again.
func TestIdleGroupRevives(t *testing.T) {
	const groups, cycles = 100, 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	s.Attach(10 * second)
	var sets [2][]types.Row // alternate windows: every key is absent from one in two
	for i := 0; i < 2*groups; i++ {
		sets[i/groups] = append(sets[i/groups], hit("/page/"+strconv.Itoa(i), 0, 1))
	}
	k := int64(0)
	cycle := func() {
		for i, r := range sets[k%2] {
			r[1] = types.NewTimestampMicros(k*10*second + int64(i))
			insert(t, s, r)
		}
		k++
		s.Expire(k * 10 * second)
	}
	for k < 4 {
		cycle()
	}
	if per := allocsPerClose(cycles, cycle); per > maxAllocsPerClose {
		t.Errorf("a window of %d keys that were idle a boundary allocates %.2f times, want 0", groups, per)
	}
	if live, held := s.GroupsN.Load(), len(s.groups); live != groups || held != 2*groups {
		t.Errorf("%d live groups and %d held, want %d and %d (the idle ones)", live, held, groups, 2*groups)
	}
}

// TestNewGroupAllocs: a group the store drops goes onto its free list, key and
// key row cleared, and a key never seen before takes it, its key string carved
// from the store's chunk of key bytes. So once the store has cycled, a window
// of new keys costs a chunk now and then, a rehome's chunk and the map's churn:
// 0.01 a group, where a key string of its own cost each one allocation, and
// re-creating the group its struct and key row besides.
func TestNewGroupAllocs(t *testing.T) {
	const groups, warm, cycles = 100, 5, 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	s.Attach(10 * second)
	windows := make([][]types.Row, warm+cycles+1) // AllocsPerRun runs once more to warm up
	for k := range windows {
		for i := 0; i < groups; i++ {
			windows[k] = append(windows[k], hit("/page/"+strconv.Itoa(k*groups+i), int64(k)*10*second+int64(i), 1))
		}
	}
	k := 0
	cycle := func() {
		for _, r := range windows[k] {
			insert(t, s, r)
		}
		k++
		s.Expire(int64(k) * 10 * second)
	}
	for k < warm {
		cycle()
	}
	if per := testing.AllocsPerRun(cycles, cycle) / groups; per > 0.1 {
		t.Errorf("a new group costs %.3f allocations, want ≤ 0.1: its share of a key chunk", per)
	}
}

// TestStoreGroupChurnAllocs: a dropped group waits on the store's free list
// until more than twice the groups held were made, not one boundary. Each
// tumbling window holds 1 000 steady keys and one of four rotating sets of 2,
// 4, 6 and 8 keys, dropped two boundaries after its window, so the 2-key set
// is what the 8-key window finds freed. Kept one boundary, the free list made
// that window 6 groups and their key rows; now a close whose frame comes back costs a key
// chunk now and then.
func TestStoreGroupChurnAllocs(t *testing.T) {
	const steady, closes = 1000, 60
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newStore(t, `SELECT url, count(*) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(10 * second)
	var windows [4][]types.Datum
	for w := range windows {
		for i := range steady + 2*(w+1) {
			key := "/steady/" + strconv.Itoa(i)
			if i >= steady {
				key = "/set" + strconv.Itoa(w) + "/" + strconv.Itoa(i)
			}
			windows[w] = append(windows[w], types.NewString(key))
		}
	}
	k, row := int64(0), make(types.Row, 3) // Insert keeps no row
	cycle := func() {
		urls := windows[k%4]
		for i, u := range urls {
			row[0], row[1], row[2] = u, types.NewTimestampMicros(k*10*second+int64(i)), types.NewInt(k)
			insert(t, s, row)
		}
		k++
		f, _, _, err := v.Fire(k * 10 * second)
		if err != nil || len(f.Rows) != len(urls) {
			t.Fatalf("close %d: %v", k, err)
		}
		f.Release()
		s.Expire(k * 10 * second)
	}
	for k < 9 {
		cycle()
	}
	if per := allocsPerClose(closes, cycle); per > maxAllocsPerClose {
		t.Errorf("a tumbling close under key churn allocates %.3f times, want ≤ %v", per, maxAllocsPerClose)
	}
}

// TestTumblingRebuildAllocs: a tumbling view's window is the next window — its
// rebuild resets the last window's groups in the view's columns, where the new
// window's groups take them again — so over a steady key set a close whose
// frame comes back allocates nothing, Insert, Fire and Expire together. Each close's
// count and sum are checked: a group reused unreset would carry its last one.
func TestTumblingRebuildAllocs(t *testing.T) {
	const groups, closes = 1000, 20
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(10 * second)
	urls := make([]types.Datum, groups)
	for i := range urls {
		urls[i] = types.NewString("/page/" + strconv.Itoa(i))
	}
	k, row := int64(0), make(types.Row, 3) // Insert keeps no row
	cycle := func() {
		for i, u := range urls {
			row[0], row[1], row[2] = u, types.NewTimestampMicros(k*10*second+int64(i)), types.NewInt(k)
			insert(t, s, row)
		}
		k++
		f, _, _, err := v.Fire(k * 10 * second)
		if err != nil || len(f.Rows) != groups || f.Rows[0][1].Int() != 1 || f.Rows[0][2].Int() != k-1 {
			t.Fatalf("close %d: %d rows, first %v, %v", k, len(f.Rows), f.Rows[0], err)
		}
		f.Release()
		s.Expire(k * 10 * second)
	}
	for k < 4 {
		cycle()
	}
	if per := allocsPerClose(closes, cycle); per > maxAllocsPerClose {
		t.Errorf("a tumbling close over %d steady keys allocates %.2f times, want 0", groups, per)
	}
}

// TestGroupLifecycle: NULL is a group like any other, a group leaves a
// view with its last slice and the store with its last retained partial,
// and its re-creation does not disturb the slices still holding the key.
func TestGroupLifecycle(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) { groupLifecycle(t, m.lend) })
	}
}

func groupLifecycle(t *testing.T, lend func(k int) bool) {
	s := newStore(t, `SELECT url, count(*) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(20 * second)
	null := func(ts int64) types.Row {
		return types.Row{types.Null, types.NewTimestampMicros(ts), types.NewInt(1)}
	}
	insert(t, s, hit("/a", 1*second, 1))
	insert(t, s, null(2*second))
	if got, _ := fire(t, v, 10*second, lend(1)); got != "NULL|1;/a|1;" {
		t.Fatalf("window [-10,10) = %q", got)
	}
	s.Expire(10 * second)
	insert(t, s, hit("/a", 12*second, 1))
	if got, touched := fire(t, v, 20*second, lend(2)); got != "NULL|1;/a|2;" || touched != 1 {
		t.Fatalf("window [0,20) = %q (touched %d)", got, touched)
	}
	s.Expire(20 * second)
	insert(t, s, null(21*second))
	// Slice [20,30) refills the NULL group before slice [0,10) leaves it,
	// so it never dies; both groups changed.
	if got, touched := fire(t, v, 30*second, lend(3)); got != "NULL|1;/a|1;" || touched != 2 {
		t.Fatalf("window [10,30) = %q (touched %d)", got, touched)
	}
	s.Expire(30 * second)
	if got := s.SlicesN.Load(); got != 2 {
		t.Errorf("store retains %d slices after closing 30 s with a 20 s view, want [10,20) and [20,30)", got)
	}
	if got, _ := fire(t, v, 40*second, lend(4)); got != "NULL|1;" {
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
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) { viewsEqualMerge(t, m.lend) })
	}
}

func viewsEqualMerge(t *testing.T, lend func(k int) bool) {
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
						got, _ := fire(t, v, next, lend(int(next/(10*second))))
						fresh := s.Attach(v.visible)
						want, _ := fire(t, fresh, next, false)
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
			fire(t, v, next, false)
			widest = max(widest, v.visible)
		}
		s.Expire(next)
		if got, bound := s.SlicesN.Load(), widest/(10*second)+2; got > bound {
			t.Fatalf("seed %d: %d slices retained for a widest view of %d", seed, got, widest/(10*second))
		}
	}
}

// TestSliceStartQuick: SliceStart is real floored division for any inputs,
// to the last of a pair of cuts: k·advance and k·advance + offset.
func TestSliceStartQuick(t *testing.T) {
	f := func(a, b, o int64) bool {
		a, b = a/2, b%1000+1001 // positive divisor, no overflow at the edges
		o = (o%b + b) % b
		q := SliceStart(a, b, o)
		m := (q%b + b) % b
		next := q - m + b // the first cut after q
		if m == 0 && o > 0 {
			next = q + o
		}
		return (m == 0 || m == o) && q <= a && a < next && SliceStart(next, b, o) == next && SliceStart(next-1, b, o) == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// TestPairedWindowsEqualBruteForce is the store's answer for any (VISIBLE,
// ADVANCE) — coprime, VISIBLE below ADVANCE, a multiple of it — against the
// aggregate of the logged rows in [c − VISIBLE, c), accumulated one row at a
// time in arrival order: both edges of every window are cuts, two views of
// one remainder share the store, rows arrive before the epoch and late into
// the newest slice (a late row before it is an error, and left out of the
// log), MIN/MAX survive the slices that leave, groups leave and come back,
// and a detach shrinks what the store retains.
func TestPairedWindowsEqualBruteForce(t *testing.T) {
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) { pairedWindowsEqualBruteForce(t, m.lend) })
	}
}

func pairedWindowsEqualBruteForce(t *testing.T, lend func(k int) bool) {
	type logged struct {
		ts, v int64
		url   string
	}
	aggs := []string{"count", "sum", "avg", "min", "max"}
	paired, reentered, rejected := 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		advance := int64(rng.Intn(9)+2) * second
		visible := int64(rng.Intn(29)+1) * second
		s := newStore(t, fmt.Sprintf(`SELECT url, count(*), sum(v), avg(v), min(v), max(v)
			FROM s <VISIBLE '%d seconds' ADVANCE '%d seconds'> GROUP BY url`, visible/second, advance/second))
		if s.offset != 0 {
			paired++
		}
		views := []*View{s.Attach(visible), s.Attach(visible + int64(rng.Intn(3)+1)*advance)}
		var rows []logged
		was := map[string]int{} // in the first view's last window: 1 present, 2 gone
		brute := func(c, visible int64) string {
			byURL := map[string][]expr.Acc{}
			var urls []string
			for _, r := range rows {
				if r.ts < c-visible || r.ts >= c {
					continue
				}
				accs := byURL[r.url]
				if accs == nil {
					for _, name := range aggs {
						a, err := expr.NewAcc(expr.AggSpec{Name: name, Star: name == "count"})
						if err != nil {
							t.Fatal(err)
						}
						accs = append(accs, a)
					}
					byURL[r.url] = accs
					urls = append(urls, r.url)
				}
				for _, a := range accs {
					if err := a.Add(types.NewInt(r.v)); err != nil {
						t.Fatal(err)
					}
				}
			}
			sort.Strings(urls)
			var sb strings.Builder
			for _, u := range urls {
				row := types.Row{types.NewString(u)}
				for _, a := range byURL[u] {
					row = append(row, a.Result())
				}
				sb.WriteString(row.String() + ";")
			}
			return sb.String()
		}
		ts := -int64(rng.Intn(100)) * second
		next := SliceStart(ts, advance, 0) + advance
		closes, newest := 0, int64(math.MinInt64)
		closeTo := func(ts int64) {
			for ; next <= ts; next, closes = next+advance, closes+1 {
				for i, v := range views {
					if lo := next - v.visible; SliceStart(lo, advance, s.offset) != lo || SliceStart(next, advance, s.offset) != next {
						t.Fatalf("seed %d: window [%d, %d) of %d/%d does not end on cuts", seed, lo, next, v.visible, advance)
					}
					got, _ := fire(t, v, next, lend(closes))
					if want := brute(next, v.visible); got != want {
						t.Fatalf("seed %d close %d VISIBLE %d ADVANCE %d:\nview  %s\nbrute %s", seed, next, v.visible, advance, got, want)
					}
					if i > 0 {
						continue
					}
					for u, state := range was {
						if state == 1 && !strings.Contains(got, u+"|") {
							was[u] = 2
						}
					}
					for _, u := range []string{"/a", "/b", "/rare"} {
						if strings.Contains(got, u+"|") {
							if was[u] == 2 {
								reentered++
							}
							was[u] = 1
						}
					}
				}
				s.Expire(next)
			}
		}
		for step := 0; step < 120; step++ {
			ts += int64(rng.Intn(int(advance)))
			closeTo(ts)
			r := logged{ts: ts, v: int64(rng.Intn(19) - 9), url: []string{"/a", "/a", "/b", "/b", "/b", "/rare"}[rng.Intn(6)]}
			if rng.Intn(8) == 0 { // late, into a slice not yet closed
				r.ts = max(next-advance, ts-int64(rng.Intn(int(advance))))
			}
			err := s.Insert(hit(r.url, r.ts, r.v), r.ts)
			switch start := SliceStart(r.ts, advance, s.offset); {
			case start < newest:
				if err == nil {
					t.Fatalf("seed %d: a row at %d, before the newest slice at %d, was taken", seed, r.ts, newest)
				}
				rejected++
			case err != nil:
				t.Fatal(err)
			default:
				rows, newest = append(rows, r), start
			}
			if step == 80 {
				s.Detach(views[1])
				views = views[:1]
			}
		}
		closeTo(next)
		// Every cut in (c − VISIBLE − ADVANCE, c], at most two an ADVANCE.
		if got, bound := s.SlicesN.Load(), 2*(visible/advance+2); got > bound {
			t.Fatalf("seed %d: %d slices retained for VISIBLE %d ADVANCE %d after the wider view left", seed, got, visible, advance)
		}
	}
	if paired < 100 || reentered == 0 || rejected == 0 {
		t.Errorf("%d paired stores, %d groups re-entered a window, %d rows before the newest slice: the tape missed one",
			paired, reentered, rejected)
	}
}

// TestPairedFireAllocs: a close of a paired store adds two slices and
// retracts two, and writes into the frame its reader handed back, so it
// allocates nothing. (Under -race the count reads above 0, the detector's own
// allocations in the window; make alloc-pins runs it without.)
func TestPairedFireAllocs(t *testing.T) {
	const groups, closes = 1000, 50
	// A collection cycle that starts inside a fire counts the runtime's own
	// objects (0.12–0.16 a close in about half the runs, exactly 0 under
	// GOGC=off): the pin is on what the fire allocates.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '25 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(25 * second)
	k := int64(0)
	closeOnce := func() (mallocs float64) { // what the fire allocates
		for i := 0; i < 2*groups; i++ {
			insert(t, s, hit("/page/"+strconv.Itoa(i%groups), k*10*second+int64(i/groups)*5*second, 1))
		}
		mallocs, _ = allocated(func() {
			f, touched, _, err := v.Fire((k + 1) * 10 * second)
			if err != nil || len(f.Rows) != groups || touched != groups {
				t.Fatalf("fire %d: %d touched, %v", k, touched, err)
			}
			f.Release()
		})
		s.Expire((k + 1) * 10 * second)
		if got := s.SlicesN.Load(); k >= 4 && got != 5 {
			t.Fatalf("close %d: %d slices retained, want the five of [c − 25 s, c)", k, got)
		}
		k++
		return mallocs
	}
	for k < 4 {
		closeOnce()
	}
	mallocs, _ := leastOfThree(func() (mallocs, _ float64) {
		for range closes {
			mallocs += closeOnce()
		}
		return mallocs, 0
	})
	if per := mallocs / closes; per > 0.1 && !racing {
		t.Errorf("a paired close allocates %.2f times, want 0", per)
	}
}

// TestRetractRebuildAllocsAmortized: MIN, MAX, stddev, first, last and a
// DISTINCT count have no inverse, so a slice leaving the window rebuilds them
// for every group it held; each is reset and re-merged in place, not
// allocated afresh.
func TestRetractRebuildAllocsAmortized(t *testing.T) {
	const groups, closes = 1000, 20
	for _, aggs := range []string{"min(v), max(v)", "stddev(v)", "first(v)", "last(v)", "count(DISTINCT v)"} {
		s := newStore(t, `SELECT url, `+aggs+` FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`)
		v := s.Attach(30 * second)
		var fires float64
		for k := int64(0); k < 3+closes; k++ {
			for i := 0; i < groups; i++ {
				insert(t, s, hit("/page/"+strconv.Itoa(i), k*10*second+int64(i), k+int64(i)))
			}
			n, _ := allocated(func() {
				f, touched, _, err := v.Fire((k + 1) * 10 * second)
				if err != nil || len(f.Rows) != groups || touched != groups {
					t.Fatalf("%s fire %d: %d touched, %v", aggs, k, touched, err)
				}
				f.Release()
			})
			s.Expire((k + 1) * 10 * second)
			if k >= 3 { // from here every close retracts a slice of every group
				fires += n
			}
		}
		rebuilt := float64(closes * groups * len(s.remerge))
		t.Logf("%s: %.3f allocations a rebuilt accumulator", aggs, fires/rebuilt)
		if per := fires / rebuilt; per > 0.1 {
			t.Errorf("a rebuilt %s accumulator costs %.3f allocations, want ≤ 0.1", aggs, per)
		}
	}
}

// steadyView builds a sliding count/sum view over `groups` groups in which
// every close changes exactly `touched` of them and none enters or leaves:
// a slice holds touched/2 consecutive groups, the groups come round every
// `period` slices and the window spans a period and a half, so each group is
// in it once or twice, and the slice entering and the slice leaving are half
// a period apart. It returns the view warmed up past its first full window,
// and what feeds the next slice and what then closes it, reporting the rows,
// the groups touched and the rows written; when lend, each close's frame is
// handed back at once, else kept.
func steadyView(t *testing.T, groups, touched int, lend bool) (v *View, feed func(), fire func() ([]types.Row, int, int)) {
	t.Helper()
	perSlice := touched / 2
	period := groups / perSlice
	visible := period + period/2
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '`+strconv.Itoa(visible)+
		` seconds' ADVANCE '1 second'> GROUP BY url`)
	v = s.Attach(int64(visible) * second)
	urls := make([]types.Datum, groups)
	for i := range urls {
		urls[i] = types.NewString("/page/" + strconv.Itoa(i))
	}
	k, row := 0, make(types.Row, 3) // Insert keeps no row
	feed = func() {
		for j := 0; j < perSlice; j++ {
			ts := int64(k)*second + int64(j)
			row[0], row[1], row[2] = urls[(k*perSlice+j)%groups], types.NewTimestampMicros(ts), types.NewInt(int64(k))
			insert(t, s, row)
		}
		k++
	}
	fire = func() ([]types.Row, int, int) {
		f, touched, written, err := v.Fire(int64(k) * second)
		if err != nil {
			t.Fatal(err)
		}
		if s.Expire(int64(k) * second); lend {
			f.Release()
		}
		return f.Rows, touched, written
	}
	for k < 2*period {
		feed()
		fire()
	}
	return v, feed, fire
}

// TestFireAllocsFollowTouched is the cost of a close whose reader keeps its
// frame: the view writes the next close into a fresh one — three allocations,
// the frame, its slots and its rows' container, 24 B of row header and a row
// of datums a group, every row written — and nothing else per group; 10 000
// groups of which 100 change. A frame lent back instead costs nothing
// (TestInPlaceFireAllocs).
func TestFireAllocsFollowTouched(t *testing.T) {
	const groups, touched, closes = 10000, 100, 200
	_, feed, fire := steadyView(t, groups, touched, false)
	mallocs, bytes := leastOfThree(func() (mallocs, bytes float64) {
		for i := 0; i < closes; i++ {
			feed()
			var rows []types.Row
			var changed, written int
			n, b := allocated(func() { rows, changed, written = fire() })
			if len(rows) != groups || changed != touched || written != groups {
				t.Fatalf("close %d: %d rows, %d touched, %d written", i, len(rows), changed, written)
			}
			mallocs, bytes = mallocs+n, bytes+b
		}
		return mallocs, bytes
	})
	// The runtime's own occasional allocation (a GC cycle starting inside a
	// close) is the 0.1; one more per close, per chunk or per group is not.
	if per := mallocs / closes; per > 3.1 {
		t.Errorf("a close allocates %.2f times, want 3: the frame, its slots and its container", per)
	}
	const rowBytes = float64(3 * unsafe.Sizeof(types.Datum{})) // url, count, sum
	// Size classes round the 240 kB container and the 480 kB slots up by ≤ 3 %.
	limit := 1.03 * (24 + rowBytes) * groups
	per := bytes / closes
	t.Logf("%.0f B per close of %d groups, %d touched", per, groups, touched)
	if per > limit {
		t.Errorf("a close allocates %.0f B, want ≤ %.0f ((24 + %.0f) B × %d groups)", per, limit, rowBytes, groups)
	}
}

// TestInPlaceFireAllocs: a close whose reader hands its frame back writes the
// next close into it, rewriting the rows of the groups the close touched and
// no other: over a steady window it allocates nothing. What the
// bound lets through is the runtime's: retract's assertion to
// expr.Retractable, on one miss in about a thousand, rebuilds its call
// site's type cache until the cache holds every accumulator type the site
// sees — two caches here, 48 and 80 B, in 0 to 2 of a run's closes (an
// allocation profile of this test's closes shows nothing else).
func TestInPlaceFireAllocs(t *testing.T) {
	const groups, touched, closes = 1000, 100, 100
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	_, feed, fire := steadyView(t, groups, touched, true)
	per := allocsPerClose(closes, func() {
		feed()
		want := touched // under types.Poison a frame handed back is written whole
		if types.Poison {
			want = groups
		}
		if rows, changed, written := fire(); len(rows) != groups || changed != touched || written != want {
			t.Fatalf("%d rows, %d touched, %d written", len(rows), changed, written)
		}
	})
	if per > maxAllocsPerClose {
		t.Errorf("a close into a lent-back frame over a steady window allocates %.2f times, want 0", per)
	}
}

// TestSlidingChurnAllocs: a sliding close where k groups leave and k arrive
// recycles the window groups of those that left for those that arrive, and
// writes into the frame handed back, so it allocates nothing, Insert, Fire and
// Expire together;
// and it places them by binary search, so it compares keys O((k+r)·log n)
// times for k newcomers and r departures into n groups, not once a group. A
// cohort of k keys, spread across 4 000 steady ones, comes every 21 slices
// into a 20-slice window: it leaves one close, idles a boundary in the store,
// and comes back the next.
func TestSlidingChurnAllocs(t *testing.T) {
	const stable, period, k, window, closes = 4000, 10, 16, 20, 100
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	compares := 0
	defer func(f func(a, b *group) int) { byKey = f }(byKey)
	compare := byKey
	byKey = func(a, b *group) int { compares++; return compare(a, b) }
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '`+strconv.Itoa(window)+` seconds' ADVANCE '1 second'> GROUP BY url`)
	v := s.Attach(window * second)
	steady, churn := make([]types.Datum, stable), make([]types.Datum, (window+1)*k)
	for i := range steady {
		steady[i] = types.NewString("/page/" + strconv.Itoa(i))
	}
	for i := range churn { // cohort i%(window+1), spread across the steady keys
		churn[i] = types.NewString("/page/" + strconv.Itoa(i*stable/len(churn)) + "x")
	}
	at, row := int64(0), make(types.Row, 3) // Insert keeps no row
	n := stable + window*k
	add := func(u types.Datum) {
		row[0], row[1], row[2] = u, types.NewTimestampMicros(at*second+1), types.NewInt(at)
		insert(t, s, row)
	}
	step := func() {
		for i := int(at) % period; i < stable; i += period {
			add(steady[i])
		}
		for i := int(at) % (window + 1); i < len(churn); i += window + 1 {
			add(churn[i])
		}
		at++
		compares = 0
		f, touched, _, err := v.Fire(at * second)
		if err != nil || len(f.Rows) != n && at > window {
			t.Fatalf("close %d: %d rows, want %d: %v", at, len(f.Rows), n, err)
		}
		f.Release()
		s.Expire(at * second)
		if limit := 2 * (k + k) * bits.Len(uint(n)); at > window+1 && compares > limit {
			t.Fatalf("close %d: %d keys compared for %d arrivals and departures into %d groups (%d touched), want ≤ %d",
				at, compares, 2*k, n, touched, limit)
		}
	}
	for at < 3*window {
		step()
	}
	// Counted over all the closes, not per close (testing.AllocsPerRun rounds
	// down): a regrowth of the columns for the newcomers would be a few
	// allocations in many closes.
	if got := allocsPerClose(closes, step) * closes; got != 0 {
		t.Errorf("%d sliding closes where %d groups leave and %d arrive allocate %.0f times, want 0", closes, k, k, got)
	}
}

// TestViewRowMemoryBounded: what a view's rows keep reachable is its frames.
// A skewed stream has a hot head and a long cold tail, so groups sit in the
// window unchanged for as long as it spans, leave and arrive; its reader
// hands each close's frame back when it takes the next, as a CQ's reader
// does. Over 500 closes two frames serve every close, each row is a slot of
// its close's frame, a frame's slots are at most twice the view's columns
// long, and a group that left holds nothing in the frames written after: the
// memory is the frames in flight times the view's column length.
func TestViewRowMemoryBounded(t *testing.T) {
	const keys, perSlice, closes, width = 4000, 300, 500, 3
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '40 seconds' ADVANCE '1 second'> GROUP BY url`)
	v := s.Attach(40 * second)
	rng := rand.New(rand.NewSource(11))
	frames := map[*Frame]bool{}
	var held *Frame
	var left *group
	leftAt := -1 // the close it left at
	for k := 0; k < closes; k++ {
		for j := 0; j < perSlice; j++ {
			u := rng.Float64()
			key := int(u * u * u * keys) // cubic skew: a hot head, a long cold tail
			insert(t, s, hit("/page/"+strconv.Itoa(key), int64(k)*second+int64(j), 1))
		}
		if left == nil && k > 50 {
			// The coldest group with a single slice in the window — under the
			// cubic skew the largest key — will leave.
			colder := func(a, b string) bool { return len(a) > len(b) || (len(a) == len(b) && a > b) }
			held := map[int32]int{} // retained slices holding each group
			for _, sl := range s.slices {
				for _, id := range sl.ids {
					held[id]++
				}
			}
			for _, id := range v.ordered {
				if g := s.byID[id]; held[id] == 1 && (left == nil || colder(g.key, left.key)) {
					left = g
				}
			}
		}
		f, _, _, err := v.Fire(int64(k+1) * second)
		if err != nil {
			t.Fatal(err)
		}
		held.Release()
		held, frames[f] = f, true
		if len(frames) > 2 {
			t.Fatalf("close %d: %d frames made, want 2: the one lent and the one written", k, len(frames))
		}
		if n := max(cap(v.wins), 1) * width; len(f.words) > 2*n {
			t.Fatalf("close %d: a frame of %d slots for columns of %d", k, len(f.words)/width, cap(v.wins))
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(f.words)))
		for _, r := range f.Rows {
			if p := uintptr(unsafe.Pointer(&r[0])); p < lo || p+width*unsafe.Sizeof(r[0]) > lo+uintptr(len(f.words))*unsafe.Sizeof(r[0]) {
				t.Fatalf("close %d: row %v is no slot of its frame", k, r)
			}
		}
		if left != nil && leftAt < 0 && v.wins[left.id].rows == 0 {
			leftAt = k
		}
		if leftAt >= 0 && k <= leftAt+2 && v.wins[left.id].rows == 0 {
			if d := f.words[int(left.id)*width]; d.Type() == types.TypeString {
				t.Fatalf("close %d: the frame holds %s, which left the window at close %d", k, d.Str(), leftAt)
			}
		}
		s.Expire(int64(k+1) * second)
	}
	if leftAt < 0 {
		t.Errorf("the group chosen to leave never left the window: %+v", left)
	}
}

// TestKeepsRows pins what a store says it may hold of the rows it is handed
// against the accumulators it keeps, for every aggregate, plain and DISTINCT:
// one with no exact inverse (expr.Retractable) may keep a datum it saw, so its
// store keeps rows; a store of invertible aggregates keeps none, whatever its
// group keys; a raw store keeps every row.
func TestKeepsRows(t *testing.T) {
	for _, name := range []string{"count", "sum", "avg", "min", "max", "stddev", "variance", "first", "last"} {
		if !expr.IsAggregate(name) {
			t.Fatalf("%s is no aggregate", name)
		}
		for _, distinct := range []string{"", "DISTINCT "} {
			acc, err := expr.NewAcc(expr.AggSpec{Name: name, Distinct: distinct != ""})
			if err != nil {
				t.Fatal(err)
			}
			_, inverse := acc.(expr.Retractable)
			s := newStore(t, fmt.Sprintf("SELECT url, %s(%sv) FROM s <VISIBLE '2 seconds' ADVANCE '1 second'> GROUP BY url", name, distinct))
			if s.KeepsRows() == inverse {
				t.Errorf("%s(%sv): KeepsRows %v, and the accumulator is retractable: %v", name, distinct, s.KeepsRows(), inverse)
			}
		}
	}
	if raw, _ := New(nil, second, 0); !raw.KeepsRows() {
		t.Error("a raw store keeps its rows")
	}
}
