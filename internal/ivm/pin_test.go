//go:build go1.24

package ivm

import (
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"streamrel/internal/types"
)

// TestStoreKeysPinNoBatch: a decoded row's strings are its whole batch's one
// string, so a group whose key row kept the strings of the row that created it
// would keep the batch reachable for as long as the group lives. A group's key
// row points into the group's own key string instead, and Insert keeps no row:
// once the batch is dropped, neither its values nor its strings are reachable.
func TestStoreKeysPinNoBatch(t *testing.T) {
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(30 * second)
	var buf []byte
	for i := 0; i < 64; i++ {
		buf = types.EncodeRow(buf, hit(fmt.Sprintf("/page/%d", i%8), int64(i)*second/8, int64(i)))
	}
	var strs types.RowStrings
	strs.Reset()
	for rest := buf; len(rest) > 0; {
		var err error
		if rest, err = strs.Decode(rest); err != nil {
			t.Fatal(err)
		}
	}
	rows := strs.Rows()
	values, bytes := weak.Make(&rows[0][0]), weak.Make(unsafe.StringData(rows[0][0].Str()))
	for _, r := range rows {
		insert(t, s, r)
	}
	rows = nil
	runtime.GC()
	runtime.GC()
	if values.Value() != nil || bytes.Value() != nil {
		t.Fatalf("the store keeps the decoded batch reachable: values %v, strings %v", values.Value() != nil, bytes.Value() != nil)
	}
	var want strings.Builder
	for g := 0; g < 8; g++ {
		fmt.Fprintf(&want, "/page/%d|8|%d;", g, 8*g+224)
	}
	if got, _ := fire(t, v, 10*second, false); got != want.String() {
		t.Fatalf("fire = %s, want %s", got, want.String())
	}
}

// TestRecycledSlicePinsNoBatch: a min(url) partial holds a string of the batch
// its row came from while its slice is live. Once the slice expires it waits as
// a spare for the next one, reset: it holds nothing of the batch.
func TestRecycledSlicePinsNoBatch(t *testing.T) {
	s := newStore(t, `SELECT url, min(url) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	s.Attach(10 * second)
	var strs types.RowStrings
	strs.Reset()
	for i := 0; i < 8; i++ { // strings past the tiny allocator's 16 bytes, which share blocks
		if _, err := strs.Decode(types.EncodeRow(nil, hit(fmt.Sprintf("/page/%d", i), 1*second, 1))); err != nil {
			t.Fatal(err)
		}
	}
	rows := strs.Rows()
	values, bytes := weak.Make(&rows[0][0]), weak.Make(unsafe.StringData(rows[0][0].Str()))
	for _, r := range rows {
		insert(t, s, r)
	}
	rows = nil
	sl := s.slices[0]
	s.Expire(20 * second) // the fire at 10 s retracted [0, 10)
	if s.spares.Len() != 1 || cap(sl.ids) == 0 {
		t.Fatalf("the expired slice is not a spare: %d spares", s.spares.Len())
	}
	runtime.GC()
	runtime.GC()
	if values.Value() != nil || bytes.Value() != nil {
		t.Fatalf("a spare keeps the decoded batch reachable: values %v, strings %v", values.Value() != nil, bytes.Value() != nil)
	}
	runtime.KeepAlive(s)
}

// TestRawStorePinsNoExpiredRow: a raw store holds a row in its slice's rows,
// and its view's window holds it from a fire to the next Expire. Once two
// closes have passed the row's slice, neither the view, nor the slice kept
// as a spare, nor the row array the next slice reuses keeps it reachable.
func TestRawStorePinsNoExpiredRow(t *testing.T) {
	s, err := New(nil, 10*second, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Attach(20 * second)
	insert(t, s, hit("/page/before", 1*second, 1))
	insert(t, s, hit("/page/before", 2*second, 2))
	row := hit("/page/pinned", 3*second, 3)
	data := weak.Make(&row[0])
	insert(t, s, row)
	row = nil
	gone := func() bool {
		runtime.GC()
		runtime.GC()
		return data.Value() == nil
	}
	closeAt := func(c int64, want int) {
		if rows, _, _, err := v.Fire(c, false); err != nil || len(rows) != want {
			t.Fatalf("window closing at %d s: %d rows, want %d (%v)", c/second, len(rows), want, err)
		}
		s.Expire(c)
	}
	closeAt(10*second, 3)
	insert(t, s, hit("/page/after", 11*second, 4))
	if gone() {
		t.Fatal("a row the next window reads is gone")
	}
	closeAt(20*second, 4)
	if s.spares.Len() != 1 || !gone() {
		t.Fatalf("the expired slice keeps its row reachable (%d spares)", s.spares.Len())
	}
	insert(t, s, hit("/page/after", 21*second, 5)) // opens from the spare: one of its three slots refilled
	if s.spares.Len() != 0 || !gone() {
		t.Fatalf("the reused row array keeps an expired row reachable (%d spares)", s.spares.Len())
	}
	runtime.KeepAlive(s)
}

// TestRecycledSliceMemoryBounded: a slice of 10 000 groups followed by slices
// of 10 is kept as a spare and opens a 10-group slice; when that one expires,
// holding far fewer than half the groups it was grown for, it is dropped. A
// burst is forgotten one retention after it expired.
func TestRecycledSliceMemoryBounded(t *testing.T) {
	const burst, steady = 10000, 10
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	s.Attach(30 * second)
	fill := func(k int64, groups int) {
		for i := 0; i < groups; i++ {
			insert(t, s, hit("/page/"+strconv.Itoa(i), k*10*second+int64(i), 1))
		}
	}
	fill(0, burst)
	chunk := weak.Make(&s.slices[0].ids[0]) // the burst slice's columns
	for k := int64(1); k <= 8; k++ {
		s.Expire(k * 10 * second)
		runtime.GC()
		switch alive := chunk.Value() != nil; {
		case k == 4 && (!alive || s.spares.Len() != 1):
			t.Fatalf("close %d: the burst slice expired and is not a spare (%d spares)", k, s.spares.Len())
		case k == 8 && alive:
			t.Fatalf("close %d: the burst slice's columns are reachable a retention after it expired", k)
		}
		fill(k, steady)
	}
	if got := s.GroupsN.Load(); got != steady {
		t.Errorf("store holds %d groups, want %d", got, steady)
	}
}

// TestRecycledSparesMemoryBounded: a detach that narrows retention expires
// five slices at one boundary. The next boundary opens one slice from them
// and drops the other four; the one it reused goes in its turn when it
// expires holding fewer than half the groups it was grown for.
func TestRecycledSparesMemoryBounded(t *testing.T) {
	s := newStore(t, `SELECT url, count(*) FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	s.Attach(30 * second)
	wide := s.Attach(70 * second)
	fill := func(k int64, groups int) {
		for i := 0; i < groups; i++ {
			insert(t, s, hit("/page/"+strconv.Itoa(i), k*10*second+int64(i), 1))
		}
	}
	for k := int64(0); k < 10; k++ {
		s.Expire(k * 10 * second)
		fill(k, 10)
	}
	var expiring []weak.Pointer[slice]
	for _, sl := range s.slices {
		if sl.start < 70*second {
			expiring = append(expiring, weak.Make(sl))
		}
	}
	alive := func() (n int) {
		runtime.GC()
		runtime.GC()
		for _, w := range expiring {
			if w.Value() != nil {
				n++
			}
		}
		return n
	}
	s.Detach(wide)
	s.Expire(100 * second)
	if len(expiring) != 5 || s.spares.Len() != 5 {
		t.Fatalf("%d slices expired at once, %d spares: want 5 and 5", len(expiring), s.spares.Len())
	}
	fill(10, 2)
	s.Expire(110 * second)
	if n := alive(); n != 1 {
		t.Fatalf("%d of the 5 slices expired a boundary ago are reachable, want the one reused", n)
	}
	for k := int64(11); k <= 13; k++ {
		fill(k, 2)
		s.Expire((k + 1) * 10 * second)
	}
	if n := alive(); n != 0 {
		t.Fatalf("the reused spare is reachable after it expired with 2 of its 10 groups")
	}
	runtime.KeepAlive(s) // the store, not its garbage, must be what keeps nothing
}

// TestIdleGroupsMemoryBounded: a group whose last partial expired waits idle
// for one boundary, in case its key recurs; one that does not is gone the
// boundary after, key string and all. The view fires in place, so the row
// the group held waits, cleared, on the view's free list.
func TestIdleGroupsMemoryBounded(t *testing.T) {
	s := newStore(t, `SELECT url, count(*) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(10 * second)
	insert(t, s, hit("/page/gone", 1*second, 1))
	key := weak.Make(unsafe.StringData(s.groups[types.Row{types.NewString("/page/gone")}.Key()].key))
	for k := int64(1); k <= 3; k++ {
		insert(t, s, hit("/page/stays", k*10*second-1, 1))
		if _, _, _, err := v.Fire(k*10*second, true); err != nil {
			t.Fatal(err)
		}
		s.Expire(k * 10 * second)
		runtime.GC()
		runtime.GC()
		switch alive := key.Value() != nil; {
		case k == 2 && (!alive || s.GroupsN.Load() != 1):
			t.Fatalf("boundary %d: the group idle since its last partial expired is gone, or counted live (%d live)", k, s.GroupsN.Load())
		case k == 3 && alive:
			t.Fatalf("boundary %d: the key string of a group that did not recur is reachable", k)
		}
	}
	runtime.KeepAlive(s)
}

// TestRecycledGroupsMemoryBounded: a group the store drops waits on its free
// list for the window's new keys until more than twice the groups it holds
// were made. A burst of 10 000 one-off keys idles a boundary, and at the next
// it is dropped with 10 010 groups made against 10 held, so the list goes at
// once and the burst is unreachable — group structs and key rows.
func TestRecycledGroupsMemoryBounded(t *testing.T) {
	const burst, steady = 10000, 10
	s := newStore(t, `SELECT url, count(*) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(10 * second)
	fill := func(k int64, prefix string, groups int) {
		for i := 0; i < groups; i++ {
			insert(t, s, hit(prefix+strconv.Itoa(i), k*10*second+int64(i), 1))
		}
	}
	fill(0, "/burst/", burst)
	var burstGroups []weak.Pointer[group]
	var burstKeys []weak.Pointer[types.Datum]
	for _, i := range []int{0, burst / 2, burst - 1} {
		g := s.groups[types.Row{types.NewString("/burst/" + strconv.Itoa(i))}.Key()]
		burstGroups, burstKeys = append(burstGroups, weak.Make(g)), append(burstKeys, weak.Make(&g.keys[0]))
	}
	alive := func() (n int) {
		runtime.GC()
		runtime.GC()
		for i := range burstGroups {
			if burstGroups[i].Value() != nil || burstKeys[i].Value() != nil {
				n++
			}
		}
		return n
	}
	for k := int64(1); k <= 4; k++ {
		fire(t, v, k*10*second, true)
		s.Expire(k * 10 * second)
		switch n := alive(); {
		case k == 2 && (n != 3 || len(s.groups) != burst+steady):
			t.Fatalf("boundary %d: %d of 3 burst groups reachable, %d groups held: want the idle burst held", k, n, len(s.groups))
		case k >= 3 && (n != 0 || len(s.groups) != steady):
			t.Fatalf("boundary %d: %d of 3 burst groups reachable, %d groups held: want the burst gone", k, n, len(s.groups))
		}
		fill(k, "/steady/", steady)
	}
	runtime.KeepAlive(s)
}

// layerOf follows a view's window layer: the arrays of its wins and of each
// of its word columns.
func layerOf(v *View) []weak.Pointer[byte] {
	layer := []weak.Pointer[byte]{weak.Make((*byte)(unsafe.Pointer(&v.wins[0])))}
	for _, c := range v.cols {
		layer = append(layer, weak.Make((*byte)(reflect.ValueOf(c.Acc(0)).UnsafePointer())))
	}
	return layer
}

// reachable counts the pointers whose objects survive two collections.
func reachable(ws []weak.Pointer[byte]) (n int) {
	runtime.GC()
	runtime.GC()
	for _, w := range ws {
		if w.Value() != nil {
			n++
		}
	}
	return n
}

// TestTumblingViewMemoryBounded: a tumbling view keeps its last window's
// columns only while they are at most twice as long as its window's highest
// group id needs. A window of 10 000 groups is kept for the 10-group window
// after it; at the next close the columns are 10 000 long against ids below
// 10, so they move to arrays of 10, and the burst's arrays are unreachable
// within two closes.
func TestTumblingViewMemoryBounded(t *testing.T) {
	const burst, steady = 10000, 10
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(10 * second)
	fill := func(k int64, groups int) {
		for i := 0; i < groups; i++ {
			insert(t, s, hit("/page/"+strconv.Itoa(i), k*10*second+int64(i), 1))
		}
	}
	fill(0, burst)
	fire(t, v, 10*second, false)
	layer := layerOf(v)
	s.Expire(10 * second)
	for k := int64(1); k <= 3; k++ {
		fill(k, steady)
		fire(t, v, (k+1)*10*second, false)
		s.Expire((k + 1) * 10 * second)
		switch alive := reachable(layer); {
		case k == 1 && (alive != len(layer) || len(v.wins) != burst):
			t.Fatalf("close %d: the burst's columns were not kept (%d of %d arrays reachable, %d long)", k, alive, len(layer), len(v.wins))
		case k >= 2 && alive != 0:
			t.Fatalf("close %d: %d of %d arrays of the burst's columns reachable, cut a close ago", k, alive, len(layer))
		}
	}
	runtime.KeepAlive(s)
}

// TestSlidingViewMemoryBounded: a sliding view's columns follow the highest
// group id in its window. A burst of 10 000 keys leaves the window while a
// second is in it, and a third, a close later, takes ids past both (the
// first's idle a boundary in the store); once the second and third have left
// as well, 10 groups are live, with ids below 10, against columns of 30 010,
// so the view moves to arrays of 10, and the bursts' arrays are unreachable
// within two closes of the last burst leaving.
func TestSlidingViewMemoryBounded(t *testing.T) {
	const burst, steady = 10000, 10
	s := newStore(t, `SELECT url, count(*), sum(v) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(20 * second)
	fill := func(k int64, prefix string, groups int) {
		for i := 0; i < groups; i++ {
			insert(t, s, hit(prefix+strconv.Itoa(i), k*10*second+int64(i), 1))
		}
	}
	var layer []weak.Pointer[byte]
	bursts := map[int64]string{0: "/a/", 1: "/b/", 3: "/c/"} // by slice
	for k := int64(0); k < 7; k++ {
		fill(k, "/steady/", steady)
		if prefix, ok := bursts[k]; ok {
			fill(k, prefix, burst)
		}
		fire(t, v, (k+1)*10*second, false)
		switch k {
		case 2, 3:
			if n, want := len(v.wins), steady+int(k)*burst; n != want {
				t.Fatalf("close %d: columns of %d groups, want %d: every burst's ids", k, n, want)
			}
			layer = layerOf(v)
		case 5:
			if n := reachable(layer); n != len(layer) {
				t.Fatalf("close %d: %d of %d arrays of the bursts' columns reachable, want all: its window's highest id needs %d",
					k, n, len(layer), steady+3*burst)
			}
		case 6:
			if n := reachable(layer); n != 0 {
				t.Fatalf("close %d: %d of %d arrays of the bursts' columns reachable, want them cut", k, n, len(layer))
			}
		}
		s.Expire((k + 1) * 10 * second)
	}
	runtime.KeepAlive(s)
}

// TestInPlaceViewMemoryBounded: an in-place view keeps the rows of groups
// that left it for the groups that come next, never more of them than its
// live groups and newcomers. When a burst of keys leaves the window, the
// next close carves the survivors afresh and the burst's rows go; when the
// window empties, the view lets go of every row.
func TestInPlaceViewMemoryBounded(t *testing.T) {
	const burst, steady = 10000, 10
	s := newStore(t, `SELECT url, count(*) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	v := s.Attach(20 * second)
	fill := func(k int64, from, to int) {
		for i := from; i < to; i++ {
			insert(t, s, hit("/page/"+strconv.Itoa(i), k*10*second+int64(i), 1))
		}
	}
	gone := func(w weak.Pointer[types.Datum]) bool {
		runtime.GC()
		runtime.GC()
		return w.Value() == nil
	}
	var burstRow, steadyRow weak.Pointer[types.Datum]
	for k := int64(0); k < 8; k++ {
		if k < 6 {
			fill(k, 0, steady)
		}
		if k == 1 {
			fill(k, steady, steady+burst)
		}
		rows, _, _, err := v.Fire((k+1)*10*second, true)
		if err != nil {
			t.Fatal(err)
		}
		switch k {
		case 1: // the burst's last key sorts last
			burstRow = weak.Make(&rows[len(rows)-1][0])
		case 3:
			if !gone(burstRow) {
				t.Fatalf("close %d: the burst left the window a close ago and its rows are reachable", k)
			}
		case 5:
			steadyRow = weak.Make(&rows[0][0])
		}
		if kept := len(v.ordered) + v.free.Len(); kept > 2*len(v.ordered) {
			t.Fatalf("close %d: %d live groups keep %d rows", k, len(v.ordered), kept)
		}
		s.Expire((k + 1) * 10 * second)
	}
	if !gone(steadyRow) {
		t.Fatal("a view whose window emptied keeps its rows reachable")
	}
	runtime.KeepAlive(s)
}

// TestStoreKeyChunksMemoryBounded: the store carves its groups' key strings
// from chunks it never writes twice, so a chunk is reachable while any key
// carved from it is. Each boundary brings a burst of one-off keys and one key
// that stays for the rest of the test, whose string — in its group and in the
// row of an in-place sliding view — would keep its boundary's chunk reachable
// for good; a tumbling view fires out of place beside it. Once the keys carved
// since the last rehome reach twice the groups, Expire copies the live keys
// into one fresh chunk and re-keys the in-place view's rows, so at every close
// the keys whose chunk is reachable are at most twice the groups the last
// boundary left plus the keys this boundary carved.
func TestStoreKeyChunksMemoryBounded(t *testing.T) {
	const burst, boundaries = 64, 24
	s := newStore(t, `SELECT url, count(*) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> GROUP BY url`)
	sliding, tumbling := s.Attach(20*second), s.Attach(10*second)
	carved := map[uintptr]weak.Pointer[byte]{} // every key carved, by address
	record := func() {
		for _, g := range s.groups {
			p := unsafe.StringData(g.key)
			if w, ok := carved[uintptr(unsafe.Pointer(p))]; !ok || w.Value() == nil {
				carved[uintptr(unsafe.Pointer(p))] = weak.Make(p)
			}
		}
	}
	groups := 0 // what the last boundary left
	for k := int64(0); k < boundaries; k++ {
		for i := 0; i < burst; i++ {
			insert(t, s, hit(fmt.Sprintf("/burst/%d/%d", k, i), k*10*second+int64(i), 1))
		}
		for j := int64(0); j <= k; j++ {
			insert(t, s, hit(fmt.Sprintf("/stays/%d", j), k*10*second+burst+j, 1))
		}
		record()
		c := (k + 1) * 10 * second
		if _, _, _, err := sliding.Fire(c, true); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := tumbling.Fire(c, false); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		reachable := 0
		for p, w := range carved {
			if w.Value() == nil {
				delete(carved, p)
			} else {
				reachable++
			}
		}
		if limit := 2*groups + burst + 1; reachable > limit {
			t.Fatalf("close %d: the chunks reachable hold %d keys, want ≤ %d: twice the %d groups the last boundary left and this boundary's %d",
				k, reachable, limit, groups, burst+1)
		}
		s.Expire(c)
		record()
		groups = len(s.groups)
	}
	runtime.KeepAlive(s)
}
