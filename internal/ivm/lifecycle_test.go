package ivm

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"streamrel/internal/types"
)

// The operations of a FuzzStoreLifecycle tape: an op byte, then an argument
// byte. A tape's first byte picks the extent its store is planned for.
const (
	opInsert = iota // a row of key arg%16, value arg/16, (op/8)%4 seconds on (three op values of eight)
	opInsert2
	opInsert3
	opBurst // 8 + arg%57 keys never seen before
	opClose // fire every view at the next boundary, view i in place if bit i of arg, then Expire (two of eight)
	opClose2
	opAttach // a view of the store's extent + (arg%8) × ADVANCE
	opDetach // one of the views attached since, the arg%len-th
)

// lifecycleExtents are the VISIBLEs a tape's store is planned for, at an
// ADVANCE of 10 s: tumbling, sliding, and paired (VISIBLE mod ADVANCE ≠ 0).
var lifecycleExtents = []int64{10, 30, 25}

// tape writes a FuzzStoreLifecycle input: the extent's index, then op and
// argument pairs.
func tape(extent byte, ops ...byte) []byte { return append([]byte{extent}, ops...) }

// FuzzStoreLifecycle drives a store through the tape its bytes choose —
// inserts with key churn and bursts of new keys, closes whose views fire in
// place or not, then Expire, views attached and detached — over a tumbling,
// a sliding or a paired extent, with MIN (no inverse) beside COUNT and SUM,
// and checks after every close that
//   - every view fires what a view attached that instant, built from the
//     retained slices, fires (TestViewsEqualMergeOfRetainedSlices' invariant),
//     and the first, attached for the whole tape, what the rows logged in its
//     window aggregate to, one at a time — which a recycled partial that kept
//     its last slice's state would break on both sides of the first check;
//   - no row handed out of place was rewritten since: its batch renders as
//     it did when it was fired;
//   - what the store and its views keep for reuse is what the rule allows:
//     the slices and groups this close's Expire dropped and no earlier ones;
//     and where the rule counts what was carved, recycled and live objects
//     together within twice the live ones at the last boundary: a retained
//     slice's columns sized for the groups it holds, twice those it held when
//     it last expired or those of the slice before it when it opened, and
//     their arrays within twice that, a view's columns within the larger of
//     twice the highest group id its window held at the close's boundary and
//     the highest it holds after, and their arrays within twice that, and its
//     rows against its groups;
//   - every live group's key row renders its key in the map, and the keys
//     the groups and the in-place views' rows hold were carved since the last
//     rehome, which carved at most twice the live keys: the chunks those keys
//     keep reachable hold no more.
//
// The seeds include the scenarios of the memory pins: a burst then steady
// keys, a detach that expires five slices at once, an idle key reviving; new
// keys taking the ids of a burst dropped a boundary before (those seeds fail
// if no id was reused); a burst at every close under an in-place sliding
// view, which fails unless the keys are rehomed three times; sliding churn,
// departures and arrivals in one close, in place and out of place, with a
// wider view detached midway; and a sliding view that cuts its columns while
// groups are still in its window.
func FuzzStoreLifecycle(f *testing.F) {
	const in, out = 0xff, 0
	steady := func(closes int, inPlace byte) (ops []byte) { // keys 0–3, a value that changes every close
		for i := 0; i < closes; i++ {
			v := byte(16 * (i % 16))
			ops = append(ops, opInsert, v, opInsert, v+1, opInsert, v+2, opInsert, v+3, opClose, inPlace)
		}
		return ops
	}
	burst := append([]byte{opBurst, 56, opBurst, 56, opClose, in}, steady(6, in)...)
	f.Add(tape(0, burst...))                                                        // burst then steady keys, tumbling
	f.Add(tape(1, append([]byte{opBurst, 56, opClose, out}, steady(6, out)...)...)) // the same, sliding
	f.Add(tape(1, append(append([]byte{opAttach, 4}, steady(8, in)...),             // a detach expiring five slices
		append([]byte{opDetach, 1}, steady(3, out)...)...)...))
	f.Add(tape(0, opInsert, 1, opClose, in, opInsert, 2, opClose, in, // an idle key reviving
		opInsert, 1, opClose, in, opClose, in, opInsert, 1, opClose, out))
	f.Add(tape(2, append([]byte{opAttach, 1, opAttach, 2}, steady(5, 0b101)...)...)) // paired, views in both modes
	f.Add(tape(1, opInsert, 7, opClose, 1, opInsert, 7, opClose, 0, opInsert, 7, opClose, 1, opClose, 1))
	f.Add(tape(0, append(steady(2, in), append(steady(2, out), steady(2, in)...)...)...)) // changes of mode
	// A burst expires and is dropped, and a second one takes its ids: under a
	// tumbling view alone, and beside a sliding one (bit 1), in place and not.
	reuse := [][]byte{
		tape(0, append([]byte{opBurst, 56, opClose, in, opClose, out, opClose, in, opBurst, 56, opClose, out},
			steady(2, in)...)...),
		tape(0, append([]byte{opAttach, 2, opBurst, 56, opClose, 0b01, opClose, 0b10, opClose, 0b01, opClose, 0b10,
			opClose, 0b01, opBurst, 56, opClose, 0b10}, append(steady(2, 0b01), steady(2, 0b10)...)...)...),
	}
	for _, b := range reuse {
		f.Add(b)
	}
	var churn []byte
	for i := 0; i < 20; i++ {
		churn = append(append(churn, opBurst, 8), steady(1, in)...)
	}
	rehomed := tape(1, churn...)
	f.Add(rehomed)
	// Each close adds a burst and retracts the one three closes before, both
	// views out of place for two closes, then both in place for two, by turns.
	slide := []byte{opAttach, 2}
	for i := 0; i < 12; i++ {
		if i == 7 {
			slide = append(slide, opDetach, 0)
		}
		slide = append(append(slide, opBurst, byte(i)), steady(1, byte(0b11*(i/2%2)))...)
	}
	f.Add(tape(1, slide...))
	// A burst leaves while a smaller one stays, so the view cuts its columns
	// with groups still in the window; when the smaller one leaves in its
	// turn, its ids are not kept beside a dozen live groups.
	f.Add(tape(1, append(append(append([]byte{opBurst, 56, opBurst, 56}, steady(1, out)...),
		append([]byte{opBurst, 24}, steady(3, out)...)...), append([]byte{opBurst, 0}, steady(3, out)...)...)...))
	f.Fuzz(func(t *testing.T, b []byte) {
		reused, rehomes := storeLifecycle(t, b)
		if reused == 0 && slices.ContainsFunc(reuse, func(r []byte) bool { return bytes.Equal(r, b) }) {
			t.Fatal("no new key took a dropped group's id")
		}
		if rehomes < 3 && bytes.Equal(b, rehomed) {
			t.Fatalf("the keys were rehomed %d times, want ≥ 3", rehomes)
		}
	})
}

// firedBatch is a batch a view handed out of place, and how it rendered then.
type firedBatch struct {
	rows []types.Row
	was  string
}

func render(rows []types.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String() + ";")
	}
	return sb.String()
}

// storeLifecycle runs a tape and returns how many new keys took the id of a
// dropped group, and how many times the store rehomed its keys.
func storeLifecycle(t *testing.T, b []byte) (reused, rehomes int) {
	if len(b) == 0 || len(b) > 1024 {
		return 0, 0
	}
	const advance = 10 * second
	extent := lifecycleExtents[int(b[0])%len(lifecycleExtents)] * second
	s := newStore(t, fmt.Sprintf(`SELECT url, count(*), sum(v), min(v)
		FROM s <VISIBLE '%d seconds' ADVANCE '10 seconds'> GROUP BY url`, extent/second))
	views := []*View{s.Attach(extent)}
	ts, next, bursts := int64(0), int64(advance), 0
	type logged struct {
		url   string
		ts, v int64
	}
	var rows []logged         // the first view's window and after
	var carved []string       // the keys carved since the last rehome, which the test keeps reachable
	sized := map[*slice]int{} // the groups of the slice before a slice when it opened
	add := func(r logged) {
		rows = append(rows, r)
		free, groups, opened := len(s.ids), len(s.groups), len(s.slices)
		insert(t, s, hit(r.url, r.ts, r.v))
		if n := len(s.slices); n > opened && n > 1 {
			sized[s.slices[n-1]] = len(s.slices[n-2].ids)
		}
		if len(s.ids) < free {
			reused++
		}
		if len(s.groups) > groups {
			carved = append(carved, s.groups[types.Row{types.NewString(r.url)}.Key()].key)
		}
	}
	brute := func(c int64) string {
		type agg struct{ n, sum, min int64 }
		byURL := map[string]*agg{}
		var urls []string
		for _, r := range rows {
			if r.ts < c-extent || r.ts >= c {
				continue
			}
			a := byURL[r.url]
			if a == nil {
				a = &agg{min: r.v}
				byURL[r.url] = a
				urls = append(urls, r.url)
			}
			a.n, a.sum, a.min = a.n+1, a.sum+r.v, min(a.min, r.v)
		}
		sort.Strings(urls)
		var sb strings.Builder
		for _, u := range urls {
			a := byURL[u]
			sb.WriteString(types.Row{types.NewString(u), types.NewInt(a.n), types.NewInt(a.sum), types.NewInt(a.min)}.String() + ";")
		}
		return sb.String()
	}
	var kept []firedBatch
	expiredWith := map[*slice]int{} // groups a slice held when it last expired
	closeNext := func(inPlace byte) {
		c := next
		next += advance
		ts = max(ts, c)
		for i, v := range views {
			top := 0 // the highest id in the window at the boundary, + 1
			for _, id := range v.ordered {
				top = max(top, int(id)+1)
			}
			rows, _, _, err := v.Fire(c, inPlace>>i&1 == 1)
			if err != nil {
				t.Fatal(err)
			}
			got := render(rows)
			fresh := s.Attach(v.visible)
			want, _ := fire(t, fresh, c, false)
			s.Detach(fresh)
			if got != want {
				t.Fatalf("close %d s, view %d s:\nview  %s\nfresh %s", c/second, v.visible/second, got, want)
			}
			if i == 0 {
				if want := brute(c); got != want {
					t.Fatalf("close %d s, view %d s:\nview  %s\nbrute %s", c/second, v.visible/second, got, want)
				}
			}
			if inPlace>>i&1 == 0 {
				kept = append(kept, firedBatch{rows, got})
			}
			after := 0 // the highest id in the window after the close, + 1
			for _, id := range v.ordered {
				after = max(after, int(id)+1)
			}
			limit, arrays := max(2*top, after), []int{cap(v.wins)}
			for _, col := range v.cols {
				arrays = append(arrays, reflect.ValueOf(col).Elem().FieldByName("v").Cap()) // each kind's elements
			}
			if n := len(v.wins); n > limit || slices.Max(arrays) > 2*limit {
				t.Fatalf("close %d s, view %d s: columns of %d groups in arrays of %v, the highest id %d at its boundary and %d after",
					c/second, v.visible/second, n, arrays, top-1, after-1)
			}
			if n := v.free.Len(); n > len(v.ordered) {
				t.Fatalf("close %d s, view %d s: %d rows kept beside %d groups", c/second, v.visible/second, n, len(v.ordered))
			}
		}
		slicesBefore, groupsBefore, keysBefore := map[*slice]int{}, len(s.groups), map[*group]string{}
		for _, sl := range s.slices {
			slicesBefore[sl] = len(sl.ids)
		}
		for _, g := range s.groups {
			keysBefore[g] = g.key
		}
		s.Expire(c)
		if s.carved != len(carved) { // rehomed
			rehomes, carved = rehomes+1, carved[:0]
			for _, g := range s.groups {
				if unsafe.StringData(g.key) == unsafe.StringData(keysBefore[g]) {
					t.Fatalf("close %d s: a rehome left key %q in its chunk", c/second, g.key)
				}
				carved = append(carved, g.key)
			}
		}
		checkKeys(t, s, carved)
		for _, sl := range s.slices {
			delete(slicesBefore, sl)
		}
		if n := s.spares.Len(); n > len(slicesBefore) {
			t.Fatalf("close %d s: %d spare slices, %d expired", c/second, n, len(slicesBefore))
		}
		if n, dropped := s.free.Len(), groupsBefore-len(s.groups); n > max(len(s.groups), dropped) {
			t.Fatalf("close %d s: %d free groups, %d dropped, %d held", c/second, n, dropped, len(s.groups))
		}
		for sl, groups := range slicesBefore {
			expiredWith[sl] = groups
		}
		for _, sl := range s.slices {
			if live := len(sl.ids); sl.high > max(2*expiredWith[sl], live, sized[sl]) || cap(sl.ids) > max(2*sl.high, sized[sl]) {
				t.Fatalf("close %d s: a slice of %d groups keeps columns of %d sized for %d, held %d when it last expired and opened after one of %d",
					c/second, live, cap(sl.ids), sl.high, expiredWith[sl], sized[sl])
			}
		}
		for len(kept) > 64 {
			kept = kept[1:]
		}
		for len(rows) > 0 && rows[0].ts < c+advance-extent {
			rows = rows[1:]
		}
		for _, k := range kept {
			if now := render(k.rows); now != k.was {
				t.Fatalf("close %d s: a batch handed out of place was rewritten:\nthen %s\nnow  %s", c/second, k.was, now)
			}
		}
	}
	for i := 1; i+1 < len(b); i += 2 {
		op, arg := b[i], b[i+1]
		switch op % 8 {
		case opInsert, opInsert2, opInsert3:
			ts += int64(op/8%4) * second
			for ts >= next {
				closeNext(0)
			}
			add(logged{"/k" + strconv.Itoa(int(arg%16)), ts, int64(arg / 16)})
		case opBurst:
			for j := 0; j < 8+int(arg%57); j++ {
				add(logged{"/b" + strconv.Itoa(bursts), ts, int64(j)})
				bursts++
			}
		case opClose, opClose2:
			closeNext(arg)
		case opAttach:
			if len(views) < 4 {
				views = append(views, s.Attach(extent+int64(arg%8)*advance))
			}
		case opDetach:
			if len(views) > 1 {
				j := 1 + int(arg)%(len(views)-1)
				s.Detach(views[j])
				views = append(views[:j], views[j+1:]...)
			}
		}
	}
	closeNext(0)
	closeNext(0xff)
	return reused, rehomes
}

// checkKeys checks that every live group's key row renders its key in the map,
// that every key string the map, the groups and the in-place views' rows hold
// lies inside a key carved since the last rehome, and that those are at most
// twice the live keys: the chunks the store and its views keep reachable hold
// no more.
func checkKeys(t *testing.T, s *Store, carved []string) {
	t.Helper()
	if len(carved) != s.carved || len(carved) > 2*len(s.groups) {
		t.Fatalf("%d keys carved since the last rehome (the store counts %d), %d groups live", len(carved), s.carved, len(s.groups))
	}
	spans := make([][2]uintptr, len(carved))
	for i, k := range carved {
		p := uintptr(unsafe.Pointer(unsafe.StringData(k)))
		spans[i] = [2]uintptr{p, p + uintptr(len(k))}
	}
	slices.SortFunc(spans, func(a, b [2]uintptr) int { return cmp.Compare(a[0], b[0]) })
	held := func(k string, by string) {
		p := uintptr(unsafe.Pointer(unsafe.StringData(k)))
		i := sort.Search(len(spans), func(i int) bool { return spans[i][0] > p }) - 1
		if i < 0 || p+uintptr(len(k)) > spans[i][1] {
			t.Fatalf("%s holds %q, carved before the last rehome", by, k)
		}
	}
	for key, g := range s.groups {
		if g.key != key || g.keys.Key() != key {
			t.Fatalf("group %v: key %q, key row's %q, mapped by %q", g.keys, g.key, g.keys.Key(), key)
		}
		held(key, "the map")
		held(g.key, "a group")
		for _, d := range g.keys {
			if d.Type() == types.TypeString {
				held(d.Str(), "a group's key row")
			}
		}
	}
	for _, v := range s.views {
		for _, row := range v.out {
			for _, d := range row[:len(s.keyScratch)] {
				if d.Type() == types.TypeString {
					held(d.Str(), "an in-place view's row")
				}
			}
		}
	}
}
