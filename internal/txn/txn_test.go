package txn

import (
	"maps"
	"runtime"
	"slices"
	"testing"
)

func TestBeginCommitVisibility(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	if m.SnapshotNow().VisibleVersion(tx.ID, 0) {
		t.Fatal("in-progress txn visible to fresh snapshot")
	}
	if !tx.Snap.VisibleVersion(tx.ID, 0) {
		t.Fatal("txn does not see its own writes")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !m.SnapshotNow().VisibleVersion(tx.ID, 0) {
		t.Fatal("committed txn invisible")
	}
}

func TestSnapshotExcludesConcurrent(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	snap := m.SnapshotNow() // taken while tx in flight
	tx.Commit()
	if snap.VisibleVersion(tx.ID, 0) {
		t.Fatal("snapshot sees txn that was in flight when it was taken")
	}
	if snap.VisibleVersion(m.Begin().ID, 0) {
		t.Fatal("snapshot sees future txn")
	}
}

func TestAbortInvisible(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Abort()
	if m.SnapshotNow().VisibleVersion(tx.ID, 0) {
		t.Fatal("aborted txn visible")
	}
}

func TestDoubleFinishErrors(t *testing.T) {
	m := NewManager()
	tx := m.Begin()
	tx.Commit()
	if err := tx.Commit(); err == nil {
		t.Fatal("double commit should error")
	}
	if err := tx.Abort(); err == nil {
		t.Fatal("abort after commit should error")
	}
}

func TestDeletedVersionVisibility(t *testing.T) {
	m := NewManager()
	ins := m.Begin()
	ins.Commit()
	preDelete := m.SnapshotNow()
	del := m.Begin()
	// While delete in flight, everyone still sees the row.
	if !m.SnapshotNow().VisibleVersion(ins.ID, del.ID) {
		t.Fatal("row hidden by uncommitted delete")
	}
	del.Commit()
	if m.SnapshotNow().VisibleVersion(ins.ID, del.ID) {
		t.Fatal("row visible after committed delete")
	}
	if !preDelete.VisibleVersion(ins.ID, del.ID) {
		t.Fatal("pre-delete snapshot must keep the row")
	}
}

func TestBootstrapAlwaysVisible(t *testing.T) {
	m := NewManager()
	if !m.SnapshotNow().VisibleVersion(Bootstrap, 0) {
		t.Fatal("bootstrap rows invisible")
	}
	if m.SnapshotNow().VisibleVersion(0, 0) {
		t.Fatal("xmin 0 should never be visible")
	}
}

// TestSnapshotDecided: a snapshot decides the transactions up to last when
// each had finished by the time it was taken — committed or aborted, but not
// in flight and not begun after it — and a transaction's own snapshot, which
// sees its own writes, decides nothing.
func TestSnapshotDecided(t *testing.T) {
	m := NewManager()
	if !m.SnapshotNow().Decided(0) || !m.SnapshotNow().Decided(Bootstrap) {
		t.Fatal("a heap nothing but the bootstrap transaction wrote is undecided")
	}
	committed, aborted := m.Begin(), m.Begin()
	committed.Commit()
	aborted.Abort()
	inFlight := m.Begin()
	snap := m.SnapshotNow()
	later := m.Begin()
	for _, c := range []struct {
		last ID
		want bool
	}{{committed.ID, true}, {aborted.ID, true}, {inFlight.ID, false}, {inFlight.ID + 1, false}, {later.ID, false}} {
		if got := snap.Decided(c.last); got != c.want {
			t.Errorf("Decided(%d) with %d in flight and XMax %d = %v, want %v", c.last, inFlight.ID, snap.XMax, got, c.want)
		}
	}
	// An in-flight transaction above last leaves what is below it decided.
	early := m.SnapshotNow()
	if !early.Decided(aborted.ID) || early.Decided(inFlight.ID) {
		t.Fatalf("with %d and %d in flight: Decided(%d) = %v, Decided(%d) = %v",
			inFlight.ID, later.ID, aborted.ID, early.Decided(aborted.ID), inFlight.ID, early.Decided(inFlight.ID))
	}
	if later.Snap.Decided(committed.ID) {
		t.Fatal("a transaction's own snapshot decides")
	}
	inFlight.Commit()
	later.Abort()
	if !m.SnapshotNow().Decided(later.ID) || snap.Decided(inFlight.ID) {
		t.Fatal("finishing a transaction changed what an older snapshot decides, or a newer one does not")
	}
}

// TestSnapshotAllocsAfterTrim: the aborted set does not grow for ever —
// Trim at a horizon forgets what had aborted by then (the caller vacuumed
// those transactions' versions), and nothing aborted since — and taking a
// snapshot costs the same whatever its size: Begin and SnapshotNow share it
// until an abort or a trim replaces it, where each used to copy it.
func TestSnapshotAllocsAfterTrim(t *testing.T) {
	m := NewManager()
	for i := 0; i < 10_000; i++ {
		tx := m.Begin()
		tx.Abort()
	}
	committed := m.Begin()
	committed.Commit()
	horizon := m.SnapshotNow()
	later := m.Begin()
	later.Abort()
	if got := testing.AllocsPerRun(100, func() { m.SnapshotNow() }); got != 0 {
		t.Fatalf("SnapshotNow beside %d aborted transactions allocates %v times", len(horizon.aborted), got)
	}
	m.Trim(horizon)
	snap := m.SnapshotNow()
	if len(snap.aborted) != 1 || snap.VisibleVersion(later.ID, 0) || !snap.VisibleVersion(committed.ID, 0) {
		t.Fatalf("after the trim a snapshot holds %d aborted transactions; sees the one aborted since: %v", len(snap.aborted), snap.VisibleVersion(later.ID, 0))
	}
	if len(horizon.aborted) != 10_000 || horizon.VisibleVersion(horizon.aborted[17], 0) || !horizon.Dead(horizon.aborted[17], 0) {
		t.Fatal("the trim changed the horizon it was taken at")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const begins = 100
	for i := 0; i < begins; i++ {
		tx := m.Begin()
		tx.Commit()
	}
	runtime.ReadMemStats(&after)
	if perBegin := (after.TotalAlloc - before.TotalAlloc) / begins; perBegin > 256 {
		t.Fatalf("Begin allocates %d bytes after the trim", perBegin)
	}
	// Aborts out of ID order keep the set sorted: every one is found.
	a, b, c := m.Begin(), m.Begin(), m.Begin()
	c.Abort()
	a.Abort()
	b.Abort()
	if snap := m.SnapshotNow(); snap.VisibleVersion(a.ID, 0) || snap.VisibleVersion(b.ID, 0) || snap.VisibleVersion(c.ID, 0) || !slices.IsSorted(snap.aborted) {
		t.Fatalf("aborted out of order: %v", snap.aborted)
	}
}

// TestSnapshotAllocsInFlight: Begin and SnapshotNow allocate nothing while a
// few transactions are in flight, as two writers keep them: a snapshot holds
// the oldest and a word of bits, not a copy of the set.
func TestSnapshotAllocsInFlight(t *testing.T) {
	for inFlight := 1; inFlight <= 3; inFlight++ {
		m := NewManager()
		for i := 0; i < inFlight; i++ {
			m.Begin()
		}
		if got := testing.AllocsPerRun(100, func() { m.SnapshotNow() }); got != 0 {
			t.Errorf("SnapshotNow with %d in flight allocates %v times", inFlight, got)
		}
		if got := testing.AllocsPerRun(100, func() { tx := m.Begin(); tx.Commit() }); got != 0 {
			t.Errorf("Begin with %d in flight allocates %v times", inFlight, got)
		}
	}
}

// FuzzSnapshot drives a manager with a tape of Begin, Commit, Abort,
// SnapshotNow and Trim — a byte's top three bits the operation, its low five
// which transaction or snapshot, and 7 a burst of 32 Begins, so more than 64
// are in flight — and checks every snapshot, when taken and at the end,
// against a reference model of sets: VisibleVersion, Dead and Decided, for
// each ID up to the last one begun and past it.
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{0, 0, 0xa0, 0x60, 0x80, 0xa0, 0xc1, 0xa0})
	f.Add([]byte{0xe0, 0xe0, 0xe0, 0xa0, 0x61, 0x9f, 0xa0, 0xc0, 0x20, 0xa0, 0xc2, 0xa3})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 256 {
			return
		}
		type refSnap struct {
			snap           Snapshot
			xmax, self     ID
			inFlight, abrt map[ID]bool
			forgot         map[ID]bool // trimmed before it was taken: never asked about
		}
		m := NewManager()
		var open []Txn
		aborted, forgot := map[ID]bool{}, map[ID]bool{}
		var snaps []refSnap
		take := func(s Snapshot, xmax, self ID) {
			r := refSnap{snap: s, xmax: xmax, self: self, inFlight: map[ID]bool{}, abrt: maps.Clone(aborted), forgot: maps.Clone(forgot)}
			for _, tx := range open {
				if tx.ID != self {
					r.inFlight[tx.ID] = true
				}
			}
			snaps = append(snaps, r)
		}
		check := func(r refSnap) {
			sees := func(id ID) bool {
				return id != 0 && (id == r.self || id < r.xmax && !r.inFlight[id] && !r.abrt[id])
			}
			decided := r.self == 0
			for id := ID(0); id <= m.next+1; id++ {
				decided = decided && id < r.xmax && !r.inFlight[id]
				if r.forgot[id] {
					continue
				}
				s := r.snap
				if got, want := s.VisibleVersion(id, 0), sees(id); got != want {
					t.Fatalf("snapshot %+v: VisibleVersion(%d, 0) = %v, want %v", r, id, got, want)
				}
				if got, want := s.VisibleVersion(Bootstrap, id), id == 0 || !sees(id); got != want {
					t.Fatalf("snapshot %+v: VisibleVersion(1, %d) = %v, want %v", r, id, got, want)
				}
				if got, want := s.Dead(id, 0), r.abrt[id]; got != want {
					t.Fatalf("snapshot %+v: Dead(%d, 0) = %v, want %v", r, id, got, want)
				}
				if got, want := s.Dead(Bootstrap, id), id != 0 && sees(id); got != want {
					t.Fatalf("snapshot %+v: Dead(1, %d) = %v, want %v", r, id, got, want)
				}
				if got := s.Decided(id); got != decided {
					t.Fatalf("snapshot %+v: Decided(%d) = %v, want %v", r, id, got, decided)
				}
			}
		}
		begin := func() {
			tx := m.Begin()
			open = append(open, tx)
			take(tx.Snap, tx.ID, tx.ID)
			check(snaps[len(snaps)-1])
		}
		for _, b := range tape {
			arg := int(b & 31)
			switch b >> 5 {
			case 0, 1, 2:
				begin()
			case 3, 4:
				if len(open) == 0 {
					continue
				}
				i := arg % len(open)
				tx := open[i]
				open = slices.Delete(open, i, i+1)
				if b>>5 == 3 {
					tx.Commit()
				} else {
					tx.Abort()
					aborted[tx.ID] = true
				}
			case 5:
				take(m.SnapshotNow(), m.next, 0)
				check(snaps[len(snaps)-1])
			case 6:
				// A horizon a vacuum reclaimed at: a snapshot taken by no
				// transaction, the arg-th such one from the end.
				for i := len(snaps) - 1; i >= 0; i-- {
					if r := snaps[i]; r.self == 0 {
						if arg--; arg < 0 {
							m.Trim(r.snap)
							for id := range r.abrt {
								forgot[id] = true
							}
							break
						}
					}
				}
			case 7:
				for i := 0; i < 32; i++ {
					begin()
				}
			}
		}
		for _, r := range snaps {
			check(r)
		}
	})
}
