// Package txn implements transaction identity, MVCC snapshots, and the
// visibility rules shared by snapshot queries and continuous queries.
//
// The paper (§4) observes that "the isolation mechanisms of some RDBMSs,
// such as multi-version concurrency control, can be extended to provide
// continuous isolation semantics": a CQ takes a fresh snapshot at each
// window boundary ("window consistency"), so table updates become visible
// to continuous processing only between windows. This package provides
// exactly that primitive: cheap snapshots over a shared status table.
package txn

import (
	"fmt"
	"slices"
	"sync"
)

// ID identifies a transaction. IDs are allocated monotonically; ID 0 is
// reserved as "invalid" and ID 1 is the bootstrap transaction that owns
// rows created by recovery and bulk loads.
type ID uint64

// Bootstrap is the always-committed transaction that owns recovered and
// system-created rows.
const Bootstrap ID = 1

// Status is the lifecycle state of a transaction.
type Status uint8

// Transaction states.
const (
	StatusInProgress Status = iota
	StatusCommitted
	StatusAborted
)

// Manager allocates transaction IDs and tracks commit status. Committed
// transactions are forgotten immediately (an ID below the allocation
// horizon that is neither in progress nor aborted is committed), so state
// is bounded by concurrent transactions plus the aborted set — Begin stays
// O(concurrent), not O(history), and allocates nothing while the
// transactions in flight span at most 64 IDs: snapshots share the aborted
// set until an abort or a trim replaces it, and Trim forgets the aborted
// transactions whose versions a vacuum has reclaimed.
type Manager struct {
	mu         sync.RWMutex
	next       ID
	inProgress []ID // sorted: Begin appends the largest ID
	// aborted is sorted, and immutable once a snapshot holds it: setStatus
	// and Trim replace it, never write it.
	aborted []ID
}

// NewManager returns a manager with the bootstrap transaction committed.
func NewManager() *Manager {
	return &Manager{next: Bootstrap + 1}
}

// Begin starts a new transaction and returns it with a fresh snapshot. The
// Txn is a value, so a writer that keeps one in its own scratch begins a
// transaction without allocating; Commit and Abort need it addressable.
func (m *Manager) Begin() Txn {
	m.mu.Lock()
	id := m.next
	m.next++
	snap := m.snapshotLocked(id)
	snap.self = id
	m.inProgress = append(m.inProgress, id)
	m.mu.Unlock()
	return Txn{ID: id, mgr: m, Snap: snap}
}

// SnapshotNow returns a read-only snapshot as of now, without allocating a
// transaction ID. Continuous queries take one of these at each window
// close; pure SELECTs use them too.
func (m *Manager) SnapshotNow() Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.snapshotLocked(m.next)
}

// snapshotLocked is the snapshot below xmax of the transactions in flight: the
// oldest, and the rest as bits over the 64 IDs from it, each beyond those in
// a sorted slice of its own.
func (m *Manager) snapshotLocked(xmax ID) Snapshot {
	s := Snapshot{XMax: xmax, xmin: xmax, aborted: m.aborted}
	for i, id := range m.inProgress {
		if i == 0 {
			s.xmin = id
		}
		if id-s.xmin >= 64 {
			s.later = slices.Clone(m.inProgress[i:])
			break
		}
		s.bits |= 1 << (id - s.xmin)
	}
	return s
}

func (m *Manager) setStatus(id ID, s Status) {
	m.mu.Lock()
	if at, ok := slices.BinarySearch(m.inProgress, id); ok {
		m.inProgress = slices.Delete(m.inProgress, at, at+1)
	}
	if s == StatusAborted {
		at, _ := slices.BinarySearch(m.aborted, id)
		m.aborted = append(append(append(make([]ID, 0, len(m.aborted)+1), m.aborted[:at]...), id), m.aborted[at:]...)
	}
	m.mu.Unlock()
}

// Trim forgets the transactions that had aborted when horizon was taken. The
// caller has reclaimed every version they created (storage.Heap.Vacuum at
// horizon, over every heap), so no snapshot is asked about one again.
func (m *Manager) Trim(horizon Snapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var kept []ID
	for _, id := range m.aborted {
		if _, gone := slices.BinarySearch(horizon.aborted, id); !gone {
			kept = append(kept, id)
		}
	}
	m.aborted = kept
}

// Txn is an in-progress transaction.
type Txn struct {
	ID   ID
	Snap Snapshot
	mgr  *Manager
	done bool
}

// Commit makes the transaction's effects visible to later snapshots.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("txn: %d already finished", t.ID)
	}
	t.done = true
	t.mgr.setStatus(t.ID, StatusCommitted)
	return nil
}

// Abort discards the transaction's effects.
func (t *Txn) Abort() error {
	if t.done {
		return fmt.Errorf("txn: %d already finished", t.ID)
	}
	t.done = true
	t.mgr.setStatus(t.ID, StatusAborted)
	return nil
}

// Snapshot is a point-in-time visibility horizon. It is entirely
// self-contained: visibility checks touch no shared state, so scans never
// contend with writers. The transactions in flight when it was taken are
// xmin, the oldest (XMax when there were none), and the bits of the 64 IDs
// from it; one further from xmin is in later, which is nil unless the
// transactions in flight spanned more than 64 IDs.
type Snapshot struct {
	XMax    ID // txns with ID >= XMax started after the snapshot
	xmin    ID
	bits    uint64
	later   []ID // sorted
	aborted []ID // aborted as of snapshot time, sorted
	self    ID   // the owning txn, if any: its own writes are visible
}

// inFlight reports whether id < XMax was in progress when s was taken.
func (s Snapshot) inFlight(id ID) bool {
	if id < s.xmin {
		return false
	}
	if d := id - s.xmin; d < 64 {
		return s.bits>>d&1 != 0
	}
	_, ok := slices.BinarySearch(s.later, id)
	return ok
}

// sees reports whether a transaction's effects are visible.
//
// A txn that aborts after this snapshot was taken was necessarily in
// flight (it was in progress at snapshot time), so the local aborted
// copy is complete for every ID this snapshot can otherwise see.
func (s Snapshot) sees(id ID) bool {
	if id == 0 {
		return false
	}
	if id == s.self {
		return true
	}
	if id >= s.XMax || s.inFlight(id) {
		return false
	}
	return !s.hasAborted(id)
}

func (s Snapshot) hasAborted(id ID) bool {
	_, ok := slices.BinarySearch(s.aborted, id)
	return ok
}

// VisibleVersion applies the MVCC rule to a row version stamped with the
// creating (xmin) and deleting (xmax) transactions: the version is visible
// iff its creation is visible and its deletion is not.
func (s Snapshot) VisibleVersion(xmin, xmax ID) bool {
	if !s.sees(xmin) {
		return false
	}
	if xmax == 0 {
		return true
	}
	return !s.sees(xmax)
}

// Decided reports whether every transaction up to last had finished when s
// was taken, so that s, like every other such snapshot, knows each outcome.
func (s Snapshot) Decided(last ID) bool { return s.self == 0 && last < s.xmin }

// Dead reports whether a version is invisible to s and to every snapshot
// taken after it: its creator aborted, or its deletion is visible. A version
// whose creator was still in flight may yet commit, and is not dead.
func (s Snapshot) Dead(xmin, xmax ID) bool {
	return s.hasAborted(xmin) || xmax != 0 && s.sees(xmax)
}
