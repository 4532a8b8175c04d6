package shard

import (
	"sync"

	"streamrel/internal/types"
)

// cqMerger re-aligns per-shard CQ window results on their close
// timestamps and emits one merged batch per close, in close order.
//
// The alignment rule is a watermark: a close T may be emitted once every
// live shard's latest seen close is ≥ T — at that point no live shard
// can still produce a batch for T (per-shard closes arrive in order). A
// shard that never fired T (its pipeline started later, so its clock
// aligned past T) simply contributes nothing to T. Shards whose
// subscription dies stop gating the watermark; every batch emitted after
// the first death is flagged partial.
type cqMerger struct {
	plan *MergePlan
	emit func(closeUS int64, rows []types.Row, partial bool)

	mu       sync.Mutex
	pending  []map[int64][]types.Row // per shard: close → rows
	hwm      []int64                 // per shard: latest close seen
	alive    []bool
	partial  bool
	lost     map[int64]bool // closes a shard fired but could not send: they emit partial
	emitted  bool           // any close emitted yet
	lastEmit int64          // last emitted close; later frames for it are dropped
}

func newCQMerger(plan *MergePlan, shards int, partial bool, emit func(int64, []types.Row, bool)) *cqMerger {
	m := &cqMerger{
		plan:    plan,
		emit:    emit,
		pending: make([]map[int64][]types.Row, shards),
		hwm:     make([]int64, shards),
		alive:   make([]bool, shards),
		partial: partial,
		lost:    make(map[int64]bool),
	}
	for i := range m.pending {
		m.pending[i] = make(map[int64][]types.Row)
		m.alive[i] = true
	}
	return m
}

// onBatch ingests one shard's window batch. Frames for closes already
// emitted are dropped — per-shard closes arrive in order, so this only
// happens for pathological senders.
func (m *cqMerger) onBatch(shard int, closeUS int64, rows []types.Row) {
	m.ingest(shard, closeUS, rows, false)
}

// onLost ingests a close a shard fired but could not send (the error frame
// that replaced a batch over the frame cap): no rows, and it emits partial.
func (m *cqMerger) onLost(shard int, closeUS int64) { m.ingest(shard, closeUS, nil, true) }

func (m *cqMerger) ingest(shard int, closeUS int64, rows []types.Row, lost bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.emitted && closeUS <= m.lastEmit {
		return
	}
	if lost {
		m.lost[closeUS] = true
	}
	m.pending[shard][closeUS] = append(m.pending[shard][closeUS], rows...) // a key even for no rows
	if closeUS > m.hwm[shard] {
		m.hwm[shard] = closeUS
	}
	m.drainLocked()
}

// markDead removes a shard from the watermark; its already received
// batches still merge, later closes emit partial.
func (m *cqMerger) markDead(shard int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.alive[shard] {
		return
	}
	m.alive[shard] = false
	m.partial = true
	m.drainLocked()
}

// drainLocked emits every close the watermark has passed, in order.
func (m *cqMerger) drainLocked() {
	for {
		t, ok := m.minPendingLocked()
		if !ok {
			return
		}
		for i, alive := range m.alive {
			if alive && m.hwm[i] < t {
				return // shard i may still fire t
			}
		}
		parts := make([][]types.Row, len(m.pending))
		for i := range m.pending {
			parts[i] = m.pending[i][t]
			delete(m.pending[i], t)
		}
		m.emitted, m.lastEmit = true, t
		partial := m.partial || m.lost[t]
		delete(m.lost, t)
		// A close whose merge fails emits as a lost window does: partial,
		// here with no rows.
		rows, err := m.plan.Merge(parts)
		m.emit(t, rows, partial || err != nil)
	}
}

// minPendingLocked finds the smallest close any shard still holds.
func (m *cqMerger) minPendingLocked() (int64, bool) {
	min, ok := int64(0), false
	for i := range m.pending {
		for c := range m.pending[i] {
			if !ok || c < min {
				min, ok = c, true
			}
		}
	}
	return min, ok
}
