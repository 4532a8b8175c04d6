// Package storage implements the persistent structures of the engine: MVCC
// heap tables and B-tree secondary indexes. Per the paper's unification
// principle (§2.3), "stored data is simply streaming data that has been
// entered into persistent structures such as tables and indexes" — this
// package is those structures.
//
// A heap is grown and read in place. Its versions live in fixed-size
// segments (segRows), so an append never copies what is already stored, and
// every reader goes through one chunk read (Heap.Read): the visible rows of
// a RowID range into a container the caller owns, under one lock
// acquisition. Scan is that read in a loop; exec.SeqScan pulls it on demand.
package storage

import (
	"fmt"
	"sync"

	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// RowID identifies a row version within a heap. RowIDs are stable for the
// life of the heap (versions are never moved), which lets indexes reference
// them and lets the WAL name them during replay.
type RowID uint64

// version is one MVCC row version.
type version struct {
	xmin txn.ID
	xmax txn.ID
	row  types.Row
}

// segRows is how many versions a segment holds (40 B each). Version id
// lives at segs[id/segRows][id%segRows]. The first segment grows as a slice
// does, so a five-row table costs what five rows cost; every later one is
// allocated once at full size and never copied, where one slice regrowing
// re-allocated the table 1.25× over each time it filled and kept the old
// and new copies live while it did. Measured on bench/, seed 7,
// alloc_bytes_per_row at 1024 / 4096 / 16384 / 65536 rows: wire_durable
// (two tables of some 300 000 rows) 1 386 / 1 385 / 1 387 / 1 470,
// report_mixed 1 148 / 1 149 / 1 147 / 1 164, against 1 940 and 6 606 with
// one slice; peak RSS 588–628 MB throughout against 818. Anything up to
// 16 384 costs the same; 4096 (160 kB) is the middle of that range.
const segRows = 4096

// Heap is an append-only, versioned row store. Deletes stamp xmax; updates
// are delete+insert. A background vacuum is unnecessary at the scale this
// engine targets, but Vacuum is provided for long-running processes.
type Heap struct {
	mu     sync.RWMutex
	name   string
	schema types.Schema
	segs   [][]version // all of length segRows but the last
	n      RowID       // versions held: the next RowID
}

// NewHeap creates an empty heap for the given schema.
func NewHeap(name string, schema types.Schema) *Heap {
	return &Heap{name: name, schema: schema}
}

// Name returns the heap's table name.
func (h *Heap) Name() string { return h.name }

// Schema returns the heap's schema.
func (h *Heap) Schema() types.Schema { return h.schema }

// at returns version id, which the caller knows to exist. Callers hold mu.
func (h *Heap) at(id RowID) *version { return &h.segs[id/segRows][id%segRows] }

// push appends a version as RowID h.n. Callers hold mu.
func (h *Heap) push(v version) {
	last := len(h.segs) - 1
	if last < 0 || len(h.segs[last]) == segRows {
		var seg []version // the first segment grows by append
		if last >= 0 {
			seg = make([]version, 0, segRows)
		}
		h.segs = append(h.segs, seg)
		last++
	}
	h.segs[last] = append(h.segs[last], v)
	h.n++
}

func (h *Heap) checkArity(row types.Row) error {
	if len(row) != len(h.schema) {
		return fmt.Errorf("storage: %s: row has %d columns, schema has %d",
			h.name, len(row), len(h.schema))
	}
	return nil
}

// Insert appends a new row version owned by tx and returns its RowID.
// The row must match the schema arity; the caller has already type-checked.
func (h *Heap) Insert(tx txn.ID, row types.Row) (RowID, error) {
	if err := h.checkArity(row); err != nil {
		return 0, err
	}
	h.mu.Lock()
	id := h.n
	h.push(version{xmin: tx, row: row})
	h.mu.Unlock()
	return id, nil
}

// InsertAt places a row version owned by tx at an explicit RowID. Replay
// and replication apply use it so local numbering matches what the
// primary logged, including gaps left by aborted transactions: any gap
// below id is padded with never-visible versions (xmin 0, which no
// snapshot sees). Re-applying a record whose slot is already occupied
// refreshes the stored row but keeps the existing visibility stamps, and
// reports replaced=true so the caller can skip index maintenance — this
// makes apply idempotent across an overlap of snapshot and live tail.
func (h *Heap) InsertAt(tx txn.ID, id RowID, row types.Row) (replaced bool, err error) {
	if err := h.checkArity(row); err != nil {
		return false, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.n < id {
		h.push(version{})
	}
	if h.n == id {
		h.push(version{xmin: tx, row: row})
		return false, nil
	}
	v := h.at(id)
	if v.xmin == 0 {
		*v = version{xmin: tx, row: row}
		return false, nil
	}
	v.row = row
	return true, nil
}

// DeleteReplay stamps id deleted like Delete, but tolerates
// re-application: a missing or already-deleted version reports
// applied=false instead of erroring, so a replayed log suffix can overlap
// work already applied.
func (h *Heap) DeleteReplay(tx txn.ID, id RowID) (applied bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id >= h.n {
		return false
	}
	v := h.at(id)
	if v.xmin == 0 || v.xmax != 0 {
		return false
	}
	v.xmax = tx
	return true
}

// NextID returns the RowID the next Insert will assign.
func (h *Heap) NextID() RowID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.n
}

// EnsureNext pads the heap with never-visible versions until the next
// Insert would assign RowID n. Replication snapshots use it so a replica
// continues the primary's numbering even when the trailing versions were
// invisible (aborted) and therefore absent from the snapshot.
func (h *Heap) EnsureNext(n RowID) {
	h.mu.Lock()
	for h.n < n {
		h.push(version{})
	}
	h.mu.Unlock()
}

// Delete stamps the version as deleted by tx. Deleting an already-deleted
// version is an error (write-write conflict surfaced to the caller).
func (h *Heap) Delete(tx txn.ID, id RowID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id >= h.n {
		return fmt.Errorf("storage: %s: no row %d", h.name, id)
	}
	v := h.at(id)
	if v.xmax != 0 {
		return fmt.Errorf("storage: %s: row %d concurrently deleted", h.name, id)
	}
	v.xmax = tx
	return nil
}

// UndoDelete clears a delete stamp set by an aborted transaction.
func (h *Heap) UndoDelete(tx txn.ID, id RowID) {
	h.mu.Lock()
	if id < h.n && h.at(id).xmax == tx {
		h.at(id).xmax = 0
	}
	h.mu.Unlock()
}

// Get returns the row for id if it is visible under snap.
func (h *Heap) Get(snap txn.Snapshot, id RowID) (types.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if id >= h.n {
		return nil, false
	}
	v := *h.at(id)
	if !snap.VisibleVersion(v.xmin, v.xmax) {
		return nil, false
	}
	return v.row, true
}

// Read is the heap's one read: under a single lock acquisition it appends
// to *rows the rows of versions [pos, end) that are visible under snap, in
// RowID order, until max of them have been appended or the range is
// exhausted, and returns where to resume — one past the last version it
// examined, so a read that stops at max has gone no further than the row
// that filled it. With ids non-nil, each row's RowID is appended to *ids.
// The containers are the caller's; the rows must not be mutated. A caller
// reading a table to the end fixes end (NextID) before its first call:
// versions appended later are invisible to any snapshot it can hold.
func (h *Heap) Read(snap txn.Snapshot, pos, end RowID, max int, rows *[]types.Row, ids *[]RowID) RowID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	held := min(end, h.n) // a Vacuum may have shortened the heap
	for got := 0; pos < held; {
		seg := h.segs[pos/segRows]
		base := pos - pos%segRows // the RowID of seg[0]
		stop := min(RowID(len(seg)), held-base)
		for i := pos - base; i < stop; i++ {
			if v := &seg[i]; snap.VisibleVersion(v.xmin, v.xmax) {
				*rows = append(*rows, v.row)
				if ids != nil {
					*ids = append(*ids, base+i)
				}
				if got++; got == max {
					return base + i + 1
				}
			}
		}
		pos = base + stop
	}
	return end
}

// scanRows is how many rows Scan reads per lock acquisition.
const scanRows = 1024

// Scan calls fn for every version visible under snap, in insertion order.
// fn returns false to stop early. The row passed to fn must not be
// mutated. fn runs outside the heap's lock — it may write to the heap — and
// sees no version appended after the scan began.
func (h *Heap) Scan(snap txn.Snapshot, fn func(RowID, types.Row) bool) {
	end := h.NextID()
	size := min(scanRows, int(end))
	rows, ids := make([]types.Row, 0, size), make([]RowID, 0, size)
	for pos := RowID(0); pos < end; {
		rows, ids = rows[:0], ids[:0]
		pos = h.Read(snap, pos, end, size, &rows, &ids)
		for i, row := range rows {
			if !fn(ids[i], row) {
				return
			}
		}
	}
}

// Vacuum removes versions invisible to every snapshot at or after horizon
// and returns the number removed. RowIDs are NOT stable across Vacuum, so
// callers must rebuild indexes afterwards; the engine only vacuums during
// checkpoints when it holds an exclusive lock.
func (h *Heap) Vacuum(horizon txn.Snapshot) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Compact in place: the write position never passes the read position.
	kept := RowID(0)
	for id := RowID(0); id < h.n; id++ {
		if v := h.at(id); horizon.VisibleVersion(v.xmin, v.xmax) {
			// Freeze: owner is historic now.
			*h.at(kept) = version{xmin: txn.Bootstrap, row: v.row}
			kept++
		}
	}
	removed := int(h.n - kept)
	// Drop the emptied segments and the rows behind the new end.
	inUse := int((kept + segRows - 1) / segRows)
	clear(h.segs[inUse:])
	h.segs = h.segs[:inUse]
	if rest := kept % segRows; rest != 0 {
		last := h.segs[inUse-1]
		clear(last[rest:])
		h.segs[inUse-1] = last[:rest]
	}
	h.n = kept
	return removed
}
