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
// life of the heap — a version is never moved and its RowID never given to
// another, Vacuum included — which lets indexes reference them, lets the WAL
// and replication events name them, and makes a checkpoint a local matter.
type RowID uint64

// version is one MVCC row version.
type version struct {
	xmin txn.ID
	xmax txn.ID
	row  types.Row
}

// segRows is how many versions a segment holds (40 B each). Version id
// lives at segs[id/segRows][id%segRows], if the heap holds anything there: a
// RowID below the next one with no slot behind it (a nil segment, or one
// shorter than the offset) is a gap no snapshot sees, as is a slot whose xmin
// is 0 — what an aborted transaction's RowIDs are to a replica, and what
// Vacuum leaves. The first segment grows as a slice
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
// are delete+insert. Vacuum reclaims dead versions where they lie.
type Heap struct {
	mu     sync.RWMutex
	name   string
	schema types.Schema
	segs   [][]version
	n      RowID  // the next RowID
	gen    uint64 // writes that can change what a snapshot reads (see Stamp)
	last   txn.ID // the largest transaction ID stamped
}

// NewHeap creates an empty heap for the given schema.
func NewHeap(name string, schema types.Schema) *Heap {
	return &Heap{name: name, schema: schema}
}

// Name returns the heap's table name.
func (h *Heap) Name() string { return h.name }

// Schema returns the heap's schema.
func (h *Heap) Schema() types.Schema { return h.schema }

// at returns version id, or nil where the heap holds none. Callers hold mu.
func (h *Heap) at(id RowID) *version {
	if si := id / segRows; si < RowID(len(h.segs)) {
		if seg := h.segs[si]; id%segRows < RowID(len(seg)) {
			return &seg[id%segRows]
		}
	}
	return nil
}

// slot returns the place of version id, making room for it: the segments
// between are left nil, so a heap whose first row is RowID 10⁷ costs one
// segment and the list of them. Callers hold mu for writing.
func (h *Heap) slot(id RowID) *version {
	si, off := int(id/segRows), int(id%segRows)
	if si >= len(h.segs) {
		if si >= cap(h.segs) {
			h.segs = append(make([][]version, 0, max(si+1, 2*cap(h.segs))), h.segs...)
		}
		h.segs = h.segs[:si+1] // never shortened: what lies past the old length is nil
	}
	seg := h.segs[si]
	switch {
	case off < len(seg):
	case si == 0 && off == len(seg):
		seg = append(seg, version{}) // the first segment grows by append
	case off < cap(seg):
		seg = seg[:off+1]
	default:
		seg = append(make([]version, 0, segRows), seg...)[:off+1]
	}
	h.segs[si] = seg
	return &seg[off]
}

// InsertRun is the heap's one write: under a single lock acquisition it
// stores rows as versions owned by tx at consecutive RowIDs and returns the
// first, so a reader sees all of a batch or none of it and a batch is one
// RowID run. Every row must match the schema arity; the caller has already
// type-checked.
func (h *Heap) InsertRun(tx txn.ID, rows []types.Row) (RowID, error) {
	if err := h.checkArity(rows); err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	first := h.n
	h.put(tx, first, rows)
	return first, nil
}

// InsertRunAt is InsertRun at explicit RowIDs, first and up. Replay and
// replication apply use it so local numbering matches what the primary
// logged; the RowIDs it skips are a gap, for which nothing is allocated.
// Re-applying a row whose slot is occupied refreshes the stored row but
// keeps the existing visibility stamps; occupied lists those rows' indexes,
// so the caller can skip their index maintenance — nil when every row was new.
func (h *Heap) InsertRunAt(tx txn.ID, first RowID, rows []types.Row) (occupied []int, err error) {
	if err := h.checkArity(rows); err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.put(tx, first, rows), nil
}

func (h *Heap) checkArity(rows []types.Row) error {
	for _, row := range rows {
		if len(row) != len(h.schema) {
			return fmt.Errorf("storage: %s: row has %d columns, schema has %d",
				h.name, len(row), len(h.schema))
		}
	}
	return nil
}

// put stores rows at first and up. Callers hold mu for writing.
func (h *Heap) put(tx txn.ID, first RowID, rows []types.Row) (occupied []int) {
	h.n = max(h.n, first+RowID(len(rows)))
	h.gen, h.last = h.gen+1, max(h.last, tx)
	for i, row := range rows {
		if v := h.slot(first + RowID(i)); v.xmin != 0 {
			v.row = row
			occupied = append(occupied, i)
		} else {
			*v = version{xmin: tx, row: row}
		}
	}
	return occupied
}

// NextID returns the RowID the next InsertRun will assign.
func (h *Heap) NextID() RowID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.n
}

// EnsureNext makes the next InsertRun assign RowID n at least. A checkpoint and
// a replication snapshot carry it, so numbering continues where it stood even
// when the trailing versions were invisible and therefore absent.
func (h *Heap) EnsureNext(n RowID) {
	h.mu.Lock()
	h.n = max(h.n, n)
	h.mu.Unlock()
}

// Delete stamps the version as deleted by tx. A RowID that holds no version,
// or one already deleted (a write-write conflict; a replayed record already
// applied), is an error and changes nothing.
func (h *Heap) Delete(tx txn.ID, id RowID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	v := h.at(id)
	if v == nil || v.xmin == 0 {
		return fmt.Errorf("storage: %s: no row %d", h.name, id)
	}
	if v.xmax != 0 {
		return fmt.Errorf("storage: %s: row %d concurrently deleted", h.name, id)
	}
	v.xmax = tx
	h.gen, h.last = h.gen+1, max(h.last, tx)
	return nil
}

// UndoDelete clears a delete stamp set by an aborted transaction.
func (h *Heap) UndoDelete(tx txn.ID, id RowID) {
	h.mu.Lock()
	if v := h.at(id); v != nil && v.xmax == tx {
		v.xmax = 0
		h.gen++
	}
	h.mu.Unlock()
}

// Stamp returns the heap's write generation, which every insert, delete and
// undone delete moves, and the largest transaction ID it has stamped. Two
// snapshots taken before it was read that both Decide last read the same rows
// at one generation. Vacuum moves neither: no such snapshot sees what it takes.
func (h *Heap) Stamp() (gen uint64, last txn.ID) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.gen, h.last
}

// Get returns the row for id if it is visible under snap.
func (h *Heap) Get(snap txn.Snapshot, id RowID) (types.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if v := h.at(id); v != nil && snap.VisibleVersion(v.xmin, v.xmax) {
		return v.row, true
	}
	return nil, false
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
	for got := 0; pos < end && pos/segRows < RowID(len(h.segs)); {
		seg := h.segs[pos/segRows] // nil where nothing lives
		base := pos - pos%segRows  // the RowID of seg[0]
		for i, stop := pos-base, min(RowID(len(seg)), end-base); i < stop; i++ {
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
		pos = base + segRows
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

// Vacuum reclaims, where they lie, the versions that horizon and every later
// snapshot find dead (txn.Snapshot.Dead: created by an aborted transaction,
// or deleted by one horizon sees; a version of a transaction still in flight
// is left alone), handing each to dropped — its index entries can go — and
// returns how many. A reclaimed slot is a gap; a segment left with nothing
// but gaps is released. No RowID changes and none is reused, so callers need
// no lock above the heap's own; what is given up is that a segment with one
// survivor keeps its segRows slots until that row dies.
func (h *Heap) Vacuum(horizon txn.Snapshot, dropped func(RowID, types.Row)) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	removed := 0
	for si, seg := range h.segs {
		held := false
		for i := range seg {
			v := &seg[i]
			if v.xmin == 0 {
				continue
			}
			if !horizon.Dead(v.xmin, v.xmax) {
				held = true
				continue
			}
			if dropped != nil {
				dropped(RowID(si*segRows+i), v.row)
			}
			*v = version{}
			removed++
		}
		if !held {
			h.segs[si] = nil
		}
	}
	return removed
}
