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
	"math/bits"
	"reflect"
	"slices"
	"sync"

	"streamrel/internal/txn"
	"streamrel/internal/types"
)

// RowID identifies a row version within a heap. RowIDs are stable for the
// life of the heap — a version is never moved and its RowID never given to
// another, Vacuum included — which lets indexes reference them, lets the WAL
// and replication events name them, and makes a checkpoint a local matter.
type RowID uint64

// version is one MVCC row version: its two stamps, 16 B. Its row is its
// segment's.
type version struct {
	xmin txn.ID
	xmax txn.ID
}

// segment holds segRows versions and their rows inline, in chunks of values
// that are never reallocated: a later segment's is one chunk of segRows rows,
// allocated with its stamps and this header as one object (newFull); the
// first segment's come as it grows, of 1, 1, 2, 4, … segRows/2 rows — chunk
// k > 0 holds slots [2^(k-1), 2^k). The bytes of the rows' VARCHARs are in
// strs, whose chunks the segment owns. A stored row is written once and never
// moves, so a reader may keep what Read hands out for as long as it likes (see
// Heap).
type segment struct {
	vers []version
	vals [firstChunks][]types.Datum
	strs types.Arena
}

// firstChunks is how many chunks the first segment's values come in.
const firstChunks = 13

// fullTypes holds, by width, the type of a later segment's one object: its
// header, its stamps and its values. A Go struct cannot have a field of
// run-time size, so reflect builds it, once a width.
var fullTypes sync.Map

// fullType returns fullTypes' type for width w, building it the first time.
func fullType(w int) reflect.Type {
	if t, ok := fullTypes.Load(w); ok {
		return t.(reflect.Type)
	}
	t := reflect.StructOf([]reflect.StructField{
		{Name: "Seg", Type: reflect.TypeFor[segment]()},
		{Name: "Stamps", Type: reflect.TypeFor[[segRows]version]()},
		{Name: "Vals", Type: reflect.ArrayOf(segRows*w, reflect.TypeFor[types.Datum]())},
	})
	reflect.PointerTo(t) // what reflect.New would build, and cache, at its first call
	stored, _ := fullTypes.LoadOrStore(w, t)
	return stored.(reflect.Type)
}

// newFull allocates a later segment whole, as one object of type full.
func newFull(full reflect.Type, w int) *segment {
	obj := reflect.New(full).Elem()
	seg := obj.Field(0).Addr().Interface().(*segment)
	seg.vers = obj.Field(1).Addr().Interface().(*[segRows]version)[:0]
	if w > 0 {
		seg.vals[0] = types.DatumsAt(obj.Field(2).Index(0).Addr().Interface().(*types.Datum), segRows*w)
	}
	return seg
}

// chunkOf returns which chunk of segment si holds slot off, and the slot the
// chunk begins with.
func chunkOf(si, off int) (k, start int) {
	if si > 0 {
		return 0, 0
	}
	k = bits.Len(uint(off))
	return k, 1 << k >> 1
}

// row is slot off's row in segment si, a full-capacity subslice of its chunk.
func (s *segment) row(si, off, width int) types.Row {
	k, start := chunkOf(si, off)
	i := (off - start) * width
	return s.vals[k][i : i+width : i+width]
}

// segRows is how many versions a segment holds: 16 B of stamps and 16 B a
// column each. Version id lives at segs[id/segRows].vers[id%segRows], if the
// heap holds anything there: a RowID below the next one with no slot behind it
// (a nil segment, or one shorter than the offset) is a gap no snapshot sees,
// as is a slot whose xmin is 0 — what an aborted transaction's RowIDs are to a
// replica, and what Vacuum leaves. The first segment grows as a slice does, so
// a five-row table costs what five rows cost; every later one is allocated
// once at full size and never copied, where one slice regrowing re-allocated
// the table 1.25× over each time it filled and kept both copies live while it
// did. A sweep on bench/ (seed 7, 40 B versions) found 1 024 to 16 384 cost
// the same bytes a row on wire_durable and report_mixed, and one slice 1.4 to
// 5.7 times as many; 4096 is the middle of that range.
const segRows = 4096

// Heap is an append-only, versioned row store. Deletes stamp xmax; updates
// are delete+insert. Vacuum reclaims dead versions where they lie.
//
// A heap owns its bytes: InsertRun and InsertRunAt copy each row, strings
// included, into its segment. Two rules keep every row it hands out valid:
//   - A slot keeps the row first stored in it. Re-applying a row to an
//     occupied slot stores nothing, and writing a slot Vacuum reclaimed from a
//     version some snapshot saw (its xmax is still set) first copies the
//     slot's chunk of values, leaving readers the old one.
//   - Vacuum zeroes stamps only — a dead version's xmin — and frees whole
//     chunks and segments or nothing: what it frees held no live version, and
//     a reader holding one of its rows keeps that memory alive.
type Heap struct {
	mu     sync.RWMutex
	name   string
	schema types.Schema
	segs   []*segment
	full   reflect.Type // a later segment's (fullType)
	n      RowID        // the next RowID
	mut    uint64       // writes below n that can change what a snapshot reads (see Stamp)
	last   txn.ID       // the largest transaction ID stamped
}

// NewHeap creates an empty heap for the given schema.
func NewHeap(name string, schema types.Schema) *Heap {
	return &Heap{name: name, schema: schema, full: fullType(len(schema))}
}

// Name returns the heap's table name.
func (h *Heap) Name() string { return h.name }

// Schema returns the heap's schema.
func (h *Heap) Schema() types.Schema { return h.schema }

// at returns the segment holding version id, its index and id's offset
// there, or nil where the heap holds none. Callers hold mu.
func (h *Heap) at(id RowID) (seg *segment, si, off int) {
	if si, off = int(id/segRows), int(id%segRows); si < len(h.segs) {
		if seg = h.segs[si]; seg != nil && off < len(seg.vers) {
			return seg, si, off
		}
	}
	return nil, 0, 0
}

// slot returns the segment holding version id, making room for it and its
// row: the segments between are left nil, so a heap whose first row is RowID
// 10⁷ costs one segment and the list of them. Callers hold mu for writing.
func (h *Heap) slot(si, off int) *segment {
	if si >= len(h.segs) {
		if si >= cap(h.segs) {
			h.segs = append(make([]*segment, 0, max(si+1, 2*cap(h.segs))), h.segs...)
		}
		h.segs = h.segs[:si+1] // never shortened: what lies past the old length is nil
	}
	seg := h.segs[si]
	switch {
	case seg != nil:
	case si > 0:
		seg = newFull(h.full, len(h.schema))
		h.segs[si] = seg
	default:
		seg = new(segment)
		h.segs[si] = seg
	}
	if off >= len(seg.vers) {
		seg.vers = slices.Grow(seg.vers, off+1-len(seg.vers))[:off+1]
	}
	if k, _ := chunkOf(si, off); seg.vals[k] == nil {
		rows := segRows
		if si == 0 {
			rows = max(1, 1<<k>>1)
		}
		seg.vals[k] = make([]types.Datum, rows*len(h.schema))
	}
	return seg
}

// InsertRun is the heap's one write: under a single lock acquisition it
// stores copies of rows as versions owned by tx at consecutive RowIDs, points
// rows at the stored copies, and returns the first RowID, so a reader sees
// all of a batch or none of it and a batch is one RowID run. Every row must
// match the schema arity; the caller has already type-checked.
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
// Re-applying a row whose slot is occupied keeps the stored row and its
// visibility stamps, and points rows there too; occupied lists those rows'
// indexes, so the caller can skip their index maintenance — nil when every
// row was new.
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

// put stores copies of rows at first and up, a mutation below n, and points
// rows at them. Callers hold mu for writing.
func (h *Heap) put(tx txn.ID, first RowID, rows []types.Row) (occupied []int) {
	if first < h.n {
		h.mut++
	}
	h.n, h.last = max(h.n, first+RowID(len(rows))), max(h.last, tx)
	w := len(h.schema)
	var copied *[]types.Datum // the chunk this call already copied
	for i, row := range rows {
		id := first + RowID(i)
		si, off := int(id/segRows), int(id%segRows)
		seg := h.slot(si, off)
		k, _ := chunkOf(si, off)
		switch v := &seg.vers[off]; {
		case v.xmin != 0:
			occupied = append(occupied, i)
		case v.xmax != 0 && &seg.vals[k] != copied: // reclaimed, and its row maybe held
			seg.vals[k], copied = slices.Clone(seg.vals[k]), &seg.vals[k]
			fallthrough
		default:
			*v = version{xmin: tx}
			seg.strs.CopyRow(seg.row(si, off, w), row, h.arenaHint(si))
		}
		rows[i] = seg.row(si, off, w)
	}
	return occupied
}

// arenaHint is the least segment si's next string chunk holds: the first
// segment's strings grow as its slots do, and a later one's first chunk holds
// what the segment before it took and 1/16 more, so it is usually the only one.
func (h *Heap) arenaHint(si int) int {
	if si > 0 && h.segs[si].strs.Used() == 0 && h.segs[si-1] != nil {
		return h.segs[si-1].strs.Used() * 17 / 16
	}
	return 64
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
	seg, _, off := h.at(id)
	if seg == nil || seg.vers[off].xmin == 0 {
		return fmt.Errorf("storage: %s: no row %d", h.name, id)
	}
	v := &seg.vers[off]
	if v.xmax != 0 {
		return fmt.Errorf("storage: %s: row %d concurrently deleted", h.name, id)
	}
	v.xmax = tx
	h.mut, h.last = h.mut+1, max(h.last, tx)
	return nil
}

// UndoDelete clears a delete stamp set by an aborted transaction.
func (h *Heap) UndoDelete(tx txn.ID, id RowID) {
	h.mu.Lock()
	if seg, _, off := h.at(id); seg != nil && seg.vers[off].xmin != 0 && seg.vers[off].xmax == tx {
		seg.vers[off].xmax = 0
		h.mut++
	}
	h.mu.Unlock()
}

// Mark is a heap's mutation generation — moved by a delete, an undone delete
// and a row stored below the next RowID — and its next RowID.
type Mark struct {
	Mut  uint64
	Next RowID
}

// Stamp returns the heap's mark and the largest transaction ID it has
// stamped, from one read. Snapshots taken before it was read that Decide last
// read the same rows below Next at every mark of the same Mut. Vacuum moves
// neither: no such snapshot sees what it takes.
func (h *Heap) Stamp() (Mark, txn.ID) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return Mark{h.mut, h.n}, h.last
}

// Get returns the row for id if it is visible under snap: the heap's own, a
// full-capacity subslice of its segment, which the caller may keep and must
// not mutate.
func (h *Heap) Get(snap txn.Snapshot, id RowID) (types.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if seg, si, off := h.at(id); seg != nil && snap.VisibleVersion(seg.vers[off].xmin, seg.vers[off].xmax) {
		return seg.row(si, off, len(h.schema)), true
	}
	return nil, false
}

// Read is the heap's one read: under a single lock acquisition it appends
// to *rows the rows of versions [pos, end) that are visible under snap, in
// RowID order, until max of them have been appended or the range is
// exhausted, and returns where to resume — one past the last version it
// examined, so a read that stops at max has gone no further than the row
// that filled it. With ids non-nil, each row's RowID is appended to *ids.
// The containers are the caller's; the rows are the heap's own, full-capacity
// subslices of its segments, which the caller may keep and must not mutate.
// A caller reading a table to the end fixes end (NextID) before its first
// call: versions appended later are invisible to any snapshot it can hold.
func (h *Heap) Read(snap txn.Snapshot, pos, end RowID, max int, rows *[]types.Row, ids *[]RowID) RowID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	w := len(h.schema)
	for got := 0; pos < end && pos/segRows < RowID(len(h.segs)); {
		si, seg := int(pos/segRows), h.segs[pos/segRows]
		var vers []version
		if seg != nil { // nil where nothing lives
			vers = seg.vers
		}
		base := pos - pos%segRows // the RowID of vers[0]
		for i, stop := pos-base, min(RowID(len(vers)), end-base); i < stop; i++ {
			if v := &vers[i]; snap.VisibleVersion(v.xmin, v.xmax) {
				*rows = append(*rows, seg.row(si, int(i), w))
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
// returns how many. A reclaimed slot is a gap — its xmin zeroed, its row and
// xmax left as they were (see Heap) — and a chunk of values or a segment left
// with nothing but gaps is released whole. No RowID changes and none is
// reused, so callers need no lock above the heap's own; what is given up is
// that a segment with one survivor keeps its segRows slots and their values
// until that row dies.
func (h *Heap) Vacuum(horizon txn.Snapshot, dropped func(RowID, types.Row)) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	removed := 0
	for si, seg := range h.segs {
		if seg == nil {
			continue
		}
		var held [firstChunks]bool // which chunks keep a live version
		for i := range seg.vers {
			v := &seg.vers[i]
			if v.xmin == 0 {
				continue
			}
			if k, _ := chunkOf(si, i); !horizon.Dead(v.xmin, v.xmax) {
				held[k] = true
				continue
			}
			if dropped != nil {
				dropped(RowID(si*segRows+i), seg.row(si, i, len(h.schema)))
			}
			v.xmin = 0
			removed++
		}
		for k := range seg.vals {
			if !held[k] {
				seg.vals[k] = nil
			}
		}
		if held == [firstChunks]bool{} {
			h.segs[si] = nil
		}
	}
	return removed
}
