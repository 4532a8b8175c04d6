// Package storage implements the persistent structures of the engine: MVCC
// heap tables and B-tree secondary indexes. Per the paper's unification
// principle (§2.3), "stored data is simply streaming data that has been
// entered into persistent structures such as tables and indexes" — this
// package is those structures.
//
// A heap is grown in place. Its versions live in fixed-size segments
// (segRows), so an append never copies what is already stored, and a segment
// keeps each column as its type's 8-byte words (types.Datum.Word), which the
// collector does not scan. Every reader goes through one chunk read
// (Heap.Read): the visible rows of a RowID range, built as Datums into a
// block and a container the caller owns, under one lock acquisition. Scan is
// that read in a loop; exec.SeqScan pulls it on demand, reusing its block when
// its consumer keeps no row.
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

// run stamps a stretch of a segment's slots with the transaction that
// created their versions (xmin): the slots from the run before's end (0 for
// the first run) up to end. A run whose xmin is 0 is a gap no snapshot sees.
type run struct {
	xmin txn.ID
	end  int
}

// segment holds segRows versions and their rows inline, in chunks of words
// that are never reallocated: a later segment's is one chunk of segRows rows,
// allocated with inlineRuns runs and this header as one object (newFull); the
// first segment's come as it grows, of 1, 1, 2, 4, … segRows/2 rows — chunk
// k > 0 holds slots [2^(k-1), 2^k). A chunk holds its rows column by column,
// each value its column type's word (types.Datum.Word), and its NULL bits in
// the same order, in a bitmap made at the chunk's first NULL. A VARCHAR's word
// places its bytes in strs, whose chunks the segment owns, each distinct
// string once while the heap's table of them held it (Heap.seen) — never bytes
// of another segment's, so a segment Vacuum frees takes its strings with it. A
// stored row is written once and never moves, so a Datum a reader built from
// it stays valid for as long as it is held (see Heap).
//
// A version's stamps are its run's xmin and its slot's xmax, the transaction
// that deleted it. The runs cover the segment's slots in order: a batch is one
// transaction's run of RowIDs, so a segment of 256-row batches holds 16 runs.
// The xmax lane is nil until the segment's first Delete.
type segment struct {
	runs  []run
	xmax  []txn.ID
	vals  [firstChunks][]uint64
	nulls [firstChunks][]uint64
	strs  types.Arena
}

// inlineRuns is how many runs a later segment's one object holds; past them
// its runs spill to a slice of their own.
const inlineRuns = 32

// firstChunks is how many chunks the first segment's values come in.
const firstChunks = 13

// fullTypes holds, by width, the type of a later segment's one object: its
// header, its inline runs and its values. A Go struct cannot have a field of
// run-time size, so reflect builds it, once a width.
var fullTypes sync.Map

// fullType returns fullTypes' type for width w, building it the first time.
func fullType(w int) reflect.Type {
	if t, ok := fullTypes.Load(w); ok {
		return t.(reflect.Type)
	}
	t := reflect.StructOf([]reflect.StructField{
		{Name: "Seg", Type: reflect.TypeFor[segment]()},
		{Name: "Runs", Type: reflect.TypeFor[[inlineRuns]run]()},
		{Name: "Vals", Type: reflect.ArrayOf(segRows*w, reflect.TypeFor[uint64]())},
	})
	reflect.PointerTo(t) // what reflect.New would build, and cache, at its first call
	stored, _ := fullTypes.LoadOrStore(w, t)
	return stored.(reflect.Type)
}

// newFull allocates a later segment whole, as one object of type full.
func newFull(full reflect.Type, w int) *segment {
	obj := reflect.New(full).Elem()
	seg := obj.Field(0).Addr().Interface().(*segment)
	seg.runs = obj.Field(1).Addr().Interface().(*[inlineRuns]run)[:0]
	if w > 0 {
		seg.vals[0] = types.WordsAt(obj.Field(2).Index(0).Addr().Interface().(*uint64), segRows*w)
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

// chunkRows is how many slots chunk k of segment si holds.
func chunkRows(si, k int) int {
	if si > 0 {
		return segRows
	}
	return max(1, 1<<k>>1)
}

// span is a view of chunk k of segment si, all of its rows.
func (s *segment) span(si, k int, schema *types.Schema) types.Span {
	rows := chunkRows(si, k)
	return types.NewSpan(schema, s.vals[k], s.nulls[k], &s.strs, rows, 0, rows)
}

// row builds slot off's row of segment si into dst and returns it.
func (s *segment) row(si, off int, schema *types.Schema, dst types.Row) types.Row {
	k, start := chunkOf(si, off)
	sp := s.span(si, k, schema)
	sp.Row(off-start, dst)
	return dst
}

// write stores row in slot j of chunk k, of rows slots, its strings copied
// into the segment's arena (types.Arena.Word).
func (s *segment) write(k, j, rows int, row types.Row, least int, seen []uint64) {
	for c, d := range row {
		i := c*rows + j
		switch {
		case d.IsNull():
			if s.nulls[k] == nil {
				s.nulls[k] = make([]uint64, (len(s.vals[k])+63)/64)
			}
			types.SetBit(s.nulls[k], i, true)
			continue
		case d.Type() == types.TypeString:
			s.vals[k][i] = s.strs.Word(d.Str(), least, seen)
		default:
			s.vals[k][i] = d.Word()
		}
		if s.nulls[k] != nil {
			types.SetBit(s.nulls[k], i, false)
		}
	}
}

// size is how many slots s holds: its last run's end.
func (s *segment) size() int {
	if n := len(s.runs); n > 0 {
		return s.runs[n-1].end
	}
	return 0
}

// find returns the index of the run holding slot off, which s holds: the last
// run, where appends land, or the one a binary search finds. Every run holds a
// slot, so that run's index is at most off, and at least off less the slots
// beyond one a run: where runs are slots, the search is one index.
func (s *segment) find(off int) int {
	lo, hi := max(0, off-(s.size()-len(s.runs))), min(off, len(s.runs)-1)
	if hi == len(s.runs)-1 && (hi == 0 || s.runs[hi-1].end <= off) {
		return hi
	}
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s.runs[m].end <= off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// xminAt is slot off's xmin, 0 past the segment's end.
func (s *segment) xminAt(off int) txn.ID {
	if off >= s.size() {
		return 0
	}
	return s.runs[s.find(off)].xmin
}

// xmaxAt is slot off's xmax, 0 where the lane does not reach.
func (s *segment) xmaxAt(off int) txn.ID {
	if off < len(s.xmax) {
		return s.xmax[off]
	}
	return 0
}

// stamp gives slot off of segment si, a gap or past the end, the xmin x. An
// append by the last run's transaction extends it; past the end the slots
// between become a gap; a slot in a gap splits its run and merges with equal
// neighbours.
func (s *segment) stamp(si, off int, x txn.ID) {
	if end := s.size(); off >= end {
		if off > end {
			s.add(si, run{0, off})
		}
		s.add(si, run{x, off + 1})
		return
	}
	i := s.find(off)
	r, start := s.runs[i], 0
	if i > 0 {
		start = s.runs[i-1].end
	}
	var buf [3]run
	parts := buf[:0]
	if start < off {
		parts = append(parts, run{r.xmin, off})
	}
	parts = append(parts, run{x, off + 1})
	if off+1 < r.end {
		parts = append(parts, run{r.xmin, r.end})
	}
	lo, hi := i, i+1 // the runs parts replace
	if lo > 0 && s.runs[lo-1].xmin == parts[0].xmin {
		lo--
	}
	if last := &parts[len(parts)-1]; hi < len(s.runs) && s.runs[hi].xmin == last.xmin {
		last.end, hi = s.runs[hi].end, hi+1
	}
	s.room(si, len(parts)-(hi-lo))
	s.runs = slices.Replace(s.runs, lo, hi, parts...)
}

// add appends r to segment si's runs, merged into the last one if it has r's
// xmin.
func (s *segment) add(si int, r run) {
	if n := len(s.runs); n > 0 && s.runs[n-1].xmin == r.xmin {
		s.runs[n-1].end = r.end
		return
	}
	s.room(si, 1)
	s.runs = append(s.runs, r)
}

// room makes room in segment si for k more runs. A run holds a slot at least,
// so a segment holds segRows of them at most: 16 B a slot, what its stamps cost
// before runs. The first segment's runs double as its slots do; a later one's,
// past its inline runs, take all segRows at once, one allocation.
func (s *segment) room(si, k int) {
	if n := len(s.runs) + k; n > cap(s.runs) {
		c := segRows
		if si == 0 {
			c = min(segRows, max(n, 2*cap(s.runs)))
		}
		s.runs = append(make([]run, 0, c), s.runs...)
	}
}

// segRows is how many versions a segment holds: 8 B a column each, its run's
// share of 16 B a run, and 8 B of xmax once the segment has seen a Delete.
// Version id lives in segment segs[id/segRows] at slot id%segRows, if the heap
// holds anything there: a RowID below the next one with no slot behind it (a
// nil segment, or one shorter than the offset) is a gap no snapshot sees, as
// is a slot in a gap run — what an aborted transaction's RowIDs are to a
// replica, and what Vacuum leaves. The first segment grows as a slice does, so
// a five-row table costs what five rows cost; every later one is allocated
// once at full size and never copied, where one slice regrowing re-allocated
// the table 1.25× over each time it filled and kept both copies live while it
// did. A sweep on bench/ (seed 7, 40 B versions: it predates runs, when every
// slot paid 16 B of stamps) found 1 024 to 16 384 cost the same bytes a row on
// wire_durable and report_mixed, and one slice 1.4 to 5.7 times as many; 4096
// is the middle of that range.
const segRows = 4096

// Heap is an append-only, versioned row store. Deletes stamp xmax; updates
// are delete+insert. Vacuum reclaims dead versions where they lie.
//
// A heap owns its bytes: InsertRun and InsertRunAt copy each row into its
// segment as words, strings included, each distinct one once a segment
// (seen), and leave the caller's rows as they were. A reader's rows are
// Datums built into the reader's block (Read), whose VARCHARs point into the
// segment's strings; two rules keep those, and the spans the replication ring
// holds (Spans), valid for as long as they are held:
//   - A slot keeps the row first stored in it. Re-applying a row to an
//     occupied slot stores nothing, and writing a slot Vacuum reclaimed from a
//     version some snapshot saw (its xmax is still set) first copies the
//     slot's chunk of words and NULL bits, leaving readers the old one.
//   - Vacuum zeroes stamps only — a dead version's xmin, its slot made a gap —
//     and frees whole chunks and segments or nothing: what it frees held no
//     live version, and a reader holding one of its rows' strings or a span
//     of it keeps that memory alive.
type Heap struct {
	mu     sync.RWMutex
	name   string
	schema types.Schema
	segs   []*segment
	full   reflect.Type // a later segment's (fullType)
	n      RowID        // the next RowID
	mut    uint64       // writes below n that can change what a snapshot reads (see Stamp)
	last   txn.ID       // the largest transaction ID stamped
	// seen is the table of the strings segment seenSeg's arena holds, by hash
	// (types.Arena.Word), so an archive copies a url into a segment once,
	// not once a row. It is the heap's, allocated once, not a segment's; it is
	// emptied when a write lands in another segment or Vacuum frees this one,
	// so it never points into another arena; it grows with the slots written,
	// up to segRows entries, so a five-row table pays for eight. Nil in a heap
	// without a VARCHAR column.
	seen    []uint64
	seenSeg int
	varchar bool
}

// NewHeap creates an empty heap for the given schema.
func NewHeap(name string, schema types.Schema) *Heap {
	varchar := slices.ContainsFunc(schema, func(c types.Column) bool { return c.Type == types.TypeString })
	return &Heap{name: name, schema: schema, full: fullType(len(schema)), varchar: varchar}
}

// Name returns the heap's table name.
func (h *Heap) Name() string { return h.name }

// Schema returns the heap's schema.
func (h *Heap) Schema() types.Schema { return h.schema }

// at returns the segment holding version id, its index and id's offset
// there, or nil where the heap holds none. Callers hold mu.
func (h *Heap) at(id RowID) (seg *segment, si, off int) {
	if si, off = int(id/segRows), int(id%segRows); si < len(h.segs) {
		if seg = h.segs[si]; seg != nil && off < seg.size() {
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
	if k, _ := chunkOf(si, off); seg.vals[k] == nil {
		seg.vals[k] = make([]uint64, chunkRows(si, k)*len(h.schema))
	}
	return seg
}

// InsertRun is the heap's one write: under a single lock acquisition it
// stores copies of rows as versions owned by tx at consecutive RowIDs and
// returns the first RowID, so a reader sees all of a batch or none of it and a
// batch is one RowID run. Every value must be NULL or of its column's type
// (types.CoerceRow).
func (h *Heap) InsertRun(tx txn.ID, rows []types.Row) (RowID, error) {
	strs, err := h.check(rows)
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	first := h.n
	if err := h.room(first, len(rows), strs); err != nil {
		return 0, err
	}
	h.put(tx, first, rows)
	return first, nil
}

// InsertRunAt is InsertRun at explicit RowIDs, first and up. Replay and
// replication apply use it so local numbering matches what the primary
// logged; the RowIDs it skips are a gap, for which nothing is allocated.
// Re-applying a row whose slot is occupied keeps the stored row and its
// visibility stamps; occupied lists those rows' indexes, so the caller can
// skip their index maintenance — nil when every row was new.
func (h *Heap) InsertRunAt(tx txn.ID, first RowID, rows []types.Row) (occupied []int, err error) {
	strs, err := h.check(rows)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.room(first, len(rows), strs); err != nil {
		return nil, err
	}
	return h.put(tx, first, rows), nil
}

// check returns the bytes of rows' VARCHARs, or why the schema refuses one.
func (h *Heap) check(rows []types.Row) (strs int, err error) {
	for _, row := range rows {
		if len(row) != len(h.schema) {
			return 0, fmt.Errorf("storage: %s: row has %d columns, schema has %d",
				h.name, len(row), len(h.schema))
		}
		for c, d := range row {
			switch t := d.Type(); {
			case d.IsNull():
			case t != h.schema[c].Type:
				return 0, fmt.Errorf("storage: %s: column %s holds a %s", h.name, h.schema[c].Name, t)
			case t == types.TypeString:
				strs += len(d.Str())
			}
		}
	}
	return strs, nil
}

// maxStrs is the most string bytes a segment holds: a word places them by a
// 32-bit offset and a 32-bit length. A variable, so a test can reach it.
var maxStrs = 1<<32 - 1

// room refuses a write of n rows at first whose strs string bytes could take
// a segment's past maxStrs, a segment not made yet holding none. Callers hold
// mu.
func (h *Heap) room(first RowID, n, strs int) error {
	for si := int(first / segRows); strs > 0 && si <= int((first+RowID(n)-1)/segRows); si++ {
		used := 0
		if si < len(h.segs) && h.segs[si] != nil {
			used = h.segs[si].strs.Used()
		}
		if used+strs > maxStrs {
			return fmt.Errorf("storage: %s: a segment's strings would pass %d bytes", h.name, maxStrs)
		}
	}
	return nil
}

// put stores copies of rows at first and up, a mutation below n. Callers hold
// mu for writing.
func (h *Heap) put(tx txn.ID, first RowID, rows []types.Row) (occupied []int) {
	if first < h.n {
		h.mut++
	}
	h.n, h.last = max(h.n, first+RowID(len(rows))), max(h.last, tx)
	var copied *[]uint64 // the chunk this call already copied
	for i, row := range rows {
		id := first + RowID(i)
		si, off := int(id/segRows), int(id%segRows)
		seg := h.slot(si, off)
		k, start := chunkOf(si, off)
		switch xmax := seg.xmaxAt(off); {
		case seg.xminAt(off) != 0:
			occupied = append(occupied, i)
		case xmax != 0 && &seg.vals[k] != copied: // reclaimed, and its row maybe held
			seg.vals[k], seg.nulls[k], copied = slices.Clone(seg.vals[k]), slices.Clone(seg.nulls[k]), &seg.vals[k]
			fallthrough
		default:
			if xmax != 0 {
				seg.xmax[off] = 0
			}
			seg.stamp(si, off, tx)
			seg.write(k, off-start, chunkRows(si, k), row, h.arenaHint(si), h.strings(si, off))
		}
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

// strings returns the table of the strings segment si holds (seen), for a
// write to its slot off. Callers hold mu for writing.
func (h *Heap) strings(si, off int) []uint64 {
	if !h.varchar {
		return nil
	}
	if si != h.seenSeg {
		clear(h.seen)
		h.seenSeg = si
	}
	if off >= len(h.seen) && len(h.seen) < segRows {
		h.seen = make([]uint64, min(segRows, 1<<bits.Len(uint(off))))
	}
	return h.seen
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
	seg, si, off := h.at(id)
	if seg == nil || seg.xminAt(off) == 0 {
		return fmt.Errorf("storage: %s: no row %d", h.name, id)
	}
	if seg.xmaxAt(off) != 0 {
		return fmt.Errorf("storage: %s: row %d concurrently deleted", h.name, id)
	}
	if off >= len(seg.xmax) { // the lane, whole in a later segment, grown as its slots are in the first
		n := segRows
		if si == 0 {
			n = min(segRows, 1<<bits.Len(uint(off)))
		}
		lane := make([]txn.ID, n)
		copy(lane, seg.xmax)
		seg.xmax = lane
	}
	seg.xmax[off] = tx
	h.mut, h.last = h.mut+1, max(h.last, tx)
	return nil
}

// UndoDelete clears a delete stamp set by an aborted transaction.
func (h *Heap) UndoDelete(tx txn.ID, id RowID) {
	h.mu.Lock()
	if seg, _, off := h.at(id); seg != nil && seg.xminAt(off) != 0 && tx != 0 && seg.xmaxAt(off) == tx {
		seg.xmax[off] = 0
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

// Get returns the row for id if it is visible under snap, built as Read
// builds one, into a row of its own, which the caller may keep.
func (h *Heap) Get(snap txn.Snapshot, id RowID) (types.Row, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if seg, si, off := h.at(id); seg != nil && snap.VisibleVersion(seg.xminAt(off), seg.xmaxAt(off)) {
		return seg.row(si, off, &h.schema, make(types.Row, len(h.schema))), true
	}
	return nil, false
}

// Read is the heap's one read: under a single lock acquisition it appends
// to *rows the rows of versions [pos, end) that are visible under snap, in
// RowID order, until max of them have been appended or the range is
// exhausted, and returns where to resume — one past the last version it
// examined, so a read that stops at max has gone no further than the row
// that filled it. With ids non-nil, each row's RowID is appended to *ids.
// The containers and blk are the caller's: each row is built into a row blk
// hands out (types.RowBlock.Row), its VARCHARs pointing into the segment's
// strings, which nothing writes again. So a row is the caller's for as long
// as blk does not hand its memory out again (Rewind). A caller reading a table
// to the end fixes end (NextID) before its first call: versions appended later
// are invisible to any snapshot it can hold. A run's xmin is checked once, and
// a row's xmax only where it has one.
func (h *Heap) Read(snap txn.Snapshot, pos, end RowID, max int, blk *types.RowBlock, rows *[]types.Row, ids *[]RowID) RowID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for got := 0; pos < end && pos/segRows < RowID(len(h.segs)); {
		si, seg := int(pos/segRows), h.segs[pos/segRows]
		base := pos - pos%segRows // the RowID of slot 0
		off, stop, ri := int(pos-base), 0, 0
		if seg != nil { // nil where nothing lives
			if stop = int(min(RowID(seg.size()), end-base)); off < stop {
				ri = seg.find(off)
			}
		}
		// A stretch of consecutive slots of one chunk is built a column at a
		// time (types.Span.Fill): sp is its chunk, spK the chunk's index, at
		// its first slot there and (*rows)[from:] its rows.
		var sp types.Span
		spK, at, from := -1, 0, len(*rows)
		for ; off < stop; ri++ {
			r := seg.runs[ri]
			if !snap.VisibleVersion(r.xmin, 0) {
				off = r.end
				continue
			}
			for hi := min(r.end, stop); off < hi; off++ {
				if x := seg.xmaxAt(off); x != 0 && !snap.VisibleVersion(r.xmin, x) {
					continue
				}
				if k, start := chunkOf(si, off); k != spK || off-start != at+len(*rows)-from {
					sp.Fill(at, (*rows)[from:])
					sp, spK, at, from = seg.span(si, k, &h.schema), k, off-start, len(*rows)
				}
				*rows = append(*rows, blk.Row())
				if ids != nil {
					*ids = append(*ids, base+RowID(off))
				}
				if got++; got == max {
					sp.Fill(at, (*rows)[from:])
					return base + RowID(off) + 1
				}
			}
		}
		sp.Fill(at, (*rows)[from:])
		pos = base + segRows
	}
	return end
}

// Spans appends to dst views of the n rows stored at first and up, one a
// chunk they cross, which the caller may keep and read without the heap's
// lock: nothing writes their words again (see Heap). The rows must be stored,
// as a transaction's inserts are.
func (h *Heap) Spans(first RowID, n int, dst []types.Span) []types.Span {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for id, end := first, first+RowID(n); id < end; {
		si, off := int(id/segRows), int(id%segRows)
		k, start := chunkOf(si, off)
		m := min(int(end-id), start+chunkRows(si, k)-off)
		dst, id = append(dst, h.segs[si].span(si, k, &h.schema).Slice(off-start, off-start+m)), id+RowID(m)
	}
	return dst
}

// scanRows is how many rows Scan reads per lock acquisition.
const scanRows = 1024

// Scan calls fn for every version visible under snap, in insertion order.
// fn returns false to stop early. The row fn is passed is Scan's, built into
// one block it reuses chunk after chunk: fn may keep its values, whose
// strings are the heap's, but not the row, whose memory a later row takes. fn
// runs outside the heap's lock — it may write to the heap — and sees no
// version appended after the scan began.
func (h *Heap) Scan(snap txn.Snapshot, fn func(RowID, types.Row) bool) {
	end := h.NextID()
	size := min(scanRows, int(end))
	rows, ids := make([]types.Row, 0, size), make([]RowID, 0, size)
	blk := types.NewRowBlock(size, len(h.schema))
	for pos := RowID(0); pos < end; {
		rows, ids = rows[:0], ids[:0]
		blk.Rewind()
		pos = h.Read(snap, pos, end, size, &blk, &rows, &ids)
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
// is left alone), handing each to dropped as a row it may keep — its index
// entries can go — and
// returns how many. A reclaimed slot is a gap — its run's xmin zeroed, or the
// run split around it, its row and xmax left as they were (see Heap) — and a
// chunk of values or a segment left with nothing but gaps is released whole;
// a segment without an xmax lane is judged a run at a time. No RowID changes
// and none is reused, so callers need no lock above the heap's own; what is
// given up is that a segment with one survivor keeps its segRows slots and
// their values until that row dies.
func (h *Heap) Vacuum(horizon txn.Snapshot, dropped func(RowID, types.Row)) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	removed := 0
	var fresh segment // a segment's runs, rebuilt; they grow as the first segment's do
	blk := types.NewRowBlock(64, len(h.schema))
	for si, seg := range h.segs {
		if seg == nil {
			continue
		}
		var held [firstChunks]bool // which chunks keep a live version
		fresh.runs = fresh.runs[:0]
		lo := 0
		for _, r := range seg.runs {
			for lo < r.end {
				hi := r.end // the slots judged together: the run, or one with a lane
				if seg.xmax != nil {
					hi = lo + 1
				}
				x := r.xmin
				switch {
				case x == 0:
				case horizon.Dead(x, seg.xmaxAt(lo)):
					for off := lo; off < hi && dropped != nil; off++ {
						dropped(RowID(si*segRows+off), seg.row(si, off, &h.schema, blk.Row()))
					}
					removed += hi - lo
					x = 0
				default:
					k, _ := chunkOf(si, lo)
					kHi, _ := chunkOf(si, hi-1)
					for ; k <= kHi; k++ {
						held[k] = true
					}
				}
				fresh.add(0, run{x, hi})
				lo = hi
			}
		}
		seg.room(si, len(fresh.runs)-len(seg.runs))
		seg.runs = append(seg.runs[:0], fresh.runs...)
		for k := range seg.vals {
			if !held[k] {
				seg.vals[k], seg.nulls[k] = nil, nil
			}
		}
		if held == [firstChunks]bool{} {
			h.segs[si] = nil
			if si == h.seenSeg {
				clear(h.seen)
			}
		}
	}
	return removed
}
