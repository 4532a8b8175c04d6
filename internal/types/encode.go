package types

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"unsafe"
)

// EncodeDatum appends a self-describing binary encoding of d to buf. The
// encoding is used by the WAL and by the map/reduce baseline's spill files.
func EncodeDatum(buf []byte, d Datum) []byte {
	t := d.typ()
	buf = append(buf, byte(t))
	switch t {
	case TypeNull, TypeUnknown:
	case TypeBool, TypeInt, TypeTimestamp, TypeInterval:
		buf = binary.AppendVarint(buf, d.int())
	case TypeFloat:
		buf = binary.AppendUvarint(buf, math.Float64bits(d.flt()))
	case TypeString:
		s := d.str()
		buf = append(binary.AppendUvarint(buf, uint64(len(s))), s...)
	}
	return buf
}

// BlockRows is the most rows a decoded block holds: a heap segment's worth
// (storage's segRows), so a row kept alone pins no more than a segment does.
// A block also ends once its values or its strings reach blockBytes, so the
// scratch that carved it stays under the 1 MiB Reset keeps at any width.
const BlockRows, blockBytes = 4096, 1 << 19

// The bytes of a value and of a row header.
const datumSize, rowSize = int(unsafe.Sizeof(Datum{})), int(unsafe.Sizeof(Row{}))

// blockFull says whether a block of n rows, vals values and strs string bytes ends there.
func blockFull(n, vals, strs int) bool {
	return n == BlockRows || datumSize*vals >= blockBytes || strs >= blockBytes
}

// RowStrings is the scratch of the reader that owns a decode (the ownership
// rule: internal/server/proto.go). A decoder calls Reset, Push for each value
// of a row — a VARCHAR as the placeholder Add returns, its payload copied, so
// it may alias a frame buffer — and EndRow after each row; Rows ends the
// batch. The zero value is ready, and one value serves any number of batches.
type RowStrings struct {
	vals    []Datum // the open block's values, VARCHARs as placeholders
	ends    []int   // where each of its rows ends in vals
	scratch []byte  // its VARCHAR payloads, end to end
	done    []Row   // the rows of the batch's full blocks
	// The last batch handed out (its container, its last block's values and
	// strings), and what Recycle made of them: the next carve's, if big enough.
	lastRows, spareRows []Row
	lastVals, spareVals []Datum
	lastStrs, spareStrs []byte
	// names are the last distinct names Name returned, the latest first.
	names [8]string
}

// Borrow returns b's bytes as a string without copying them. It is valid
// only while b is not written again, so whoever keeps it past then clones it
// (strings.Clone): a request's SQL text borrows its frame's bytes.
func Borrow(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Add copies a string payload into the scratch and returns its placeholder,
// its length and no bytes: reading it (Str, String, Compare, encoding) before
// the batch ends panics, so a decoder that fails before then drops the batch.
func (b *RowStrings) Add(p []byte) Datum {
	b.scratch = append(b.scratch, p...)
	return Datum{n: uint64(len(p)) | uint64(TypeString)<<typeShift}
}

// Name returns p as a string, the one it returned for p before while that is
// among the last len(names) distinct ones: a replication reader decodes the
// names of a few streams and tables again and again, in any order.
func (b *RowStrings) Name(p []byte) string {
	i := 0
	for i < len(b.names)-1 && b.names[i] != string(p) {
		i++
	}
	s := b.names[i]
	if s != string(p) {
		s = string(p)
	}
	copy(b.names[1:i+1], b.names[:i])
	b.names[0] = s
	return s
}

// Push appends a value to the row being decoded.
func (b *RowStrings) Push(d Datum) { b.vals = append(b.vals, d) }

// PushRow pushes a copy of r, its VARCHAR bytes included, and ends the row.
func (b *RowStrings) PushRow(r Row) {
	for _, d := range r {
		if d.typ() == TypeString {
			b.scratch, d.p = append(b.scratch, d.str()...), nil
		}
		b.Push(d)
	}
	b.EndRow()
}

// EndRow ends the row being decoded, and its block once the block is full.
func (b *RowStrings) EndRow() {
	if b.ends = append(b.ends, len(b.vals)); blockFull(len(b.ends), len(b.vals), len(b.scratch)) {
		b.done = b.carve(b.done)
	}
}

// Reset starts a batch, letting go of what the last one left (rows handed
// out, a failed batch) and of every buffer if one has grown past 1 MiB: one
// huge batch must not pin its size.
func (b *RowStrings) Reset() {
	if max(datumSize*max(cap(b.vals), cap(b.lastVals), cap(b.spareVals)), rowSize*max(cap(b.done), cap(b.lastRows), cap(b.spareRows)),
		cap(b.scratch), cap(b.lastStrs), cap(b.spareStrs)) > 1<<20 {
		*b = RowStrings{names: b.names}
	}
	clear(b.done)
	b.vals, b.ends, b.scratch, b.done = b.vals[:0], b.ends[:0], b.scratch[:0], b.done[:0]
}

// Rows ends the batch and returns its rows in order, in an exactly sized slice
// (of the recycled container if it is big enough).
func (b *RowStrings) Rows() []Row {
	defer b.Reset()
	n := len(b.done) + len(b.ends)
	b.lastRows = b.carve(append(spare(&b.spareRows, n), b.done...))
	return b.lastRows[:n:n]
}

// Row ends a batch of one row and returns the row, with no container.
func (b *RowStrings) Row() Row {
	defer b.Reset()
	b.done, b.lastRows = b.carve(b.done), nil
	return b.done[0]
}

// Recycle says no one holds the last batch: the next ones are carved into its
// container and last block, which under Poison are zeroed at once.
func (b *RowStrings) Recycle() {
	if Poison {
		clear(b.lastRows[:cap(b.lastRows)])
		clear(b.lastVals[:cap(b.lastVals)])
		clear(b.lastStrs[:cap(b.lastStrs)])
	}
	b.spareRows, b.spareVals, b.spareStrs = b.lastRows, b.lastVals, b.lastStrs
}

// Arena holds copies of VARCHAR bytes in chunks it never reallocates, so a
// datum pointing into one stays valid while more are added: a keeper that owns
// its rows' strings (a storage heap segment) copies them into one.
type Arena struct {
	chunk []byte
	used  int // the bytes copied in
}

// arenaChunk is where an arena's chunks stop doubling.
const arenaChunk = 64 << 10

// Used returns the bytes copied into the arena.
func (a *Arena) Used() int { return a.used }

// CopyRow copies src into dst, which is as long, each VARCHAR's bytes into the
// arena: into its chunk while that has room, else into a new one, twice as
// long up to 64 KiB, least bytes at least — a keeper that knows what it will
// copy asks for that at once — and as long as the string if that is longer.
// seen, empty or of a power-of-two length, is the keeper's table of strings
// this arena holds, by hash: a string found there shares that copy's bytes,
// and one copied takes its entry.
func (a *Arena) CopyRow(dst, src Row, least int, seen []string) {
	for i, d := range src {
		if n := int(d.n & low); d.typ() == TypeString && n > 0 {
			s := d.str()
			var none string // where a copy is noted without a table
			e := &none
			if len(seen) > 0 {
				e = &seen[maphash.String(strSeed, s)&uint64(len(seen)-1)]
			}
			if *e != s {
				if cap(a.chunk)-len(a.chunk) < n {
					a.chunk = make([]byte, 0, max(n, min(2*cap(a.chunk), arenaChunk), least))
				}
				a.used += n
				a.chunk = append(a.chunk, s...)
				*e = unsafe.String(&a.chunk[len(a.chunk)-n], n)
			}
			d.p = unsafe.Pointer(unsafe.StringData(*e))
		}
		dst[i] = d
	}
}

// strSeed is CopyRow's hash seed.
var strSeed = maphash.MakeSeed()

// spare takes *s, emptied, if it holds n elements, else makes room for n.
func spare[T any](s *[]T, n int) []T {
	x := *s
	if *s = nil; x == nil || cap(x) < n {
		return make([]T, 0, n)
	}
	return x[:0]
}

// CheckBatch is the ownership tests' one check of a decoded batch: each row
// a full-capacity slice, a block's rows end to end in one array and its
// strings end to end in one backing, a block ending only where EndRow ends one.
func CheckBatch(rows []Row) error {
	var array, backing uintptr // where the open block's array and backing continue
	var n, vals, strs int      // its rows, values and string bytes
	for ri, row := range rows {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(row)))
		if cap(row) != len(row) || len(row) > 0 && array != 0 && lo != array {
			return fmt.Errorf("row %d (len %d, cap %d) is not where its block's array continues", ri, len(row), cap(row))
		}
		if len(row) > 0 {
			array = lo + uintptr(datumSize*len(row))
		}
		for _, d := range row {
			if k := int(d.n & low); d.typ() == TypeString && k > 0 {
				if backing != 0 && uintptr(d.p) != backing {
					return fmt.Errorf("row %d: a string is not where its block's backing continues", ri)
				}
				backing, strs = uintptr(d.p)+uintptr(k), strs+k
			}
		}
		if n, vals = n+1, vals+len(row); blockFull(n, vals, strs) {
			array, backing, n, vals, strs = 0, 0, 0, 0, 0
		}
	}
	return nil
}

// carve appends the open block's rows to dst: one []Datum and one backing of
// their payloads (exactly sized unless recycled, neither allocated when
// empty), each placeholder pointed at its part of the backing, each row a
// full-capacity subslice, so appending to one never reaches its neighbour.
func (b *RowStrings) carve(dst []Row) []Row {
	vals := append(spare(&b.spareVals, len(b.vals)), b.vals...)
	strs := append(spare(&b.spareStrs, len(b.scratch)), b.scratch...)
	b.lastVals, b.lastStrs = vals, strs
	backing := unsafe.Pointer(unsafe.SliceData(strs))
	for i, off := 0, 0; i < len(vals); i++ {
		if d := &vals[i]; d.p == nil && d.typ() == TypeString && d.n&low > 0 {
			d.p, off = unsafe.Add(backing, off), off+int(d.n&low)
		}
	}
	start := 0
	for _, end := range b.ends {
		dst, start = append(dst, vals[start:end:end]), end
	}
	if Poison {
		clear(b.vals[:cap(b.vals)])
		clear(b.scratch[:cap(b.scratch)])
	}
	b.vals, b.ends, b.scratch = b.vals[:0], b.ends[:0], b.scratch[:0]
	return dst
}

// Poison is the use-after-release check, on under the build tag poison (make
// poison) and in internal/exec's tests: a decoder zeroes its scratch once a
// block is carved from it, and a join overwrites the rows it takes back, so
// a row kept past its release reads garbage at once.
var Poison bool

// EncodeRow appends a length-prefixed encoding of the row to buf.
func EncodeRow(buf []byte, r Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(r)))
	for _, d := range r {
		buf = EncodeDatum(buf, d)
	}
	return buf
}

// MaxPresize is the most elements a decoder allocates on the word of a
// count: a count can only be checked against the bytes that remain, and an
// element in memory is 16–72 times its smallest encoding, so a corrupt count
// in a large frame would buy gigabytes. Up to MaxPresize a slice is sized
// exactly; beyond, it grows geometrically as elements actually decode.
const MaxPresize = 1024

// Decode decodes one row from buf into the batch b is decoding, a VARCHAR
// as a placeholder, and returns the bytes behind it.
func (b *RowStrings) Decode(buf []byte) ([]byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, fmt.Errorf("types: decode row: bad length")
	}
	buf = buf[k:]
	// Each datum occupies at least one byte, so a column count beyond the
	// remaining bytes is corrupt input.
	if n > uint64(len(buf)) {
		return nil, fmt.Errorf("types: decode row: length exceeds payload")
	}
	for ; n > 0; n-- {
		if len(buf) == 0 {
			return nil, fmt.Errorf("types: decode: empty buffer")
		}
		t, v, k := Type(buf[0]), uint64(0), 0
		switch buf = buf[1:]; t {
		case TypeNull, TypeUnknown:
			b.Push(Null)
		case TypeBool, TypeInt, TypeTimestamp, TypeInterval:
			var i int64
			if i, k = binary.Varint(buf); k <= 0 {
				return nil, fmt.Errorf("types: decode: bad varint")
			}
			b.Push(word(t, i))
		case TypeFloat:
			if v, k = binary.Uvarint(buf); k <= 0 {
				return nil, fmt.Errorf("types: decode: bad float")
			}
			b.Push(NewFloat(math.Float64frombits(v)))
		case TypeString:
			if v, k = binary.Uvarint(buf); k <= 0 || uint64(len(buf[k:])) < v {
				return nil, fmt.Errorf("types: decode: bad string length")
			}
			b.Push(b.Add(buf[k : k+int(v)]))
			k += int(v)
		default:
			return nil, fmt.Errorf("types: decode: unknown type tag %d", t)
		}
		buf = buf[k:]
	}
	b.EndRow()
	return buf, nil
}

// DecodeRow decodes one row from buf, a batch of one, returning it and the
// remaining bytes: an exactly sized []Datum and one backing string for its
// VARCHARs, aliasing neither buf nor strs.
func DecodeRow(buf []byte, strs *RowStrings) (Row, []byte, error) {
	strs.Reset()
	rest, err := strs.Decode(buf)
	if err != nil {
		return nil, nil, err
	}
	return strs.Row(), rest, nil
}
