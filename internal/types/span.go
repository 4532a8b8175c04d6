package types

import (
	"encoding/binary"
	"sync/atomic"
)

// Span is a view of n consecutive rows that a keeper stores column by column
// (a storage heap segment's chunk of them): row i's value of column c is word
// vals[c*stride+first+i] of the column's type (Datum.Word, Arena.Word), or
// NULL where that bit of nulls is set. Its keeper writes none of those words
// again, and no bit of them, so a span is read without the keeper's lock: the
// replication ring encodes its frames from spans, and keeps no Datum a row.
type Span struct {
	schema           *Schema
	vals, nulls      []uint64   // nulls nil: no NULL
	strs             []strChunk // the keeper's Arena's, as they stood: never rewritten
	first, n, stride int32
}

// NewSpan is the span of rows [first, first+n) of a keeper's chunk: its words
// column by column, stride of them a column, its NULL bits in that order, and
// the arena its strings are in.
func NewSpan(schema *Schema, vals, nulls []uint64, strs *Arena, stride, first, n int) Span {
	return Span{schema: schema, vals: vals, nulls: nulls, strs: strs.chunks, stride: int32(stride), first: int32(first), n: int32(n)}
}

// Len returns the span's rows.
func (s *Span) Len() int { return int(s.n) }

// Slice is the span of its rows [lo, hi).
func (s Span) Slice(lo, hi int) Span {
	s.first, s.n = s.first+int32(lo), int32(hi-lo)
	return s
}

// at is row i's value of column c.
func (s *Span) at(i, c int) Datum {
	j, t := c*int(s.stride)+int(s.first)+i, (*s.schema)[c].Type
	switch {
	case isSet(s.nulls, j):
		return Null
	case t == TypeString:
		return NewString(stringAt(s.strs, s.vals[j]))
	}
	return FromWord(t, s.vals[j])
}

// Row fills dst, as long as the span's rows, with row i's values.
func (s *Span) Row(i int, dst Row) { s.Fill(i, []Row{dst}) }

// Fill fills rows, each as long as the span's rows, with its rows from i on,
// a column at a time.
func (s *Span) Fill(i int, rows []Row) {
	if len(rows) == 0 {
		return
	}
	for c, col := range *s.schema {
		j := c*int(s.stride) + int(s.first) + i
		if vals := s.vals[j : j+len(rows)]; col.Type == TypeString {
			for r, w := range vals {
				rows[r][c] = NewString(stringAt(s.strs, w))
			}
		} else {
			for r, w := range vals {
				rows[r][c] = FromWord(col.Type, w)
			}
		}
		for r := 0; s.nulls != nil && r < len(rows); r++ {
			if isSet(s.nulls, j+r) {
				rows[r][c] = Null
			}
		}
	}
}

// Key fills dst, as long as cols, with row i's values of the columns cols,
// and returns it.
func (s *Span) Key(i int, cols []int, dst Row) Row {
	for j, c := range cols {
		dst[j] = s.at(i, c)
	}
	return dst
}

// AppendEncoded appends the span's rows as EncodeRow encodes each.
func (s *Span) AppendEncoded(buf []byte) []byte {
	for i := range s.Len() {
		buf = binary.AppendUvarint(buf, uint64(len(*s.schema)))
		for c := range *s.schema {
			buf = EncodeDatum(buf, s.at(i, c))
		}
	}
	return buf
}

// isSet reports bit j of bits, none set when bits is nil. SetBit writes bits
// atomically, so a span may read a word whose other bits its keeper sets.
func isSet(bits []uint64, j int) bool {
	return bits != nil && atomic.LoadUint64(&bits[j/64])>>(j%64)&1 != 0
}

// SetBit sets or clears bit j of bits; its keeper holds its lock.
func SetBit(bits []uint64, j int, on bool) {
	w := &bits[j/64]
	if on {
		atomic.StoreUint64(w, *w|1<<(j%64))
	} else if *w>>(j%64)&1 != 0 {
		atomic.StoreUint64(w, *w&^(1<<(j%64)))
	}
}
