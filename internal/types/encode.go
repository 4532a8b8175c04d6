package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// EncodeDatum appends a self-describing binary encoding of d to buf. The
// encoding is used by the WAL and by the map/reduce baseline's spill files.
func EncodeDatum(buf []byte, d Datum) []byte {
	buf = append(buf, byte(d.typ))
	switch d.typ {
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

// RowStrings gives a row being decoded its one backing string (the
// ownership rule: internal/server/proto.go). A decoder calls Add with each
// VARCHAR payload as it meets it — the bytes are copied, so they may alias
// a frame buffer — puts the placeholder it gets back in the row, and calls
// Own on the finished row. The zero value is ready, and one value serves
// any number of rows, reusing its scratch.
type RowStrings struct{ scratch []byte }

// Add appends one string payload to the scratch. The datum it returns is a
// placeholder — the payload's length and no bytes — that only Own may touch:
// reading it (Str, String, Compare, encoding) panics. A decoder that fails
// before Own drops the row.
func (b *RowStrings) Add(p []byte) Datum {
	b.scratch = append(b.scratch, p...)
	return Datum{typ: TypeString, n: uint64(len(p))}
}

// Own makes the one string(scratch) — no allocation when no string had any
// bytes — and points each placeholder of row, in column order, at its part
// of it; a placeholder already carries its length in the word that keeps it.
func (b *RowStrings) Own(row Row) {
	backing := unsafe.Pointer(unsafe.StringData(string(b.scratch)))
	b.scratch = b.scratch[:0]
	off := 0
	for i := range row {
		if d := &row[i]; d.typ == TypeString && d.p == nil && d.n > 0 {
			d.p = unsafe.Add(backing, off)
			off += int(d.n)
		}
	}
}

// decodeDatum decodes one datum from buf, returning it and the remaining
// bytes; a string comes back as a placeholder of strs.
func decodeDatum(buf []byte, strs *RowStrings) (Datum, []byte, error) {
	if len(buf) == 0 {
		return Null, nil, fmt.Errorf("types: decode: empty buffer")
	}
	t := Type(buf[0])
	buf = buf[1:]
	switch t {
	case TypeNull, TypeUnknown:
		return Null, buf, nil
	case TypeBool, TypeInt, TypeTimestamp, TypeInterval:
		v, n := binary.Varint(buf)
		if n <= 0 {
			return Null, nil, fmt.Errorf("types: decode: bad varint")
		}
		return word(t, v), buf[n:], nil
	case TypeFloat:
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			return Null, nil, fmt.Errorf("types: decode: bad float")
		}
		return NewFloat(math.Float64frombits(v)), buf[n:], nil
	case TypeString:
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf[n:])) < l {
			return Null, nil, fmt.Errorf("types: decode: bad string length")
		}
		return strs.Add(buf[n : n+int(l)]), buf[n+int(l):], nil
	}
	return Null, nil, fmt.Errorf("types: decode: unknown type tag %d", t)
}

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
// element in memory is 24–72 times its smallest encoding, so a corrupt count
// in a large frame would buy gigabytes. Up to MaxPresize a slice is sized
// exactly; beyond, it grows geometrically as elements actually decode.
const MaxPresize = 1024

// DecodeRow decodes one row from buf, returning it and the remaining
// bytes. The row is an exactly sized []Datum plus the one backing string
// strs makes for it; it aliases neither buf nor any other row.
func DecodeRow(buf []byte, strs *RowStrings) (Row, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, fmt.Errorf("types: decode row: bad length")
	}
	buf = buf[k:]
	// Each datum occupies at least one byte, so a column count beyond the
	// remaining bytes is corrupt input.
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("types: decode row: length exceeds payload")
	}
	strs.scratch = strs.scratch[:0] // a row that failed half-way left its strings
	row := make(Row, 0, min(n, MaxPresize))
	for ; n > 0; n-- {
		d, rest, err := decodeDatum(buf, strs)
		if err != nil {
			return nil, nil, err
		}
		row, buf = append(row, d), rest
	}
	if cap(row) > len(row) {
		row = row.Clone()
	}
	strs.Own(row)
	return row, buf, nil
}
