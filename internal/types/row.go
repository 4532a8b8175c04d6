package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Column describes one attribute of a relation or stream schema.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns. Column names are compared
// case-insensitively (SQL folds unquoted identifiers to lower case at parse
// time, so in practice names here are already lower-cased).
type Schema []Column

// IndexOf returns the position of the named column, or -1.
func (s Schema) IndexOf(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// String renders the schema as "(a BIGINT, b VARCHAR)".
func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Row is a tuple of datums positionally matching some schema.
type Row []Datum

// Clone returns a copy of the row. Datums are immutable, so a shallow copy
// of the slice suffices.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// CoerceRow casts a row's values to the schema's types — a table's insert, a
// base stream's append — copying on the first cast only: a row that needs none
// is returned as it is.
func CoerceRow(row Row, schema Schema) (Row, error) {
	if len(row) != len(schema) {
		return nil, fmt.Errorf("types: row has %d values, schema needs %d", len(row), len(schema))
	}
	out := row
	for i, v := range row {
		if v.IsNull() || v.Type() == schema[i].Type || schema[i].Type == TypeUnknown {
			continue
		}
		c, err := Cast(v, schema[i].Type)
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", schema[i].Name, err)
		}
		if &out[0] == &row[0] {
			out = row.Clone()
		}
		out[i] = c
	}
	return out, nil
}

// String renders the row for the REPL and tests: "a|b|c".
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, d := range r {
		parts[i] = d.String()
	}
	return strings.Join(parts, "|")
}

// Equal reports whether the rows have the same length and pairwise
// Datum.Equal values.
func (r Row) Equal(o Row) bool { return slices.EqualFunc(r, o, Datum.Equal) }

// CompareRows orders rows lexicographically by Compare on each column.
func CompareRows(a, b Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmpInt(int64(len(a)), int64(len(b)))
}

// integralFloat returns f as an int64 when f is integral and inside the
// int64 range. The range check comes first: Go leaves float→int conversion
// of an out-of-range value implementation-defined (amd64 yields MinInt64,
// arm64 saturates), so without it 2^63 would key differently per platform.
func integralFloat(f float64) (int64, bool) {
	if f >= -1<<63 && f < 1<<63 {
		if i := int64(f); float64(i) == f {
			return i, true
		}
	}
	return 0, false
}

// AppendKey appends the datum's grouping key to dst and returns the
// extended slice. The encoding is a contract (golden bytes are pinned in
// row_key_test.go): hash operators key their maps with it, so a change
// silently regroups every window.
//
//	NULL (and the untyped zero Datum)  00
//	BOOLEAN                            01 b            b = 00 | 01
//	BIGINT                             02 le64(v)
//	DOUBLE, integral and in
//	  [-2^63, 2^63)                    02 le64(int64(v))  so 3.0 ≡ 3, -0.0 ≡ 0
//	DOUBLE, otherwise                  03 le64(IEEE-754 bits)
//	VARCHAR                            04 04 le64(len) bytes
//	TIMESTAMP                          05 le64(micros)
//	INTERVAL                           06 le64(micros)
//
// le64 is the 8-byte little-endian two's-complement payload. Every datum
// encoding is self-delimiting (the tag fixes the length, strings carry
// theirs), so concatenating datum keys is prefix-free: two rows of any
// widths have equal keys only if they have the same width and pairwise
// equal datum keys. For datums types.Compare can order, equal keys ⇔
// Compare == 0, with two documented edges: a BIGINT beyond ±2^53 and the
// DOUBLE it rounds to compare equal but key apart (the key is exact, the
// comparison goes through float64), and NaNs key by bit pattern while
// Compare orders all NaNs as equal. ±Inf, 2^63 and 1e19 take the 03 form
// on every platform.
func (d Datum) AppendKey(dst []byte) []byte {
	switch t := d.typ(); t {
	case TypeBool:
		return append(dst, 1, byte(d.int()))
	case TypeInt, TypeTimestamp, TypeInterval: // a word type's tag is its Type less one
		return binary.LittleEndian.AppendUint64(append(dst, byte(t)-1), uint64(d.int()))
	case TypeFloat:
		if i, ok := integralFloat(d.flt()); ok {
			return binary.LittleEndian.AppendUint64(append(dst, 2), uint64(i))
		}
		return binary.LittleEndian.AppendUint64(append(dst, 3), math.Float64bits(d.flt()))
	case TypeString:
		s := d.str()
		dst = binary.LittleEndian.AppendUint64(append(dst, 4, 4), uint64(len(s)))
		return append(dst, s...)
	default: // TypeNull, TypeUnknown
		return append(dst, 0)
	}
}

// AppendKey appends the row's grouping key — its datums' keys in order
// (see Datum.AppendKey) — to dst. Hash operators keep one buffer, rebuild
// the key into buf[:0] per row and probe with m[string(buf)], which Go
// compiles without allocating; a string is built only when a key is
// inserted.
func (r Row) AppendKey(dst []byte) []byte {
	for _, d := range r {
		dst = d.AppendKey(dst)
	}
	return dst
}

// Key returns the row's grouping key as a string, for cold callers that
// do not keep a buffer.
func (r Row) Key() string { return string(r.AppendKey(nil)) }

// ShareKey points each VARCHAR of r at its bytes inside key, which must be
// r's key: a row kept beside its key string then holds no string bytes of its
// own, nor any of the row it was evaluated from.
func (r Row) ShareKey(key string) {
	var buf [9]byte // the longest key of a datum with no string
	for i, off := 0, 0; i < len(r); i++ {
		if d := r[i]; d.typ() == TypeString {
			k := len(d.str())
			r[i], off = NewString(key[off+10:off+10+k]), off+10+k
		} else {
			off += len(d.AppendKey(buf[:0]))
		}
	}
}
