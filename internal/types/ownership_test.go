package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"unsafe"
)

// The binary decoder this package had until rows got a backing string of
// their own, kept verbatim as the test-only reference: one allocation per
// string, one per row sized from the claimed count.

func oracleDecodeDatum(buf []byte) (Datum, []byte, error) {
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
		s := string(buf[n : n+int(l)])
		return NewString(s), buf[n+int(l):], nil
	}
	return Null, nil, fmt.Errorf("types: decode: unknown type tag %d", t)
}

func oracleDecodeRow(buf []byte) (Row, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, nil, fmt.Errorf("types: decode row: bad length")
	}
	buf = buf[k:]
	if n > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("types: decode row: length exceeds payload")
	}
	row := make(Row, n)
	var err error
	for i := range row {
		row[i], buf, err = oracleDecodeDatum(buf)
		if err != nil {
			return nil, nil, err
		}
	}
	return row, buf, nil
}

// ownershipStrings are the payloads the property tests draw from: empty,
// short, long, JSON's escapes and invalid UTF-8.
var ownershipStrings = []string{"", "", "a", "ok", "/index.html", "10.0.0.17", "tab\there \"q\" \\   é",
	"\xff\xfe bad \xc3", "<b>&amp;</b>", string(make([]byte, 300)), "\x00\x01\x1f"}

func ownershipDatum(r *rand.Rand) Datum {
	if r.Intn(3) == 0 {
		return NewString(ownershipStrings[r.Intn(len(ownershipStrings))])
	}
	return randDatum(r)
}

// ownershipBatch draws rows of mixed width, a few of them wide.
func ownershipBatch(r *rand.Rand) []Row {
	rows := make([]Row, 1+r.Intn(12))
	for i := range rows {
		width := r.Intn(9)
		if r.Intn(40) == 0 {
			width = 30 + r.Intn(40)
		}
		rows[i] = make(Row, width)
		for j := range rows[i] {
			rows[i][j] = ownershipDatum(r)
		}
	}
	return rows
}

// checkOwnership requires what the rule in internal/server/proto.go says of
// rows decoded together: each row is exactly its own []Datum, its non-empty
// strings lie end to end in one backing (so the backing is as long as their
// sum), and neither the arrays nor the backings of two rows overlap.
func checkOwnership(t *testing.T, rows []Row) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var arrays, backings []span
	for ri, row := range rows {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d, len %d", ri, cap(row), len(row))
		}
		if len(row) > 0 {
			lo := uintptr(unsafe.Pointer(&row[0]))
			arrays = append(arrays, span{lo, lo + uintptr(len(row))*unsafe.Sizeof(row[0])})
		}
		var b span
		for ci, d := range row {
			if d.Type() != TypeString || d.Str() == "" {
				continue
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(d.Str())))
			if b.lo == 0 {
				b = span{p, p}
			}
			if p != b.hi {
				t.Fatalf("row %d column %d: string is not where the row's backing continues", ri, ci)
			}
			b.hi += uintptr(len(d.Str()))
		}
		if b.hi-b.lo > 1 { // a one-byte string is the runtime's static one, not an allocation
			backings = append(backings, b)
		}
	}
	for _, spans := range [][]span{arrays, backings} {
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Fatalf("two rows share memory: %#x-%#x and %#x-%#x", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
			}
		}
	}
}

// TestOwnershipBinary is the ownership rule over the binary codec: rows
// decoded out of one buffer equal what the reference decodes, survive the
// buffer being overwritten, and share memory with nothing.
func TestOwnershipBinary(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var strs RowStrings
	for batch := 0; batch < 2000; batch++ {
		want := ownershipBatch(r)
		var buf []byte
		for _, row := range want {
			buf = EncodeRow(buf, row)
		}
		got := make([]Row, 0, len(want))
		rest, orest := buf, buf
		for range want {
			var row, orow Row
			var err, oerr error
			row, rest, err = DecodeRow(rest, &strs)
			orow, orest, oerr = oracleDecodeRow(orest)
			if err != nil || oerr != nil || len(rest) != len(orest) || !row.Equal(orow) {
				t.Fatalf("batch %d: got %v (%v), reference %v (%v)", batch, row, err, orow, oerr)
			}
			got = append(got, row)
		}
		for i := range buf {
			buf[i] = 0xFF
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("batch %d row %d changed with the frame buffer: %v, want %v", batch, i, got[i], want[i])
			}
		}
		checkOwnership(t, got)
	}
}

// TestDecodeRowAllocs pins the rule's cost: a row is its []Datum plus, if
// it has any string bytes, one backing string — whatever its width.
func TestDecodeRowAllocs(t *testing.T) {
	var strs RowStrings
	for _, width := range []int{1, 4, 16, 200} {
		for _, c := range []struct {
			name string
			fill func(i int) Datum
			want float64
		}{
			{"strings", func(i int) Datum { return NewString(ownershipStrings[3+i%3]) }, 2},
			{"one string", func(i int) Datum {
				if i == 0 {
					return NewString("xy")
				}
				return NewInt(int64(i))
			}, 2},
			{"empty strings", func(i int) Datum { return NewString("") }, 1},
			{"no strings", func(i int) Datum { return NewTimestampMicros(int64(i)) }, 1},
		} {
			row := make(Row, width)
			for i := range row {
				row[i] = c.fill(i)
			}
			buf := EncodeRow(nil, row)
			DecodeRow(buf, &strs) // grow the scratch
			if n := testing.AllocsPerRun(50, func() {
				if _, _, err := DecodeRow(buf, &strs); err != nil {
					t.Fatal(err)
				}
			}); n != c.want {
				t.Errorf("width %d, %s: %v allocations, want %v", width, c.name, n, c.want)
			}
		}
	}
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRowCorruptCountAllocs: a column count can only be checked
// against the bytes left, and a datum in memory is twenty-four times a byte, so
// the largest count a 1 MiB payload can claim must not be believed.
func TestDecodeRowCorruptCountAllocs(t *testing.T) {
	const size = 1 << 20
	buf := binary.AppendUvarint(nil, size)
	for len(buf) < size+3 { // the count's own bytes, then exactly size more
		buf = append(buf, 0xFF)
	}
	var err error
	got := allocatedBy(func() { _, _, err = DecodeRow(buf, new(RowStrings)) })
	if err == nil {
		t.Fatal("a row of unknown type tags decoded")
	}
	if got >= 8*size {
		t.Fatalf("refusing a corrupt %d-byte row allocated %d bytes", size, got)
	}
	// A count that is honest, and wider than MaxPresize, still decodes into
	// an exactly sized row.
	wide := make(Row, 3*MaxPresize)
	for i := range wide {
		wide[i] = NewInt(int64(i))
	}
	row, _, err := DecodeRow(EncodeRow(nil, wide), new(RowStrings))
	if err != nil || !row.Equal(wide) || cap(row) != len(row) {
		t.Fatalf("wide row: %d columns (cap %d), err %v", len(row), cap(row), err)
	}
}

// TestDecodeRowDropsPlaceholders is the placeholder rule (internal/server/
// proto.go) for this decoder: until Own, a VARCHAR column is a length with
// no bytes, which panics if read, so a row that fails after one — cut short
// anywhere, or any byte of it replaced — must come back as no row at all,
// and a row that still decodes must read; the RowStrings then serves the
// next row as if nothing had happened.
func TestDecodeRowDropsPlaceholders(t *testing.T) {
	whole := Row{NewString("first"), NewInt(7), NewString("second"), NewFloat(1.5)}
	enc := EncodeRow(nil, whole)
	var strs RowStrings
	if !panicked(func() { _ = strs.Add([]byte("x")).String() }) {
		t.Fatal("a placeholder read as a string")
	}
	check := func(bad []byte) {
		t.Helper()
		row, rest, err := DecodeRow(bad, &strs)
		if err != nil && (row != nil || rest != nil) {
			t.Fatalf("% x: failed with %v and returned %d datums", bad, err, len(row))
		}
		_ = row.String() // a placeholder panics here
		if row, _, err = DecodeRow(enc, &strs); err != nil || !row.Equal(whole) {
			t.Fatalf("after % x: the whole row decodes as %v (%v)", bad, row, err)
		}
	}
	for cut := range enc {
		check(enc[:cut])
	}
	for at := range enc {
		for _, b := range []byte{0x00, byte(TypeString), 0x7F, 0xFF} {
			bad := append([]byte(nil), enc...)
			bad[at] = b
			check(bad)
		}
	}
}
