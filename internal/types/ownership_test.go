package types

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

// TestOwnershipBinary is the ownership rule over the binary codec: a batch
// decoded out of one buffer equals what the reference decodes, survives the
// buffer being overwritten, and is carved as the rule says (CheckBatch) — a
// batch more than a block long now and then.
func TestOwnershipBinary(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	var strs RowStrings
	for batch := 0; batch < 2000; batch++ {
		want := ownershipBatch(r)
		for batch%500 == 0 && len(want) <= BlockRows {
			want = append(want, want...)
		}
		var buf []byte
		for _, row := range want {
			buf = EncodeRow(buf, row)
		}
		var owant []Row
		strs.Reset()
		rest, orest := buf, buf
		for range want {
			var orow Row
			var err, oerr error
			rest, err = strs.Decode(rest)
			orow, orest, oerr = oracleDecodeRow(orest)
			if err != nil || oerr != nil || len(rest) != len(orest) {
				t.Fatalf("batch %d: %v, reference %v", batch, err, oerr)
			}
			owant = append(owant, orow)
		}
		got := strs.Rows()
		for i := range buf {
			buf[i] = 0xFF
		}
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("batch %d: %d rows (cap %d), want %d", batch, len(got), cap(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(owant[i]) || !got[i].Equal(want[i]) {
				t.Fatalf("batch %d row %d: %v, reference %v, sent %v", batch, i, got[i], owant[i], want[i])
			}
		}
		if err := CheckBatch(got); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
}

// TestDecodeRowAllocs pins the rule's cost: a batch is its container and, a
// block, one []Datum plus, if it has any string bytes, one backing string —
// whatever its rows' width and number; a row alone is a batch of one with no
// container. Wide rows fill a block by bytes long before BlockRows.
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
			one := EncodeRow(nil, row)
			DecodeRow(one, &strs) // grow the scratch
			if n := testing.AllocsPerRun(50, func() {
				if _, _, err := DecodeRow(one, &strs); err != nil {
					t.Fatal(err)
				}
			}); n != c.want {
				t.Errorf("width %d, %s: a row alone allocates %v times, want %v", width, c.name, n, c.want)
			}
			strBytes := 0
			for _, d := range row {
				if d.Type() == TypeString {
					strBytes += len(d.Str())
				}
			}
			for _, rows := range []int{1, 16, 256, BlockRows} {
				blocks, n := 1, 0
				for i := 1; i < rows; i++ {
					if n++; blockFull(n, n*width, n*strBytes) {
						blocks, n = blocks+1, 0
					}
				}
				buf := bytes.Repeat(one, rows)
				decode := func() {
					strs.Reset()
					for rest := buf; len(rest) > 0; {
						var err error
						if rest, err = strs.Decode(rest); err != nil {
							t.Fatal(err)
						}
					}
					strs.Rows()
				}
				decode() // grow the scratch
				if n, want := testing.AllocsPerRun(10, decode), 1+float64(blocks)*c.want; n != want {
					t.Errorf("width %d, %s: a batch of %d rows in %d blocks allocates %v times, want %v", width, c.name, rows, blocks, n, want)
				}
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
// proto.go) for this decoder: until its batch ends, a VARCHAR column is a
// length with no bytes, which panics if read, so a row that fails after one — cut short
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

// TestRecycle: a batch handed back is where the next one is carved, container
// and block, and a batch not handed back never is.
func TestRecycle(t *testing.T) {
	var b RowStrings
	decode := func(n int, s string) []Row {
		b.Reset()
		for i := 0; i < n; i++ {
			if _, err := b.Decode(EncodeRow(nil, Row{NewString(s), NewInt(int64(i))})); err != nil {
				t.Fatal(err)
			}
		}
		rows := b.Rows()
		if err := CheckBatch(rows); err != nil || len(rows) != n || cap(rows) != n || rows[n-1][0].Str() != s {
			t.Fatalf("%d rows of %q: %v, %d rows of capacity %d", n, s, err, len(rows), cap(rows))
		}
		return rows
	}
	at := func(rows []Row) [3]unsafe.Pointer {
		return [3]unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(rows)), unsafe.Pointer(unsafe.SliceData(rows[0])), rows[0][0].p}
	}
	first := at(decode(8, "abcdef"))
	b.Recycle()
	if again := at(decode(6, "abc")); again != first {
		t.Errorf("a recycled batch's container, block and strings are at %v, the next batch's at %v", first, again)
	}
	if kept := at(decode(6, "xyz")); kept == first {
		t.Error("a batch not recycled was carved into again")
	}
}

// TestResetKeepsNoHugeBuffer: Reset's 1 MiB rule covers the last batch's
// arrays and the recycled ones, as it does the scratch.
func TestResetKeepsNoHugeBuffer(t *testing.T) {
	for _, name := range []string{"lastRows", "spareRows", "lastVals", "spareVals", "lastStrs", "spareStrs"} {
		var b RowStrings
		f := reflect.ValueOf(&b).Elem().FieldByName(name)
		n := 1<<20/int(f.Type().Elem().Size()) + 1
		reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Set(reflect.MakeSlice(f.Type(), n, n))
		if b.Reset(); f.Cap() != 0 {
			t.Errorf("Reset keeps %s of %d elements", name, f.Cap())
		}
	}
}
