package types

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// TestRowKeyGolden pins the key encoding byte for byte. The bytes were
// produced by the strings.Builder implementation this kernel replaced (on
// amd64), so a drift in the encoding — which would silently regroup every
// hash operator and every slice and delta state keyed with it — is a test
// failure. ±2^63, 1e19, ±Inf and NaN are the values Go's
// implementation-defined float→int conversion used to key per platform.
func TestRowKeyGolden(t *testing.T) {
	cases := []struct {
		name string
		row  Row
		hex  string
	}{
		{"empty row", Row{}, ""},
		{"NULL", Row{Null}, "00"},
		{"zero Datum", Row{Datum{}}, "00"},
		{"false", Row{False}, "0100"},
		{"true", Row{True}, "0101"},
		{"int 3", Row{NewInt(3)}, "020300000000000000"},
		{"int -1", Row{NewInt(-1)}, "02ffffffffffffffff"},
		{"int MinInt64", Row{NewInt(math.MinInt64)}, "020000000000000080"},
		{"float 3.0 keys as int 3", Row{NewFloat(3)}, "020300000000000000"},
		{"float 0.5", Row{NewFloat(0.5)}, "03000000000000e03f"},
		{"float -0.0 keys as int 0", Row{NewFloat(math.Copysign(0, -1))}, "020000000000000000"},
		{"float 0", Row{NewFloat(0)}, "020000000000000000"},
		{"float 2^63 is outside int64", Row{NewFloat(1 << 63)}, "03000000000000e043"},
		{"float -2^63 is MinInt64", Row{NewFloat(-(1 << 63))}, "020000000000000080"},
		{"float 1e19", Row{NewFloat(1e19)}, "03003d9160e458e143"},
		{"float +Inf", Row{NewFloat(math.Inf(1))}, "03000000000000f07f"},
		{"float -Inf", Row{NewFloat(math.Inf(-1))}, "03000000000000f0ff"},
		{"float NaN", Row{NewFloat(math.NaN())}, "03010000000000f87f"},
		{"empty string", Row{NewString("")}, "04040000000000000000"},
		{"string ab", Row{NewString("ab")}, "040402000000000000006162"},
		{"timestamp", Row{NewTimestamp(time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC))}, "050000f7da9c5f0400"},
		{"interval 1s", Row{NewInterval(time.Second)}, "0640420f0000000000"},
		{"mixed row", Row{NewString("/a"), Null, NewInt(7), NewFloat(2.5)},
			"040402000000000000002f6100020700000000000000030000000000000440"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.row.AppendKey(nil)); got != c.hex {
			t.Errorf("%s: key = %s, want %s", c.name, got, c.hex)
		}
		if got := hex.EncodeToString([]byte(c.row.Key())); got != c.hex {
			t.Errorf("%s: Key() = %s, want %s", c.name, got, c.hex)
		}
	}
}

// keyGen draws rows from a byte string, so the seeded property test and
// the fuzzer explore the same space. The domains are tiny on purpose:
// collisions (equal rows, 3 vs 3.0, "" vs NULL, strings made of tag bytes)
// have to be common for an ⇔ property to mean anything.
type keyGen struct {
	data []byte
	pos  int
}

func (g *keyGen) byte() byte {
	if g.pos >= len(g.data) {
		return 0
	}
	b := g.data[g.pos]
	g.pos++
	return b
}

// column kinds: values of one kind are pairwise comparable.
const (
	kindBool = iota
	kindNumeric
	kindString
	kindTimestamp
	kindInterval
	numKinds
)

// keyFloats are the float edges; NaN is excluded (it keys by bit pattern
// but compares equal to every NaN — a documented edge of the spec).
var keyFloats = []float64{0, math.Copysign(0, -1), 0.5, -0.5, 3, -3, 1 << 53, -(1 << 53),
	1 << 63, -(1 << 63), 1e19, math.Inf(1), math.Inf(-1), 1e-300, math.MaxFloat64}

func (g *keyGen) datum(kind int) Datum {
	sel := g.byte()
	if sel%8 == 0 {
		return Null
	}
	v := g.byte()
	switch kind {
	case kindBool:
		return NewBool(v&1 == 1)
	case kindNumeric:
		// Integers stay within ±2^53, where int/float comparison is exact.
		switch sel % 4 {
		case 1:
			return NewInt(int64(int8(v)) % 4)
		case 2:
			return NewInt(int64(int8(v)) << 46) // up to ±2^53
		case 3:
			return NewFloat(float64(int8(v)%8) / 2) // x.0 and x.5
		default:
			return NewFloat(keyFloats[int(v)%len(keyFloats)])
		}
	case kindString:
		alphabet := []byte{0, 4, 'a'} // tag-looking bytes provoke ambiguity
		s := make([]byte, v%4)
		for i := range s {
			s[i] = alphabet[int(g.byte())%len(alphabet)]
		}
		return NewString(string(s))
	case kindTimestamp:
		return NewTimestampMicros(int64(int8(v)) % 4)
	default:
		return NewIntervalMicros(int64(int8(v)) % 4)
	}
}

// rows draws two rows over one random schema of up to three columns.
func (g *keyGen) rows() (a, b Row) {
	width := int(g.byte()) % 4
	a, b = make(Row, width), make(Row, width)
	for i := 0; i < width; i++ {
		kind := int(g.byte()) % numKinds
		a[i], b[i] = g.datum(kind), g.datum(kind)
	}
	return a, b
}

// splitKey walks a key datum by datum using only the spec in
// Datum.AppendKey's comment and returns how many datum encodings it holds,
// or -1 if the bytes are not a whole number of them. It is what makes the
// encoding prefix-free: every datum says where it ends.
func splitKey(k []byte) int {
	n := 0
	for len(k) > 0 {
		var size int
		switch k[0] {
		case 0:
			size = 1
		case 1:
			size = 2
		case 2, 3, 5, 6:
			size = 9
		case 4:
			if len(k) < 10 || k[1] != 4 {
				return -1
			}
			var l uint64
			for i := 0; i < 8; i++ {
				l |= uint64(k[2+i]) << (8 * i)
			}
			if l > uint64(len(k)-10) {
				return -1
			}
			size = 10 + int(l)
		default:
			return -1
		}
		if len(k) < size {
			return -1
		}
		k = k[size:]
		n++
	}
	return n
}

// checkRowKey asserts the kernel's contract on one pair of same-schema
// rows and reports the first violation.
func checkRowKey(t *testing.T, a, b Row) {
	t.Helper()
	ka, kb := a.AppendKey(nil), b.AppendKey(nil)
	// Injective up to grouping equality.
	if eq, same := bytes.Equal(ka, kb), CompareRows(a, b) == 0; eq != same {
		t.Fatalf("rows %v / %v: keys equal = %v but CompareRows == 0 is %v\n%x\n%x", a, b, eq, same, ka, kb)
	}
	// Self-delimiting: the key parses back into exactly len(row) datums.
	if n := splitKey(ka); n != len(a) {
		t.Fatalf("row %v: key %x splits into %d datums, want %d", a, ka, n, len(a))
	}
	// AppendKey only appends, and the row key is its datums' keys in order.
	prefix := []byte("prefix\x00\x04")
	got := a.AppendKey(append([]byte(nil), prefix...))
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], ka) {
		t.Fatalf("row %v: AppendKey(prefix) = %x, want prefix + %x", a, got, ka)
	}
	var byDatum []byte
	for _, d := range a {
		byDatum = d.AppendKey(byDatum)
	}
	if !bytes.Equal(byDatum, ka) || a.Key() != string(ka) {
		t.Fatalf("row %v: datum keys %x, Key() %x, AppendKey %x disagree", a, byDatum, a.Key(), ka)
	}
	// A row never keys like its own prefix (splitKey above is the general
	// argument: a key determines its width).
	if len(a) > 0 && bytes.Equal(a[:len(a)-1].AppendKey(nil), ka) {
		t.Fatalf("row %v keys like its own prefix", a)
	}
	// ShareKey leaves the values as they were and every string inside the key.
	key, shared := string(ka), a.Clone()
	shared.ShareKey(key)
	lo := uintptr(unsafe.Pointer(unsafe.StringData(key)))
	for i, d := range shared {
		if !d.Equal(a[i]) {
			t.Fatalf("row %v: column %d is %v after ShareKey", a, i, d)
		}
		if d.typ() == TypeString && d.p != nil && (uintptr(d.p) < lo || uintptr(d.p)+uintptr(len(d.str())) > lo+uintptr(len(key))) {
			t.Fatalf("row %v: column %d is not inside its key after ShareKey", a, i)
		}
	}
}

// TestRowKeyProperty: AppendKey is a prefix-free encoding, injective up to
// grouping equality, over every datum type incl. NULL and mixed int/float.
func TestRowKeyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	equal := 0
	for i := 0; i < 20000; i++ {
		data := make([]byte, 32)
		rng.Read(data)
		a, b := (&keyGen{data: data}).rows()
		checkRowKey(t, a, b)
		if len(a) > 0 && CompareRows(a, b) == 0 {
			equal++
		}
	}
	if equal < 100 {
		t.Fatalf("only %d equal non-empty pairs drawn: the ⇔ was barely exercised", equal)
	}
}

// TestRowKeyTypeTags: datums of different kinds never share a key, even
// when their payloads coincide (int 1 / timestamp 1 / interval 1 / true),
// and NULL shares a key with nothing.
func TestRowKeyTypeTags(t *testing.T) {
	ds := []Datum{Null, True, NewInt(1), NewFloat(1.5), NewString("\x01"), NewString(""),
		NewTimestampMicros(1), NewIntervalMicros(1)}
	for i, x := range ds {
		for j, y := range ds {
			if i != j && bytes.Equal(x.AppendKey(nil), y.AppendKey(nil)) {
				t.Errorf("%v (%s) and %v (%s) share key %x", x, x.Type(), y, y.Type(), x.AppendKey(nil))
			}
		}
	}
}

// FuzzRowKey drives checkRowKey from fuzzer-chosen bytes.
func FuzzRowKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 1, 3, 3, 6, 2, 1, 2, 0, 1, 2, 3, 1, 1, 0})
	f.Add([]byte{1, 1, 4, 9, 4, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := (&keyGen{data: data}).rows()
		checkRowKey(t, a, b)
		checkRowKey(t, b, a)
	})
}
