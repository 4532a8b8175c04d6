package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"streamrel/internal/types"
)

// sameRows compares decoded rows exactly: equal values under identical type
// tags (CompareRows alone would call 3 and 3.0 equal), NaN equal to NaN.
func sameRows(t testing.TB, got, want [][]WireValue) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		sameRow(t, got[i], want[i])
	}
}

func sameRow(t testing.TB, got, want []WireValue) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("row %v has %d values, want %d (%v)", got, len(got), len(want), want)
	}
	for j, w := range want {
		g := got[j]
		bothNaN := w.Type() == types.TypeFloat && g.Type() == types.TypeFloat && math.IsNaN(w.Float()) && math.IsNaN(g.Float())
		if g.IsNull() != w.IsNull() || (!w.IsNull() && g.Type() != w.Type()) {
			t.Fatalf("value %d: got %v (%v), want %v (%v)", j, g, g.Type(), w, w.Type())
		}
		if !w.IsNull() && !bothNaN && (types.CompareRows(types.Row{g}, types.Row{w}) != 0 ||
			(w.Type() == types.TypeFloat && math.Signbit(g.Float()) != math.Signbit(w.Float()))) {
			t.Fatalf("value %d: got %v, want %v", j, g, w)
		}
	}
}

func sameRequest(t testing.TB, got, want *Request) {
	t.Helper()
	g, w := *got, *want
	sameRows(t, g.Rows, w.Rows)
	sameRow(t, g.Args, w.Args)
	g.Rows, w.Rows, g.Args, w.Args = nil, nil, nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("request: got %+v, want %+v", g, w)
	}
}

func sameResponse(t testing.TB, got, want *Response) {
	t.Helper()
	g, w := *got, *want
	sameRows(t, g.Rows, w.Rows)
	g.Rows, w.Rows = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("response: got %+v, want %+v", g, w)
	}
}

// goldenRows exercise every tag, NULL, the HTML-escaped bytes, a control
// character, U+2028, a multi-byte rune and both float formats.
var goldenRows = [][]WireValue{
	{types.NewInt(7), types.NewString("a<b>&c"), types.NewFloat(2.5), types.NewTimestampMicros(1700000000000000)},
	{types.NewInt(math.MinInt64), types.Null, types.NewFloat(1e21), types.NewTimestampMicros(1700000000000001)},
	{types.True, types.NewString("tab\there \"q\" \u2028 é"), types.NewFloat(-0.0000001), types.NewIntervalMicros(-60000000)},
}

// TestGoldenFrames pins the wire bytes to what the reflective codec wrote
// at the commit before this kernel, so an encoding drift fails here rather
// than showing up as a changed client.wire_bytes_per_row.
func TestGoldenFrames(t *testing.T) {
	cases := []struct {
		name  string
		frame frame
		want  string
	}{
		{"append request",
			&Request{ID: 42, Op: "append", Stream: "events", Rows: goldenRows, Trace: "00000000000000ab"},
			`{"id":42,"op":"append","stream":"events","rows":[[{"i":7},{"s":"a\u003cb\u003e\u0026c"},{"f":2.5},{"ts":1700000000000000}],[{"i":-9223372036854775808},null,{"f":1e+21},{"ts":1700000000000001}],[{"b":true},{"s":"tab\there \"q\" \u2028 é"},{"f":-1e-7},{"iv":-60000000}]],"trace":"00000000000000ab"}`},
		{"batch frame",
			&Response{Batch: true, CQ: 3, Close: 60000000, Rows: goldenRows[:2], Partial: true},
			`{"rows":[[{"i":7},{"s":"a\u003cb\u003e\u0026c"},{"f":2.5},{"ts":1700000000000000}],[{"i":-9223372036854775808},null,{"f":1e+21},{"ts":1700000000000001}]],"cq":3,"close":60000000,"batch":true,"partial":true}`},
		{"query response",
			&Response{ID: 9, OK: true, Columns: EncodeSchema(types.Schema{{Name: "n", Type: types.TypeInt}, {Name: "s", Type: types.TypeString}}), Rows: goldenRows[2:], Affected: 1},
			`{"id":9,"ok":true,"columns":[{"name":"n","type":"BIGINT"},{"name":"s","type":"VARCHAR"}],"rows":[[{"b":true},{"s":"tab\there \"q\" \u2028 é"},{"f":-1e-7},{"iv":-60000000}]],"affected":1}`},
	}
	for _, c := range cases {
		got, err := c.frame.AppendJSON(nil)
		if err != nil || string(got) != c.want {
			t.Errorf("%s: AppendJSON\n got %s (%v)\nwant %s", c.name, got, err, c.want)
		}
		// encoding/json callers (the benchmark's codec probes) reach the same bytes.
		if got, err := json.Marshal(c.frame); err != nil || string(got) != c.want {
			t.Errorf("%s: json.Marshal\n got %s (%v)\nwant %s", c.name, got, err, c.want)
		}
	}
}

// edgeValues are the values whose encoding or decoding has a special case
// somewhere in encoding/json.
var edgeValues = []types.Datum{
	types.Null, types.True, types.False,
	types.NewInt(0), types.NewInt(-5), types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
	types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(2.5), types.NewFloat(1e21), types.NewFloat(1e20),
	types.NewFloat(1e-7), types.NewFloat(1e-6), types.NewFloat(5e-324), types.NewFloat(math.MaxFloat64), types.NewFloat(-1.0 / 3),
	types.NewString(""), types.NewString("<>&"), types.NewString("\u2028\u2029"), types.NewString("bad \xff\xfe utf8 \xc3"),
	types.NewString("nul \x00 bs \b ff \f nl \n cr \r tab \t esc \x1b del \x7f"), types.NewString("pair \U0001F600 \\ \" /"),
	types.NewString("日本語"),
	types.NewTimestampMicros(0), types.NewTimestampMicros(-1), types.NewTimestampMicros(math.MaxInt64),
	types.NewIntervalMicros(0), types.NewIntervalMicros(math.MinInt64),
}

// checkAgainstOracle is the differential property for frames this package
// writes: the bytes equal the reference's, the reference decodes them to
// equal values, and so does the kernel.
func checkAgainstOracle(t testing.TB, req *Request, resp *Response) {
	t.Helper()
	got, _ := req.AppendJSON(nil)
	want, err := json.Marshal(oracleOfRequest(req))
	if err != nil {
		t.Fatalf("oracle cannot marshal %+v: %v", req, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("request bytes\n got %s\nwant %s", got, want)
	}
	var back Request
	if err := back.UnmarshalJSON(got); err != nil {
		t.Fatalf("decode %s: %v", got, err)
	}
	var oback oracleRequest
	if err := json.Unmarshal(got, &oback); err != nil {
		t.Fatalf("oracle decode %s: %v", got, err)
	}
	owant, err := oback.request()
	if err != nil {
		t.Fatal(err)
	}
	sameRequest(t, &back, owant)

	got, err = resp.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if want, err = json.Marshal(oracleOfResponse(resp)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response bytes\n got %s\nwant %s", got, want)
	}
	var rback Response
	if err := rback.UnmarshalJSON(got); err != nil {
		t.Fatalf("decode %s: %v", got, err)
	}
	var orback oracleResponse
	if err := json.Unmarshal(got, &orback); err != nil {
		t.Fatalf("oracle decode %s: %v", got, err)
	}
	orwant, err := orback.response()
	if err != nil {
		t.Fatal(err)
	}
	sameResponse(t, &rback, orwant)
}

func TestEdgeValuesMatchOracle(t *testing.T) {
	rows := [][]WireValue{edgeValues, {}, edgeValues[:1]}
	checkAgainstOracle(t,
		&Request{ID: 1, Op: "append", SQL: "x<y", Stream: "s\x00", Rows: rows, TS: -1, CQ: 2, Args: edgeValues, LSN: math.MaxUint64, Run: "r", Trace: "t"},
		&Response{ID: -3, OK: true, Error: "e\n", Columns: []WireColumn{{Name: "a<", Type: "BIGINT"}}, Rows: rows, Affected: 4,
			CQ: 5, Close: 6, Batch: true, Partial: true,
			Spans:   []WireSpan{{Trace: "ab", Stage: "ingest", StartUS: 1, DurNS: 2}},
			Samples: []WireSample{{Name: "m", Kind: "histogram", Labels: map[string]string{"k": "v"}, Count: 1, Sum: 0.5, Buckets: []WireBucket{{LE: 1, N: 1}}}}})
	checkAgainstOracle(t, &Request{}, &Response{})
}

// TestNonFiniteRoundTrip covers the three values the reference could not
// send at all.
func TestNonFiniteRoundTrip(t *testing.T) {
	row := []WireValue{types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1))}
	got, _ := (&Response{OK: true, Rows: [][]WireValue{row}}).AppendJSON(nil)
	if want := `{"ok":true,"rows":[[{"f":"NaN"},{"f":"Infinity"},{"f":"-Infinity"}]]}`; string(got) != want {
		t.Fatalf("got %s, want %s", got, want)
	}
	var back Response
	if err := back.UnmarshalJSON(got); err != nil {
		t.Fatal(err)
	}
	sameRows(t, back.Rows, [][]WireValue{row})
}

// TestDecodeRejects lists frames the decoder must refuse: everything
// encoding/json refuses, and value objects it let through.
func TestDecodeRejects(t *testing.T) {
	value := func(v string) string { return `{"id":1,"op":"append","rows":[[` + v + `]]}` }
	bad := map[string]string{
		"leading plus":           value(`{"i":+1}`),
		"leading zero":           value(`{"i":01}`),
		"negative leading zero":  value(`{"i":-01}`),
		"bare minus":             value(`{"i":-}`),
		"fraction under i":       value(`{"i":1.5}`),
		"whole fraction under i": value(`{"i":1.0}`),
		"exponent under ts":      value(`{"ts":1e3}`),
		"exponent under iv":      value(`{"iv":1E3}`),
		"i out of range":         value(`{"i":9223372036854775808}`),
		"f out of range":         value(`{"f":1e999}`),
		"dangling fraction":      value(`{"f":1.}`),
		"dangling exponent":      value(`{"f":1e}`),
		"hex":                    value(`{"i":0x10}`),
		"string under i":         value(`{"i":"1"}`),
		"number under s":         value(`{"s":1}`),
		"number under b":         value(`{"b":1}`),
		"unknown non-finite":     value(`{"f":"inf"}`),
		"control char in string": value("{\"s\":\"a\x01b\"}"),
		"raw newline in string":  value("{\"s\":\"a\nb\"}"),
		"bad escape":             value(`{"s":"\x41"}`),
		"short unicode escape":   value(`{"s":"\u12"}`),
		"unterminated string":    value(`{"s":"abc}`),
		"two tags":               value(`{"i":1,"f":2.5}`),
		"duplicated tag":         value(`{"i":1,"i":2}`),
		"no tag":                 value(`{}`),
		"unknown tag":            value(`{"x":1}`),
		"upper-case tag":         value(`{"I":1}`),
		"null payload":           value(`{"i":null}`),
		"bare scalar value":      value(`1`),
		"trailing comma in row":  value(`{"i":1},`),
		"trailing garbage":       `{"id":1,"op":"ping"} x`,
		"trailing NUL":           "{\"id\":1,\"op\":\"ping\"}\x00",
		"second object":          `{"id":1,"op":"ping"}{"id":2}`,
		"trailing comma":         `{"id":1,"op":"ping",}`,
		"missing comma":          `{"id":1 "op":"ping"}`,
		"missing colon":          `{"id" 1}`,
		"unquoted key":           `{id:1}`,
		"single quotes":          `{'id':1}`,
		"fraction in id":         `{"id":1.0,"op":"ping"}`,
		"string id":              `{"id":"1","op":"ping"}`,
		"number op":              `{"id":1,"op":5}`,
		"negative lsn":           `{"id":1,"op":"replicate","lsn":-1}`,
		"rows not a list":        `{"id":1,"op":"append","rows":{}}`,
		"row not a list":         `{"id":1,"op":"append","rows":[{"i":1}]}`,
		"bad unknown field":      `{"id":1,"op":"ping","extra":[1,}`,
		"bad literal":            `{"id":1,"op":"ping","extra":nul}`,
		"array frame":            `[1]`,
		"null frame":             `null`,
		"empty":                  ``,
		"truncated":              `{"id":1,"op":"pi`,
		"comment":                `{"id":1 /* c */}`,
		"too deep":               `{"extra":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	}
	for name, in := range bad {
		var req Request
		if err := req.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%s: accepted %.80s as %+v", name, in, req)
		}
		if err := json.Unmarshal([]byte(in), &req); err == nil {
			t.Errorf("%s: accepted through json.Unmarshal", name)
		}
	}
	for name, in := range map[string]string{
		"ok as number":     `{"id":1,"ok":1}`,
		"affected as frac": `{"id":1,"affected":1.5}`,
		"columns as map":   `{"id":1,"columns":{}}`,
		"spans bad type":   `{"id":1,"spans":[{"dur_ns":"x"}]}`,
	} {
		var resp Response
		if err := resp.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("%s: accepted %s", name, in)
		}
	}
}

// TestDecodeLenience lists what the decoder keeps accepting because
// encoding/json did: whitespace, any field order, unknown and repeated
// fields, case-folded and escaped keys, escapes in strings, nulls.
func TestDecodeLenience(t *testing.T) {
	in := " {\t\"OP\" : \"append\", \"extra\": {\"a\": [1, 2.5e-3, true, null, \"\\u00e9\"]}, \"id\": 1, \"\\u0069d\": 7 ,\r\n" +
		"\"rows\": [ [ {\"s\": \"\\u00e9\\n\\ud83d\\ude00\\ud800\"} , null, { \"f\" : -0.0 } ], null, [ ] ],\n" +
		"\"stream\": null, \"args\": null, \"ts\": -0, \"lsn\": 18446744073709551615 } \n"
	var got Request
	if err := got.UnmarshalJSON([]byte(in)); err != nil {
		t.Fatal(err)
	}
	var o oracleRequest
	if err := json.Unmarshal([]byte(in), &o); err != nil {
		t.Fatal(err)
	}
	want, err := o.request()
	if err != nil {
		t.Fatal(err)
	}
	sameRequest(t, &got, want)
	if got.ID != 7 || got.Op != "append" || len(got.Rows) != 3 || got.Rows[0][0].Str() != "é\n\U0001F600\ufffd" {
		t.Fatalf("decoded %+v", got)
	}
}

// TestDecodedStringsOwnTheirBytes is the first ownership rule: nothing
// decoded aliases the frame buffer, which the reader reuses.
func TestDecodedStringsOwnTheirBytes(t *testing.T) {
	frame := []byte(`{"id":1,"op":"append","stream":"events","rows":[[{"s":"payload"}]],"args":[{"s":"arg"}]}`)
	var req Request
	if err := req.UnmarshalJSON(frame); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = '#'
	}
	if req.Op != "append" || req.Stream != "events" || req.Rows[0][0].Str() != "payload" || req.Args[0].Str() != "arg" {
		t.Fatalf("decoded strings changed with the frame buffer: %+v", req)
	}
}

// benchRows builds the rows the allocation pins use: n rows of an integer,
// two strings and a timestamp (wire_durable's shape).
func benchRows(n int) [][]WireValue {
	rows := make([][]WireValue, n)
	for i := range rows {
		rows[i] = []WireValue{types.NewInt(int64(i)), types.NewString("sensor-17"), types.NewString("ok"), types.NewTimestampMicros(1700000000000000 + int64(i))}
	}
	return rows
}

// TestCodecAllocs is the gate for the kernel's cost model: encoding into a
// warm buffer allocates nothing, and decoding through the scratch a reader
// keeps allocates a constant whatever the rows up to a block — the rows'
// container, their one []Datum and their strings' one backing; a row of args
// no container. A request decoded into again keeps its op and stream names
// when the frame repeats them, so they cost nothing.
func TestCodecAllocs(t *testing.T) {
	var strs types.RowStrings
	var req Request
	var resp Response
	for _, rows := range []int{1, 16, 256, types.BlockRows} {
		for _, c := range []struct {
			name  string
			frame frame
			into  func([]byte) error
			want  float64
		}{
			{"append request", &Request{ID: 1, Op: "append", Stream: "events", Rows: benchRows(rows)},
				func(b []byte) error { return req.decode(b, &strs) }, 3},
			{"batch frame", &Response{Batch: true, CQ: 1, Close: 60000000, Rows: benchRows(rows)},
				func(b []byte) error { return resp.decode(b, &strs) }, 3},
		} {
			buf, err := c.frame.AppendJSON(nil)
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(10, func() { buf, _ = c.frame.AppendJSON(buf[:0]) }); n != 0 {
				t.Errorf("%s: encoding into a warm buffer allocates %v, want 0", c.name, n)
			}
			if n := testing.AllocsPerRun(10, func() {
				if err := c.into(buf); err != nil {
					t.Fatal(err)
				}
			}); n != c.want {
				t.Errorf("%s of %d rows: decoding allocates %v, want %v", c.name, rows, n, c.want)
			}
		}
	}
	// A request's args are a batch of one row: its values and its strings'
	// backing, with no container; a query's SQL borrows the frame's bytes.
	buf, _ := (&Request{ID: 1, Op: "query", SQL: "SELECT $1", Args: benchRows(1)[0]}).AppendJSON(nil)
	if n := testing.AllocsPerRun(10, func() {
		if err := req.decode(buf, &strs); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("a query request with args: decoding allocates %v, want 2", n)
	}
}

// TestQueryResponseAllocs: a query response's columns go through the kernel,
// not encoding/json. Encoding k of them into a warm buffer allocates nothing,
// from wire columns or from the engine's schema, and decoding them one slice
// and a string a name: a type name is its types.Type's string.
func TestQueryResponseAllocs(t *testing.T) {
	var strs types.RowStrings
	var resp Response
	for _, k := range []int{1, 7, 64} {
		schema := make(types.Schema, k)
		for i := range schema {
			schema[i] = types.Column{Name: "col" + strconv.Itoa(i), Type: types.TypeBool + types.Type(i%6)}
		}
		frame := &Response{ID: 1, OK: true, Columns: EncodeSchema(schema)}
		buf, _ := frame.AppendJSON(nil)
		if n := testing.AllocsPerRun(10, func() { buf, _ = frame.AppendJSON(buf[:0]) }); n != 0 {
			t.Errorf("%d columns: encoding into a warm buffer allocates %v, want 0", k, n)
		}
		engine := &Response{ID: 1, OK: true, schema: schema}
		if got, _ := engine.AppendJSON(nil); !bytes.Equal(got, buf) {
			t.Errorf("%d columns: the schema encodes as\n%s\nwant\n%s", k, got, buf)
		}
		if n := testing.AllocsPerRun(10, func() { buf, _ = engine.AppendJSON(buf[:0]) }); n != 0 {
			t.Errorf("%d columns: encoding a schema into a warm buffer allocates %v, want 0", k, n)
		}
		if n := testing.AllocsPerRun(10, func() {
			if err := resp.decode(buf, &strs); err != nil {
				t.Fatal(err)
			}
		}); n > float64(1+k) {
			t.Errorf("%d columns: decoding allocates %v, want ≤ %d: the slice and the names", k, n, 1+k)
		}
		sameResponse(t, &resp, frame)
	}
}

// TestHugeFrameKeepsNoScratch: a frame at the cap decodes, and the reader
// keeps none of the scratch it grew for it past 1 MiB.
func TestHugeFrameKeepsNoScratch(t *testing.T) {
	row := []WireValue{types.NewString(strings.Repeat("x", 1000)), types.NewInt(1)}
	rows := make([][]WireValue, (MaxFrameBytes-1024)/(len(appendRow(nil, row))+1))
	for i := range rows {
		rows[i] = row
	}
	frame, _ := (&Request{ID: 1, Op: "append", Rows: rows}).AppendJSON(nil)
	if len(frame) > MaxFrameBytes || len(frame) < MaxFrameBytes-64<<10 {
		t.Fatalf("a %d-byte frame, want just under %d", len(frame), MaxFrameBytes)
	}
	fr := NewFrameReader(bytes.NewReader(append(frame, '\n')))
	var req Request
	if err := fr.Read(&req); err != nil || len(req.Rows) != len(rows) || req.Rows[len(rows)-1][0].Str() != row[0].Str() {
		t.Fatalf("%d rows, %v", len(req.Rows), err)
	}
	scratch := reflect.ValueOf(fr.strs)
	for i := 0; i < scratch.NumField(); i++ {
		if f := scratch.Field(i); f.Cap()*int(f.Type().Elem().Size()) > 1<<20 {
			t.Errorf("the reader keeps %d bytes of scratch in %s", f.Cap()*int(f.Type().Elem().Size()), scratch.Type().Field(i).Name)
		}
	}
}

// FuzzWireFrame is the differential fuzz against the reference codec.
// Arbitrary bytes: the kernel never panics, never accepts a frame the
// reference rejects (the three non-finite forms excepted), and agrees with
// it whenever both accept. From the input's first '[' on, the row decoder
// must agree with the one it replaced (oracle_test.go), value for value and
// error for error, and the rows it accepts keep the ownership rule once the
// bytes they came from are gone. The same bytes also seed a generated frame, which must
// encode to the reference's bytes and decode back exactly.
func FuzzWireFrame(f *testing.F) {
	for _, c := range []string{
		`{"id":1,"op":"ping"}`,
		`{"id":2,"op":"append","stream":"s","rows":[[{"i":1},{"s":"x"},null,{"ts":5}],[]]}`,
		`{"id":3,"ok":true,"columns":[{"name":"a","type":"BIGINT"}],"rows":[[{"f":2.5},{"b":false},{"iv":-1}]]}`,
		`{"cq":7,"close":61000000,"rows":[[{"i":42}]],"batch":true}`,
		`{"ID":1,"Rows":[[{"f":"NaN"}]],"x":{"y":[1,2,{"z":null}]}}`,
		`{"id":1,"rows":[[{"i":1,"f":2}]]}`, `{"id":1,"rows":[[{"s":"\ud83d\ude00\u0000"}]]}`,
		`{"id":1,"args":[{"i":1}],"args":null,"id":null}`,
		`{"ok":true,"columns":[{"name":"a\"b\\c\u0041\n","type":"VARCHAR"},{"name":"<&>\u2028","type":"BIGINT"},{"name":"é\ud83d\ude00","type":"double"}]}`,
		`{"ok":true,"columns":[{"Name":"a","TYPE":"BIGINT","x":{"y":[1]}},null,{"name":null,"type":"BOOLEAN"},{}]}`,
		`{"ok":true,"columns":[{"name":"a","name":"b"}],"columns":[{"type":"TIMESTAMP"},{"name":"c"}],"columns":[null]}`,
		`{"ok":true,"columns":null,"columns":[],"columns":[{"name":1}]}`,
	} {
		f.Add([]byte(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		nonFinite := bytes.Contains(data, []byte("NaN")) || bytes.Contains(data, []byte("Infinity"))

		var req Request
		var oreq oracleRequest
		err, oerr := req.UnmarshalJSON(data), json.Unmarshal(data, &oreq)
		var want *Request
		if oerr == nil {
			want, oerr = oreq.request()
		}
		if err == nil && oerr != nil && !nonFinite {
			t.Fatalf("request %q accepted as %+v, reference says %v", data, req, oerr)
		}
		if err == nil && oerr == nil {
			sameRequest(t, &req, want)
		}

		var resp Response
		var oresp oracleResponse
		err, oerr = resp.UnmarshalJSON(data), json.Unmarshal(data, &oresp)
		var rwant *Response
		if oerr == nil {
			rwant, oerr = oresp.response()
		}
		if err == nil && oerr != nil && !nonFinite {
			t.Fatalf("response %q accepted as %+v, reference says %v", data, resp, oerr)
		}
		if err == nil && oerr == nil {
			sameResponse(t, &resp, rwant)
		}

		if i := bytes.IndexByte(data, '['); i >= 0 {
			in := append([]byte(nil), data[i:]...)
			d, p := decoder{buf: in, strs: new(types.RowStrings)}, decoder{buf: data[i:]}
			got, err := d.readRows()
			want, perr := p.parentReadRows()
			if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) || d.pos != p.pos {
				t.Fatalf("rows of %q: %v at %d, the decoder before says %v at %d", data[i:], err, d.pos, perr, p.pos)
			}
			if err == nil {
				for j := range in {
					in[j] = 0xFF
				}
				sameRows(t, got, want)
				if err := types.CheckBatch(Rows(got)); err != nil {
					t.Fatal(err)
				}
			}
		}

		rows := rowsFromBytes(data)
		var args []WireValue
		if len(rows) > 0 {
			args = rows[0]
		}
		checkAgainstOracle(t,
			&Request{ID: int64(len(data)), Op: "append", Stream: string(data), Rows: rows, Args: args},
			&Response{OK: true, Error: string(data), Rows: rows, Batch: len(data)%2 == 0})
	})
}

// rowsFromBytes generates rows from fuzz input: each byte picks a type and,
// with the bytes after it, a value; every eighth byte ends a row. Finite
// values only — the reference has no form for the others.
func rowsFromBytes(data []byte) [][]WireValue {
	var rows [][]WireValue
	row := []WireValue{}
	for i, b := range data {
		var word [8]byte
		copy(word[:], data[i:])
		u := binary.LittleEndian.Uint64(word[:])
		switch b % 8 {
		case 0:
			row = append(row, types.Null)
		case 1:
			row = append(row, types.NewBool(u&256 != 0))
		case 2:
			row = append(row, types.NewInt(int64(u)))
		case 3:
			if f := math.Float64frombits(u); !math.IsNaN(f) && !math.IsInf(f, 0) {
				row = append(row, types.NewFloat(f))
			} else {
				row = append(row, types.NewFloat(float64(int64(u))))
			}
		case 4:
			row = append(row, types.NewString(string(data[i:min(len(data), i+int(b)/8)])))
		case 5:
			row = append(row, types.NewTimestampMicros(int64(u)))
		case 6:
			row = append(row, types.NewIntervalMicros(int64(u)))
		case 7:
			row = append(row, edgeValues[int(u>>8)%len(edgeValues)])
		}
		if i%8 == 7 {
			rows = append(rows, row)
			row = []WireValue{}
		}
	}
	return append(rows, row)
}

// FuzzDecodeSamples checks DecodeSamples on whatever a "metrics" response
// can carry: it never panics, keeps every sample, and gives each histogram
// its +Inf bucket with labels sorted.
func FuzzDecodeSamples(f *testing.F) {
	f.Add([]byte(`[{"name":"a","kind":"counter","value":1},{"name":"h","labels":{"b":"1","a":"2"},"kind":"histogram","count":3,"sum":1.5,"buckets":[{"le":0.1,"n":1}]}]`))
	f.Add([]byte(`[{"name":"g","kind":"nonsense"},{}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if resp.UnmarshalJSON(append(append([]byte(`{"ok":true,"samples":`), data...), '}')) != nil {
			return
		}
		out := DecodeSamples(resp.Samples)
		if len(out) != len(resp.Samples) {
			t.Fatalf("%d samples in, %d out", len(resp.Samples), len(out))
		}
		for i, s := range out {
			w := resp.Samples[i]
			if s.Name != w.Name || len(s.Labels) != len(w.Labels) {
				t.Fatalf("sample %d: %+v from %+v", i, s, w)
			}
			for j := 1; j < len(s.Labels); j++ {
				if s.Labels[j-1].Key >= s.Labels[j].Key {
					t.Fatalf("sample %d labels unsorted: %v", i, s.Labels)
				}
			}
			if w.Kind == "histogram" {
				last := s.Buckets[len(s.Buckets)-1]
				if len(s.Buckets) != len(w.Buckets)+1 || !math.IsInf(last.UpperBound, 1) || last.Count != w.Count {
					t.Fatalf("sample %d buckets %v from %+v", i, s.Buckets, w)
				}
			}
			// Re-encoding what was decoded must itself be encodable.
			if _, err := (&Response{Samples: EncodeSamples(out[i : i+1])}).AppendJSON(nil); err != nil {
				t.Fatalf("sample %d does not re-encode: %v", i, err)
			}
		}
	})
}
