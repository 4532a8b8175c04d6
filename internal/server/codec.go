package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"streamrel/internal/types"
)

// The wire kernel: the only code between frame bytes and types.Datum. The
// encoder appends to a caller-owned buffer and reproduces encoding/json's
// output byte for byte (float formatting, HTML-safe string escaping,
// omitempty field order), so frames written here are the frames every
// earlier client and server wrote. The decoder reads one frame in one pass
// with no intermediate value form; proto.go states the grammar and the two
// ownership rules it keeps.

// ---- encode ----------------------------------------------------------------

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json copies through unescaped
// with HTML escaping on (its htmlSafeSet).
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string literal exactly as encoding/json
// writes it: <, >, & and U+2028/2029 as \u escapes, invalid UTF-8 as the
// escape of U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends a finite float in encoding/json's format: shortest
// round-trip digits, exponent form outside [1e-6, 1e21).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json does.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendValue appends one datum in tagged form. Every datum has a form, so
// this cannot fail: the non-finite DOUBLEs JSON has no number for travel
// as strings under the same tag.
func appendValue(dst []byte, d types.Datum) []byte {
	switch d.Type() {
	case types.TypeBool:
		if d.Bool() {
			return append(dst, `{"b":true}`...)
		}
		return append(dst, `{"b":false}`...)
	case types.TypeInt:
		dst = append(dst, `{"i":`...)
		dst = strconv.AppendInt(dst, d.Int(), 10)
	case types.TypeFloat:
		f := d.Float()
		switch {
		case math.IsNaN(f):
			return append(dst, `{"f":"NaN"}`...)
		case math.IsInf(f, 1):
			return append(dst, `{"f":"Infinity"}`...)
		case math.IsInf(f, -1):
			return append(dst, `{"f":"-Infinity"}`...)
		}
		dst = append(dst, `{"f":`...)
		dst = appendFloat(dst, f)
	case types.TypeString:
		dst = append(dst, `{"s":`...)
		dst = appendString(dst, d.Str())
	case types.TypeTimestamp:
		dst = append(dst, `{"ts":`...)
		dst = strconv.AppendInt(dst, d.TimestampMicros(), 10)
	case types.TypeInterval:
		dst = append(dst, `{"iv":`...)
		dst = strconv.AppendInt(dst, d.IntervalMicros(), 10)
	default:
		return append(dst, "null"...)
	}
	return append(dst, '}')
}

func appendRow(dst []byte, row []WireValue) []byte {
	dst = append(dst, '[')
	for i, d := range row {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(dst, d)
	}
	return append(dst, ']')
}

func appendRows(dst []byte, rows [][]WireValue) []byte {
	dst = append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendRow(dst, row)
	}
	return append(dst, ']')
}

// fieldWriter appends an object's fields, placing the commas.
type fieldWriter struct {
	dst []byte
	n   int
}

// key appends `"name":`; names are ASCII literals needing no escape.
func (w *fieldWriter) key(name string) {
	if w.n > 0 {
		w.dst = append(w.dst, ',')
	}
	w.n++
	w.dst = append(w.dst, '"')
	w.dst = append(w.dst, name...)
	w.dst = append(w.dst, '"', ':')
}

func (w *fieldWriter) num(name string, v int64) {
	w.key(name)
	w.dst = strconv.AppendInt(w.dst, v, 10)
}

func (w *fieldWriter) str(name, v string) {
	w.key(name)
	w.dst = appendString(w.dst, v)
}

// The opt* forms are omitempty: the zero value writes nothing.

func (w *fieldWriter) optInt(name string, v int64) {
	if v != 0 {
		w.num(name, v)
	}
}

func (w *fieldWriter) optStr(name, v string) {
	if v != "" {
		w.str(name, v)
	}
}

func (w *fieldWriter) optTrue(name string, v bool) {
	if v {
		w.key(name)
		w.dst = append(w.dst, "true"...)
	}
}

func (w *fieldWriter) optRows(name string, rows [][]WireValue) {
	if len(rows) > 0 {
		w.key(name)
		w.dst = appendRows(w.dst, rows)
	}
}

// optColumns appends a response's columns, or its schema as EncodeSchema
// would convert it, as encoding/json writes them.
func (w *fieldWriter) optColumns(cols []WireColumn, schema types.Schema) {
	if len(cols)+len(schema) == 0 {
		return
	}
	w.key("columns")
	w.dst = append(w.dst, '[')
	column := func(name, typ string) {
		o := fieldWriter{dst: append(w.dst, '{')}
		o.str("name", name)
		o.str("type", typ)
		w.dst = append(o.dst, '}', ',')
	}
	for _, c := range cols {
		column(c.Name, c.Type)
	}
	for _, c := range schema {
		column(c.Name, c.Type.String())
	}
	w.dst[len(w.dst)-1] = ']'
}

// optCold delegates a cold nested payload (spans, samples; n is its length)
// to encoding/json.
func (w *fieldWriter) optCold(name string, n int, v any) error {
	if n == 0 {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	w.key(name)
	w.dst = append(w.dst, b...)
	return nil
}

// AppendJSON appends the request as one JSON object (no newline) and
// returns the extended buffer. The error is always nil; the signature
// matches Response.AppendJSON so one frame writer serves both.
func (r *Request) AppendJSON(dst []byte) ([]byte, error) {
	w := fieldWriter{dst: append(dst, '{')}
	w.num("id", r.ID)
	w.str("op", r.Op)
	w.optStr("sql", r.SQL)
	w.optStr("stream", r.Stream)
	w.optRows("rows", r.Rows)
	w.optInt("ts", r.TS)
	w.optInt("cq", r.CQ)
	if len(r.Args) > 0 {
		w.key("args")
		w.dst = appendRow(w.dst, r.Args)
	}
	if r.LSN != 0 {
		w.key("lsn")
		w.dst = strconv.AppendUint(w.dst, r.LSN, 10)
	}
	w.optStr("run", r.Run)
	w.optStr("trace", r.Trace)
	return append(w.dst, '}'), nil
}

// AppendJSON appends the response as one JSON object (no newline) and
// returns the extended buffer. It fails only if a span or sample cannot be
// marshalled; dst's contents up to its original length are untouched then.
func (r *Response) AppendJSON(dst []byte) ([]byte, error) {
	w := fieldWriter{dst: append(dst, '{')}
	w.optInt("id", r.ID)
	w.optTrue("ok", r.OK)
	w.optStr("error", r.Error)
	w.optColumns(r.Columns, r.schema)
	w.optRows("rows", r.Rows)
	w.optInt("affected", int64(r.Affected))
	w.optInt("cq", r.CQ)
	w.optInt("close", r.Close)
	w.optTrue("batch", r.Batch)
	if err := w.optCold("spans", len(r.Spans), r.Spans); err != nil {
		return dst, err
	}
	if err := w.optCold("samples", len(r.Samples), r.Samples); err != nil {
		return dst, err
	}
	w.optTrue("partial", r.Partial)
	return append(w.dst, '}'), nil
}

// MarshalJSON lets encoding/json callers reach the same kernel.
func (r *Request) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// MarshalJSON lets encoding/json callers reach the same kernel.
func (r *Response) MarshalJSON() ([]byte, error) { return r.AppendJSON(nil) }

// ---- decode ----------------------------------------------------------------

// maxDepth is encoding/json's nesting limit, kept so that this decoder
// refuses every frame that one refuses.
const maxDepth = 10000

// decoder is a cursor over one frame, dropped at the frame's first error.
// Nothing it returns aliases buf except the transient result of rawString.
type decoder struct {
	buf []byte
	pos int
	// inObject is set once the frame's first field has been read.
	inObject bool
	// strs is the scratch of the reader that owns the decode.
	strs *types.RowStrings
}

func (d *decoder) errAt(msg string) error {
	return fmt.Errorf("%s at offset %d", msg, d.pos)
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; c {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return c
		}
	}
	return 0
}

// expect consumes c after optional whitespace.
func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.errAt("expected '" + string(c) + "'")
	}
	d.pos++
	return nil
}

// literal consumes lit if it is next, reporting whether it did.
func (d *decoder) literal(lit string) bool {
	d.peek()
	if end := d.pos + len(lit); end <= len(d.buf) && string(d.buf[d.pos:end]) == lit {
		d.pos = end
		return true
	}
	return false
}

// more steps through a comma-separated list closed by end: it reports
// whether another element follows, consuming the separator or the closer.
// first is true before the first element.
func (d *decoder) more(first bool, end byte) (bool, error) {
	switch c := d.peek(); {
	case c == end:
		d.pos++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.pos++
		if d.peek() == end {
			return false, d.errAt("trailing comma")
		}
		return true, nil
	}
	return false, d.errAt("expected ',' or '" + string(end) + "'")
}

// rawString consumes a string literal and returns its contents. The fast
// path (no escapes, valid UTF-8) returns a sub-slice of the frame; anything
// else goes through encoding/json on the quoted literal, so escape and
// replacement semantics are exactly its own.
func (d *decoder) rawString() ([]byte, error) {
	if err := d.expect('"'); err != nil {
		return nil, err
	}
	start := d.pos
	plain, ascii := true, true
	for d.pos < len(d.buf) {
		switch c := d.buf[d.pos]; {
		case c == '"':
			body := d.buf[start:d.pos]
			d.pos++
			if plain && (ascii || utf8.Valid(body)) {
				return body, nil
			}
			var s string
			if err := json.Unmarshal(d.buf[start-1:d.pos], &s); err != nil {
				return nil, err
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			d.pos++ // the escaped byte may be a quote
		case c < 0x20:
			return nil, d.errAt("control character in string")
		case c >= utf8.RuneSelf:
			ascii = false
		}
		d.pos++
	}
	return nil, d.errAt("unterminated string")
}

// readString consumes a string literal into a string of its own, which is
// prev (a name the last frame had) when the literal reads the same.
func (d *decoder) readString(prev string) (string, error) {
	b, err := d.rawString()
	if err == nil && string(b) == prev {
		return prev, nil
	}
	return string(b), err
}

// number consumes a JSON number and returns its text; integral reports
// that it has neither fraction nor exponent.
func (d *decoder) number() (text []byte, integral bool, err error) {
	d.peek()
	start := d.pos
	digits := func() (n int) {
		for d.pos < len(d.buf) && d.buf[d.pos]-'0' <= 9 {
			d.pos++
			n++
		}
		return n
	}
	at := func(c byte) bool { return d.pos < len(d.buf) && d.buf[d.pos] == c }
	if at('-') {
		d.pos++
	}
	if at('0') {
		d.pos++ // a leading zero stands alone
	} else if digits() == 0 {
		return nil, false, d.errAt("expected a number")
	}
	integral = true
	if at('.') {
		d.pos++
		integral = false
		if digits() == 0 {
			return nil, false, d.errAt("expected fraction digits")
		}
	}
	if at('e') || at('E') {
		d.pos++
		integral = false
		if at('+') || at('-') {
			d.pos++
		}
		if digits() == 0 {
			return nil, false, d.errAt("expected exponent digits")
		}
	}
	return d.buf[start:d.pos], integral, nil
}

// readInt consumes an integer of the given bit size; like encoding/json
// it refuses a fraction or exponent even when the value is whole.
func (d *decoder) readInt(bits int) (int64, error) {
	text, integral, err := d.number()
	if err != nil {
		return 0, err
	}
	if !integral {
		return 0, d.errAt("expected an integer")
	}
	v, err := strconv.ParseInt(string(text), 10, bits)
	if err != nil {
		return 0, d.errAt("integer out of range")
	}
	return v, nil
}

func (d *decoder) readUint64() (uint64, error) {
	text, integral, err := d.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseUint(string(text), 10, 64)
	if !integral || err != nil {
		return 0, d.errAt("expected an unsigned 64-bit integer")
	}
	return v, nil
}

func (d *decoder) readBool() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"):
		return false, nil
	}
	return false, d.errAt("expected true or false")
}

// readFloat consumes the payload of an "f" tag: a number, or one of the
// three strings that carry the non-finite values.
func (d *decoder) readFloat() (float64, error) {
	if d.peek() == '"' {
		s, err := d.rawString()
		if err != nil {
			return 0, err
		}
		switch string(s) {
		case "NaN":
			return math.NaN(), nil
		case "Infinity":
			return math.Inf(1), nil
		case "-Infinity":
			return math.Inf(-1), nil
		}
		return 0, d.errAt("unknown non-finite float")
	}
	text, _, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		return 0, d.errAt("float out of range")
	}
	return f, nil
}

// value consumes null or a one-tag object. Two tags, a repeated tag, an
// unknown tag and {} are all errors: the ambiguity check lives here, where
// the bytes are.
func (d *decoder) value() (types.Datum, error) {
	if d.literal("null") {
		return types.Null, nil
	}
	if err := d.expect('{'); err != nil {
		return types.Null, err
	}
	tag, err := d.rawString()
	if err == nil {
		err = d.expect(':')
	}
	if err != nil {
		return types.Null, err
	}
	var out types.Datum
	switch string(tag) {
	case "b":
		var v bool
		v, err = d.readBool()
		out = types.NewBool(v)
	case "i":
		var v int64
		v, err = d.readInt(64)
		out = types.NewInt(v)
	case "f":
		var v float64
		v, err = d.readFloat()
		out = types.NewFloat(v)
	case "s":
		var raw []byte
		raw, err = d.rawString()
		out = d.strs.Add(raw) // copied out of the frame; the list's end resolves it
	case "ts":
		var v int64
		v, err = d.readInt(64)
		out = types.NewTimestampMicros(v)
	case "iv":
		var v int64
		v, err = d.readInt(64)
		out = types.NewIntervalMicros(v)
	default:
		err = d.errAt("unknown value tag")
	}
	if err != nil {
		return types.Null, err
	}
	if d.peek() != '}' {
		return types.Null, d.errAt("a value carries exactly one tag")
	}
	d.pos++
	return out, nil
}

// readRow consumes one array of values into the batch d.strs is decoding.
// null stands for the empty row, as it did under encoding/json.
func (d *decoder) readRow() error {
	if d.literal("null") {
		d.strs.EndRow()
		return nil
	}
	if err := d.expect('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.more(first, ']')
		if err != nil {
			return err
		}
		if !ok {
			d.strs.EndRow()
			return nil
		}
		v, err := d.value()
		if err != nil {
			return err
		}
		d.strs.Push(v)
	}
}

// readRows consumes a list of rows, one batch (proto.go's ownership rule).
func (d *decoder) readRows() ([][]WireValue, error) {
	if err := d.expect('['); err != nil {
		return nil, err
	}
	d.strs.Reset()
	for first := true; ; first = false {
		ok, err := d.more(first, ']')
		if err != nil {
			return nil, err
		}
		if !ok {
			return types.DatumsView(d.strs.Rows()), nil
		}
		if err := d.readRow(); err != nil {
			return nil, err
		}
	}
}

// skip consumes and validates one value of any shape; depth counts the
// containers already open around it.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return d.errAt("exceeded max depth")
		}
		d.pos++
		end := c + 2 // '{'+2 == '}', '['+2 == ']'
		for first := true; ; first = false {
			ok, err := d.more(first, end)
			if err != nil || !ok {
				return err
			}
			if c == '{' {
				if _, err := d.rawString(); err != nil {
					return err
				}
				if err := d.expect(':'); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.rawString()
		return err
	case c == '-' || c-'0' <= 9:
		_, _, err := d.number()
		return err
	case d.literal("true") || d.literal("false") || d.literal("null"):
		return nil
	}
	return d.errAt("expected a value")
}

// cold consumes one nested payload and hands its bytes to encoding/json.
func (d *decoder) cold(into any) error {
	d.peek()
	start := d.pos
	if err := d.skip(1); err != nil {
		return err
	}
	return json.Unmarshal(d.buf[start:d.pos], into)
}

var columnFields = []string{"name", "type"}

// readColumns reads a response's columns into one slice, as encoding/json
// decodes them into prev, an earlier "columns" of the frame: each into prev's
// element where prev had room for it.
func (d *decoder) readColumns(prev []WireColumn) ([]WireColumn, error) {
	if err := d.expect('['); err != nil {
		return nil, err
	}
	start, n := d.pos, 0
	for ok, err := d.more(true, ']'); ok || err != nil; ok, err = d.more(false, ']') {
		if err == nil {
			err = d.skip(2)
		}
		if err != nil {
			return nil, err
		}
		n++
	}
	cols := prev[:cap(prev)]
	if n == 0 || n > len(cols) {
		cols = append(make([]WireColumn, 0, n), cols[:min(n, len(cols))]...)
	}
	cols, list := cols[:n], decoder{buf: d.buf[:d.pos], pos: start}
	for i := range cols {
		list.more(i == 0, ']')
		obj := decoder{pos: list.pos}
		list.skip(2)
		obj.buf = list.buf[:list.pos]
		if err := obj.readColumn(&cols[i]); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// readColumn decodes a column, which ends d's buffer, into c; null leaves c
// as it is. Keys match as field matches them, and a type name that spells a
// types.Type is that type's string.
func (d *decoder) readColumn(c *WireColumn) error {
	if d.literal("null") {
		return nil
	}
	for {
		name, null, err := d.field(columnFields)
		switch {
		case err != nil || name == "":
			return err
		case null:
		case name == "name":
			c.Name, err = d.readString(c.Name)
		default:
			var b []byte
			if b, err = d.rawString(); err == nil {
				c.Type = typeName(b)
			}
		}
		if err != nil {
			return err
		}
	}
}

// typeName returns b as a string: a types.Type's own where b spells one.
func typeName(b []byte) string {
	for t := types.TypeUnknown; t <= types.TypeInterval; t++ {
		if s := t.String(); string(b) == s {
			return s
		}
	}
	return string(b)
}

// field advances to the next field of the frame's top-level object that is
// one of names and leaves the cursor on its value; fields with other keys
// are validated and skipped. null reports that the value was null and has
// been consumed. At the end of the frame it returns "". Keys match as
// encoding/json matches them: exactly, else case-insensitively.
func (d *decoder) field(names []string) (name string, null bool, err error) {
	if !d.inObject {
		if err := d.expect('{'); err != nil {
			return "", false, err
		}
	}
	for {
		ok, err := d.more(!d.inObject, '}')
		d.inObject = true
		if err != nil {
			return "", false, err
		}
		if !ok {
			if d.peek(); d.pos < len(d.buf) { // not peek() != 0: a NUL byte is data too
				return "", false, d.errAt("trailing data after the frame")
			}
			return "", false, nil
		}
		key, err := d.rawString()
		if err != nil {
			return "", false, err
		}
		for _, n := range names {
			if string(key) == n {
				name = n
				break
			}
		}
		for i := 0; name == "" && i < len(names); i++ {
			if bytes.EqualFold(key, []byte(names[i])) {
				name = names[i]
			}
		}
		if err := d.expect(':'); err != nil {
			return "", false, err
		}
		if name != "" {
			return name, d.literal("null"), nil
		}
		if err := d.skip(1); err != nil {
			return "", false, err
		}
	}
}

var requestFields = []string{"id", "op", "sql", "stream", "rows", "ts", "cq", "args", "lsn", "run", "trace"}

// UnmarshalJSON decodes one request frame, replacing *r. Unknown fields
// are skipped and a repeated field keeps its last value; null leaves a
// scalar as it is and empties a list, as under encoding/json.
func (r *Request) UnmarshalJSON(data []byte) error { return r.decode(data, new(types.RowStrings)) }

// UnmarshalJSON decodes one response frame, replacing *r, under the same
// rules as Request.UnmarshalJSON.
func (r *Response) UnmarshalJSON(data []byte) error { return r.decode(data, new(types.RowStrings)) }

// decode is UnmarshalJSON with the scratch of the reader that owns the
// decode. A request decoded into again keeps its op and stream names when the
// frame repeats them, so a session's stream of appends copies neither.
func (r *Request) decode(data []byte, strs *types.RowStrings) error {
	op, stream := r.Op, r.Stream
	*r = Request{}
	d := decoder{buf: data, strs: strs}
	for {
		name, null, err := d.field(requestFields)
		switch {
		case err != nil:
		case name == "":
			if r.Op != "query" { // only a query's text is served and let go
				r.SQL = strings.Clone(r.SQL)
			}
			return nil
		case null:
			switch name {
			case "rows":
				r.Rows = nil
			case "args":
				r.Args = nil
			}
		case name == "id":
			r.ID, err = d.readInt(64)
		case name == "op":
			r.Op, err = d.readString(op)
		case name == "sql":
			var b []byte
			if b, err = d.rawString(); err == nil {
				r.SQL = types.Borrow(b)
			}
		case name == "stream":
			r.Stream, err = d.readString(stream)
		case name == "rows":
			r.Rows, err = d.readRows()
		case name == "ts":
			r.TS, err = d.readInt(64)
		case name == "cq":
			r.CQ, err = d.readInt(64)
		case name == "args":
			d.strs.Reset() // a batch of one
			if err = d.readRow(); err == nil {
				r.Args = d.strs.Row()
			}
		case name == "lsn":
			r.LSN, err = d.readUint64()
		case name == "run":
			r.Run, err = d.readString("")
		case name == "trace":
			r.Trace, err = d.readString("")
		}
		if err != nil {
			return fmt.Errorf("server: malformed request: %w", err)
		}
	}
}

var responseFields = []string{"id", "ok", "error", "columns", "rows", "affected", "cq", "close", "batch", "spans", "samples", "partial"}

func (r *Response) decode(data []byte, strs *types.RowStrings) error {
	*r = Response{}
	d := decoder{buf: data, strs: strs}
	for {
		name, null, err := d.field(responseFields)
		switch {
		case err != nil:
		case name == "":
			return nil
		case null:
			switch name {
			case "columns":
				r.Columns = nil
			case "rows":
				r.Rows = nil
			case "spans":
				r.Spans = nil
			case "samples":
				r.Samples = nil
			}
		case name == "id":
			r.ID, err = d.readInt(64)
		case name == "ok":
			r.OK, err = d.readBool()
		case name == "error":
			r.Error, err = d.readString("")
		case name == "columns":
			r.Columns, err = d.readColumns(r.Columns)
		case name == "rows":
			r.Rows, err = d.readRows()
		case name == "affected":
			var v int64
			v, err = d.readInt(strconv.IntSize)
			r.Affected = int(v)
		case name == "cq":
			r.CQ, err = d.readInt(64)
		case name == "close":
			r.Close, err = d.readInt(64)
		case name == "batch":
			r.Batch, err = d.readBool()
		case name == "spans":
			err = d.cold(&r.Spans)
		case name == "samples":
			err = d.cold(&r.Samples)
		case name == "partial":
			r.Partial, err = d.readBool()
		}
		if err != nil {
			return fmt.Errorf("server: malformed response: %w", err)
		}
	}
}
