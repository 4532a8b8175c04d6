package server

import (
	"encoding/json"
	"fmt"

	"streamrel/internal/types"
)

// The reflective codec this package used until the hand-written kernel
// replaced it, kept verbatim as the test-only reference: what these
// structs marshal under encoding/json is the wire format, byte for byte,
// and what they accept bounds what the kernel may accept.

type oracleRequest struct {
	ID     int64           `json:"id"`
	Op     string          `json:"op"`
	SQL    string          `json:"sql,omitempty"`
	Stream string          `json:"stream,omitempty"`
	Rows   [][]oracleValue `json:"rows,omitempty"`
	TS     int64           `json:"ts,omitempty"`
	CQ     int64           `json:"cq,omitempty"`
	Args   []oracleValue   `json:"args,omitempty"`
	LSN    uint64          `json:"lsn,omitempty"`
	Run    string          `json:"run,omitempty"`
	Trace  string          `json:"trace,omitempty"`
}

type oracleResponse struct {
	ID       int64           `json:"id,omitempty"`
	OK       bool            `json:"ok,omitempty"`
	Error    string          `json:"error,omitempty"`
	Columns  []WireColumn    `json:"columns,omitempty"`
	Rows     [][]oracleValue `json:"rows,omitempty"`
	Affected int             `json:"affected,omitempty"`
	CQ       int64           `json:"cq,omitempty"`
	Close    int64           `json:"close,omitempty"`
	Batch    bool            `json:"batch,omitempty"`
	Spans    []WireSpan      `json:"spans,omitempty"`
	Samples  []WireSample    `json:"samples,omitempty"`
	Partial  bool            `json:"partial,omitempty"`
}

type oracleValue struct {
	B  *bool    `json:"b,omitempty"`
	I  *int64   `json:"i,omitempty"`
	F  *float64 `json:"f,omitempty"`
	S  *string  `json:"s,omitempty"`
	TS *int64   `json:"ts,omitempty"`
	IV *int64   `json:"iv,omitempty"`
}

func (w oracleValue) MarshalJSON() ([]byte, error) {
	type alias oracleValue
	if w.B == nil && w.I == nil && w.F == nil && w.S == nil && w.TS == nil && w.IV == nil {
		return []byte("null"), nil
	}
	return json.Marshal(alias(w))
}

func (w *oracleValue) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*w = oracleValue{}
		return nil
	}
	type alias oracleValue
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	*w = oracleValue(a)
	return nil
}

func oracleEncodeValue(d types.Datum) oracleValue {
	switch d.Type() {
	case types.TypeBool:
		v := d.Bool()
		return oracleValue{B: &v}
	case types.TypeInt:
		v := d.Int()
		return oracleValue{I: &v}
	case types.TypeFloat:
		v := d.Float()
		return oracleValue{F: &v}
	case types.TypeString:
		v := d.Str()
		return oracleValue{S: &v}
	case types.TypeTimestamp:
		v := d.TimestampMicros()
		return oracleValue{TS: &v}
	case types.TypeInterval:
		v := d.IntervalMicros()
		return oracleValue{IV: &v}
	default:
		return oracleValue{}
	}
}

func oracleDecodeValue(w oracleValue) (types.Datum, error) {
	set := 0
	var out types.Datum = types.Null
	if w.B != nil {
		set++
		out = types.NewBool(*w.B)
	}
	if w.I != nil {
		set++
		out = types.NewInt(*w.I)
	}
	if w.F != nil {
		set++
		out = types.NewFloat(*w.F)
	}
	if w.S != nil {
		set++
		out = types.NewString(*w.S)
	}
	if w.TS != nil {
		set++
		out = types.NewTimestampMicros(*w.TS)
	}
	if w.IV != nil {
		set++
		out = types.NewIntervalMicros(*w.IV)
	}
	if set > 1 {
		return types.Null, fmt.Errorf("server: ambiguous wire value")
	}
	return out, nil
}

func oracleEncodeRow(r types.Row) []oracleValue {
	out := make([]oracleValue, len(r))
	for i, d := range r {
		out[i] = oracleEncodeValue(d)
	}
	return out
}

func oracleEncodeRows(rows [][]WireValue) [][]oracleValue {
	if rows == nil {
		return nil
	}
	out := make([][]oracleValue, len(rows))
	for i, r := range rows {
		out[i] = oracleEncodeRow(r)
	}
	return out
}

func oracleDecodeRow(ws []oracleValue) (types.Row, error) {
	out := make(types.Row, len(ws))
	for i, w := range ws {
		d, err := oracleDecodeValue(w)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

func oracleDecodeRows(wire [][]oracleValue) ([][]WireValue, error) {
	if wire == nil {
		return nil, nil
	}
	out := make([][]WireValue, len(wire))
	for i, wr := range wire {
		r, err := oracleDecodeRow(wr)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// oracleOfRequest puts a request in the reference form.
func oracleOfRequest(r *Request) *oracleRequest {
	o := &oracleRequest{ID: r.ID, Op: r.Op, SQL: r.SQL, Stream: r.Stream, Rows: oracleEncodeRows(r.Rows),
		TS: r.TS, CQ: r.CQ, LSN: r.LSN, Run: r.Run, Trace: r.Trace}
	if r.Args != nil {
		o.Args = oracleEncodeRow(r.Args)
	}
	return o
}

// request converts a decoded reference request; the error is the
// reference's "ambiguous wire value", which it raised at dispatch.
func (o *oracleRequest) request() (*Request, error) {
	rows, err := oracleDecodeRows(o.Rows)
	if err != nil {
		return nil, err
	}
	r := &Request{ID: o.ID, Op: o.Op, SQL: o.SQL, Stream: o.Stream, Rows: rows,
		TS: o.TS, CQ: o.CQ, LSN: o.LSN, Run: o.Run, Trace: o.Trace}
	if o.Args != nil {
		if r.Args, err = oracleDecodeRow(o.Args); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func oracleOfResponse(r *Response) *oracleResponse {
	return &oracleResponse{ID: r.ID, OK: r.OK, Error: r.Error, Columns: r.Columns, Rows: oracleEncodeRows(r.Rows),
		Affected: r.Affected, CQ: r.CQ, Close: r.Close, Batch: r.Batch, Spans: r.Spans, Samples: r.Samples, Partial: r.Partial}
}

func (o *oracleResponse) response() (*Response, error) {
	rows, err := oracleDecodeRows(o.Rows)
	if err != nil {
		return nil, err
	}
	return &Response{ID: o.ID, OK: o.OK, Error: o.Error, Columns: o.Columns, Rows: rows,
		Affected: o.Affected, CQ: o.CQ, Close: o.Close, Batch: o.Batch, Spans: o.Spans, Samples: o.Samples, Partial: o.Partial}, nil
}

// The row decoder codec.go had until rows got a backing string of their
// own, kept verbatim as the second test-only reference: one allocation per
// VARCHAR. It reads through the same cursor, so offsets in its errors are
// comparable with readRows's.

func (d *decoder) parentValue() (types.Datum, error) {
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
		var v string
		v, err = d.readString("") // copied out of the frame
		out = types.NewString(v)
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

func (d *decoder) parentReadRow() ([]WireValue, error) {
	if d.literal("null") {
		return nil, nil
	}
	if err := d.expect('['); err != nil {
		return nil, err
	}
	out := []WireValue{}
	for first := true; ; first = false {
		ok, err := d.more(first, ']')
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		v, err := d.parentValue()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
}

func (d *decoder) parentReadRows() ([][]WireValue, error) {
	if err := d.expect('['); err != nil {
		return nil, err
	}
	out := [][]WireValue{}
	for first := true; ; first = false {
		ok, err := d.more(first, ']')
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		row, err := d.parentReadRow()
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
}
