// Package server exposes a streamrel engine over TCP with a
// newline-delimited JSON protocol. One request, one response — except
// subscriptions, whose window batches are pushed asynchronously, which is
// the natural wire shape for continuous queries: the paper's CQs "produce
// answers incrementally and run until they are explicitly terminated".
//
// Frame format (one JSON object per line):
//
//	→ {"id":1,"op":"exec","sql":"CREATE TABLE t (a bigint)"}
//	← {"id":1,"ok":true}
//	→ {"id":2,"op":"query","sql":"SELECT * FROM t"}
//	← {"id":2,"ok":true,"columns":[{"name":"a","type":"BIGINT"}],"rows":[[{"i":1}]]}
//	→ {"id":3,"op":"subscribe","sql":"SELECT count(*) FROM s <ADVANCE '1 minute'>"}
//	← {"id":3,"ok":true,"cq":7,"columns":[…]}
//	← {"cq":7,"close":61000000,"rows":[[{"i":42}]]}        (async, repeated)
//	→ {"id":4,"op":"unsubscribe","cq":7}
//	→ {"id":5,"op":"append","stream":"s","rows":[[…],[…]]}
//	→ {"id":6,"op":"advance","stream":"s","ts":61000000}
//
// Grammar (EBNF; ws is JSON whitespace and may surround any token):
//
//	stream   = { frame "\n" } .
//	frame    = "{" [ field { "," field } ] "}" .        one object per line
//	field    = string ":" ( scalar | rows | row | columns | cold | "null" ) .
//	rows     = "[" [ row { "," row } ] "]" .            "rows"
//	row      = "[" [ value { "," value } ] "]" | "null" .   a rows element, "args"
//	value    = "null"                                   SQL NULL
//	         | "{" tag ":" payload "}" .                exactly one tag
//	tag      = `"b"` | `"i"` | `"f"` | `"s"` | `"ts"` | `"iv"` .
//	payload  = "true" | "false"                         b  BOOLEAN
//	         | integer                                  i  BIGINT
//	         | number | `"NaN"` | `"Infinity"` | `"-Infinity"`    f  DOUBLE
//	         | string                                   s  VARCHAR
//	         | integer                                  ts TIMESTAMP, micros since epoch
//	         | integer .                                iv INTERVAL, micros
//	scalar   = integer | string | "true" | "false" .    per field, see Request/Response
//	columns  = "[" [ column { "," column } ] "]" .      "columns"
//	column   = "{" [ cfield { "," cfield } ] "}" | "null" .
//	cfield   = string ":" ( string | "null" ) .         "name", "type"; another key any value, skipped
//	cold     = any JSON value .                         "spans", "samples"
//
// number and string are JSON's; integer is a JSON number with neither
// fraction nor exponent that fits its field. Request fields: id op sql
// stream rows ts cq args lsn run trace; response fields: id ok error
// columns rows affected cq close batch spans samples partial. Unknown
// fields are skipped, a repeated field keeps its last value, and null
// leaves a scalar field unset and a list field empty. Types round-trip
// exactly, including the three
// DOUBLEs JSON has no number for. A value object with two tags, a repeated
// tag, an unknown tag or none is refused, as is anything encoding/json
// would refuse (leading zeros or '+', a fraction under an integer tag, a
// bare control character in a string, bytes after the object).
//
// A frame is at most MaxFrameBytes long in either direction. A malformed or
// oversized request is answered with one {"error":…} frame and the
// connection closes; a response that cannot be encoded is replaced by
// {"id":…,"error":…} and the connection stays up.
//
// Ownership, the one rule every row decoder keeps — this one, and
// types.RowStrings under the WAL reader and replication frames: a decoded
// batch (a list of rows) is its container and, a block, one []Datum and one
// backing of every VARCHAR payload — three allocations while it is one block
// of at most types.BlockRows rows and 512 KiB of values and of strings; a
// batch of one (a request's args, a per-row WAL record) has no container. Each
// row is a full-capacity slice of its block, sharing memory with no frame
// buffer and no other batch (types.CheckBatch); a retained row pins its block.
// An append the engine reports unkept (Engine.AppendBorrowed: no pending
// mailbox or window state holds a row) goes back to the server's reader, which
// carves its next batch into it; a replica's repl.Reader does the same with an
// event's values and strings. Who keeps a batch: a CQ's raw rows, an aggregate
// with no inverse (ivm.Store.KeepsRows); a group key keeps nothing (its own
// string), and a channel's heap and the replication ring keep copies.
//
// Placeholders, the rule beside it: while a batch is being decoded each
// VARCHAR column is what types.RowStrings.Add returned — a length and no
// bytes, which panics if read — and becomes a string only when the batch
// ends. So a decoder never hands out, formats, compares or encodes a datum of
// a batch it has not finished: a batch that fails midway is dropped whole
// (value and readRows return no datum with their error, types.DecodeRow no
// row, and the frame, record batch or event above them nothing).
package server

import (
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// MaxFrameBytes caps one frame on the wire, read or written. It is a
// constant of the protocol, not a knob: twice repl.MaxEventBytes, because
// the tagged-JSON text of a batch is about twice its binary replication
// encoding, so anything the primary can ship to a replica in one event a
// client can also send or receive in one frame.
const MaxFrameBytes = 64 << 20

// Request is one client frame.
type Request struct {
	ID int64  `json:"id"`
	Op string `json:"op"`
	// A query's SQL borrows the frame's bytes, valid while the request is
	// served: only the plan cache keeps it, and it keeps a clone.
	SQL    string        `json:"sql,omitempty"`
	Stream string        `json:"stream,omitempty"`
	Rows   [][]WireValue `json:"rows,omitempty"`
	TS     int64         `json:"ts,omitempty"`
	CQ     int64         `json:"cq,omitempty"`
	// Args bind $1, $2, … placeholders in SQL.
	Args []WireValue `json:"args,omitempty"`
	// LSN and Run identify a replica's resume point for the "replicate"
	// op: the last applied LSN under the primary run ID Run. After the
	// server acknowledges, the connection switches to binary replication
	// frames (see internal/repl).
	LSN uint64 `json:"lsn,omitempty"`
	Run string `json:"run,omitempty"`
	// Trace carries a sampled trace ID (16-hex, see internal/trace)
	// across a router hop so shard-side spans join the router's trace.
	Trace string `json:"trace,omitempty"`
	// recycle: nothing kept Rows (non-empty, so this frame's); the session loop recycles them.
	recycle bool
}

// Response is one server frame. Async CQ batches have ID 0 and CQ set.
type Response struct {
	ID      int64        `json:"id,omitempty"`
	OK      bool         `json:"ok,omitempty"`
	Error   string       `json:"error,omitempty"`
	Columns []WireColumn `json:"columns,omitempty"`
	// schema is the engine's answer's columns: its result's own schema,
	// written as EncodeSchema would convert it, so it converts nothing.
	schema types.Schema
	Rows   [][]WireValue `json:"rows,omitempty"`
	// Affected is the DML row count.
	Affected int `json:"affected,omitempty"`
	// CQ is the subscription handle (on subscribe responses and batches).
	CQ int64 `json:"cq,omitempty"`
	// Close is the window boundary of an async batch, micros since epoch.
	Close int64 `json:"close,omitempty"`
	// Batch marks asynchronous CQ result frames.
	Batch bool `json:"batch,omitempty"`
	// Spans answers the "trace" op: the engine's completed trace spans,
	// oldest first.
	Spans []WireSpan `json:"spans,omitempty"`
	// Samples answers the "metrics" op: the node's full metrics registry
	// as structured samples (histograms keep their buckets), the shape a
	// federating router re-labels and merges.
	Samples []WireSample `json:"samples,omitempty"`
	// Partial marks a scatter-gathered result that is missing the
	// contribution of one or more downed shards (router responses only).
	Partial bool `json:"partial,omitempty"`
}

// WireSpan is one completed trace span on the wire, the shape
// /debug/traces serves too.
type WireSpan = trace.WireSpan

// WireSample is one metrics series on the wire (the "metrics" op): a
// structured counterpart of one Prometheus exposition family member, rich
// enough for a router to merge per-shard scrapes without text parsing.
type WireSample struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Help   string            `json:"help,omitempty"`
	// Counter / gauge value.
	Value float64 `json:"value,omitempty"`
	// Histogram fields; buckets are cumulative. The +Inf bucket is
	// implicit (its count equals Count) — JSON cannot carry +Inf.
	Count   int64        `json:"count,omitempty"`
	Sum     float64      `json:"sum,omitempty"`
	Buckets []WireBucket `json:"buckets,omitempty"`
}

// WireBucket is one cumulative histogram bucket (finite bounds only).
type WireBucket struct {
	LE float64 `json:"le"`
	N  int64   `json:"n"`
}

// WireColumn is a schema column on the wire.
type WireColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// WireValue is one SQL value on the wire. It is the datum itself: the codec
// reads and writes types.Datum directly, so a wire row is a row.
type WireValue = types.Datum

// EncodeRow converts a row to wire form, which is the row. It survives as
// a conversion only because bench/ compiles against the name; a later
// benchmark PR can drop it.
func EncodeRow(r types.Row) []WireValue { return r }

// DecodeRow converts a wire row back to a row, which it already is; kept
// for bench/ like EncodeRow. The error is always nil — malformed and
// ambiguous values are refused by the frame decoder.
func DecodeRow(ws []WireValue) (types.Row, error) { return ws, nil }

// Rows views wire rows as engine rows — the same memory under another type
// (types.RowsView), so a caller keeps one name and lets go of the other.
func Rows(wire [][]WireValue) []types.Row { return types.RowsView(wire) }

// WireRows is the inverse view of Rows.
func WireRows(rows []types.Row) [][]WireValue { return types.DatumsView(rows) }

// EncodeSchema converts a schema to wire form.
func EncodeSchema(s types.Schema) []WireColumn {
	out := make([]WireColumn, len(s))
	for i, c := range s {
		out[i] = WireColumn{Name: c.Name, Type: c.Type.String()}
	}
	return out
}
