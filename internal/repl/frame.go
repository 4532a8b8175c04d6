// Package repl implements log-shipping replication for streamrel.
//
// The primary assigns a monotonic log sequence number (LSN) to every
// committed WAL batch and every stream ingest/advance event, keeps the
// most recent events in a bounded in-memory ring, and streams them to
// replicas as length-prefixed CRC-guarded binary frames over a connection
// hijacked from the JSON wire protocol (the "replicate" op). A replica
// that is too far behind the ring receives a logical snapshot of the
// primary's durable state first (DDL + table rows with explicit RowIDs),
// then the live tail. Replication epochs are identified by a random run
// ID: a replica presenting an LSN from a different run is resynced from a
// fresh snapshot.
//
// Event ordering is the primary's commit order: stream events are
// published under each source's delivery lock, and WAL events are
// published while the transaction commits, so a replica applying events
// in frame order reconstructs an exact prefix of the primary's history.
//
// A row crosses the link once. A base-stream batch that the stream's one
// raw-archive channel stored unchanged is both things at once — rows
// accepted into the stream and rows inserted into the table — and travels
// as one KindArchive event, published while the channel's transaction
// commits and under the source's delivery lock, so both ordering rules
// above hold for it. Every other shape (a cast on the way into the table,
// two channels on one stream, a channel commit that failed, a derived
// stream's channel) ships a KindAppend and a KindWAL as before.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// Kind tags one replication event.
type Kind uint8

// Event kinds.
const (
	// KindWAL carries one committed WAL batch (DDL, inserts, deletes).
	// During a snapshot the LSN is 0 (state, not history).
	KindWAL Kind = iota + 1
	// KindAppend carries rows accepted into a base stream.
	KindAppend
	// KindAdvance carries an effective heartbeat on a base stream.
	KindAdvance
	// Number 4 was a checkpoint marker; a checkpoint moves no RowID, so
	// nothing is sent for one, and a frame of that kind is rejected.
	_
	// KindSnapBegin opens a logical snapshot; Run is the primary's run ID.
	// The replica discards the state it had.
	KindSnapBegin
	// KindSnapEnd closes a snapshot; LSN is the boundary — live events
	// follow from LSN+1.
	KindSnapEnd
	// KindResume confirms an incremental catch-up from the replica's LSN;
	// Run is the primary's run ID.
	KindResume
	// KindPing is a keepalive carrying the primary's current LSN and wall
	// clock, letting an idle replica compute lag.
	KindPing
	// KindTableNext, inside a snapshot, sets a table's next RowID so the
	// replica reproduces trailing gaps left by aborted transactions.
	KindTableNext
	// KindArchive carries rows accepted into a base stream that the stream's
	// channel archived, unchanged, into Table at the RowIDs in Runs: a
	// KindAppend and the insert-only KindWAL of the same rows in one event.
	KindArchive
)

// RowIDRun is N consecutive RowIDs starting at First. A table's RowIDs are
// consecutive within one transaction unless another writer of the same table
// (a second stream's channel, an INSERT) got in between, so a batch is
// usually one run.
type RowIDRun struct {
	First, N uint64
}

// Event is one replication frame's logical content.
type Event struct {
	Kind Kind
	// LSN is the event's sequence number (0 for snapshot state frames).
	LSN uint64
	// Wall is the primary's clock at publish time, unix microseconds;
	// replicas subtract it from their clock for the seconds-lag gauge.
	Wall int64
	// Trace carries the trace ID of the batch (or transaction) this event
	// originated from, 0 when untraced; replicas record a replica-apply
	// span under it so the primary's span chain closes remotely.
	Trace uint64

	Recs   []wal.Record // KindWAL
	Stream string       // KindAppend, KindAdvance, KindArchive
	Rows   []types.Row  // KindAppend, KindArchive
	TS     int64        // KindAdvance
	Run    string       // KindSnapBegin, KindResume
	Table  string       // KindTableNext, KindArchive
	Next   uint64       // KindTableNext
	// Runs are the RowIDs of Rows in Table, in row order; their lengths sum
	// to len(Rows).
	Runs []RowIDRun // KindArchive
}

// maxFramePayload bounds a frame payload so a corrupt length prefix
// cannot provoke a huge allocation on either end. It is eight times
// MaxEventBytes, not twice: an item beyond that budget travels alone
// (chunkEnd) and nothing bounds one in-process row, so a lower limit would
// leave a replica unable to get past such a row.
const maxFramePayload = 256 << 20

// retainPayloadBytes bounds the buffer a Reader keeps between frames, as
// server.FrameReader's does: one huge frame must not pin its size for good.
const retainPayloadBytes = 1 << 20

// AppendFrame appends the wire encoding of ev to dst:
// [len u32][crc32 u32][payload], payload = [kind u8][lsn uvarint]
// [wall varint][trace uvarint][kind-specific body].
func AppendFrame(dst []byte, ev *Event) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholders
	dst = append(dst, byte(ev.Kind))
	dst = binary.AppendUvarint(dst, ev.LSN)
	dst = binary.AppendVarint(dst, ev.Wall)
	dst = binary.AppendUvarint(dst, ev.Trace)
	switch ev.Kind {
	case KindWAL:
		dst = wal.AppendRecords(dst, ev.Recs)
	case KindAppend:
		dst = appendString(dst, ev.Stream)
		dst = appendRows(dst, ev.Rows)
	case KindArchive:
		dst = appendString(dst, ev.Stream)
		dst = appendString(dst, ev.Table)
		dst = binary.AppendUvarint(dst, uint64(len(ev.Runs)))
		for _, run := range ev.Runs {
			dst = binary.AppendUvarint(dst, run.First)
			dst = binary.AppendUvarint(dst, run.N)
		}
		dst = appendRows(dst, ev.Rows)
	case KindAdvance:
		dst = appendString(dst, ev.Stream)
		dst = binary.AppendVarint(dst, ev.TS)
	case KindSnapBegin, KindResume:
		dst = appendString(dst, ev.Run)
	case KindTableNext:
		dst = appendString(dst, ev.Table)
		dst = binary.AppendUvarint(dst, ev.Next)
	case KindSnapEnd, KindPing:
		// header only
	}
	payload := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// Reader reads frames off a replication connection through one payload
// buffer it reuses from frame to frame — safe because nothing DecodeEvent
// returns aliases the payload.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader reads frames from r.
func NewReader(r *bufio.Reader) *Reader { return &Reader{r: r} }

// ReadEvent reads one frame, verifying length and CRC. It returns io.EOF
// (or io.ErrUnexpectedEOF) when the stream ends; any malformed frame is an
// error, never a panic.
func (fr *Reader) ReadEvent() (*Event, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFramePayload {
		return nil, fmt.Errorf("repl: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if cap(fr.buf) > retainPayloadBytes {
		fr.buf = nil
	}
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, errors.New("repl: frame CRC mismatch")
	}
	return DecodeEvent(payload)
}

// DecodeEvent parses a frame payload (the bytes covered by the CRC).
// Arbitrary input yields an error, never a panic or an allocation its bytes
// did not earn (types.MaxPresize). The event aliases nothing in payload
// (the ownership rule in internal/server/proto.go).
func DecodeEvent(payload []byte) (*Event, error) {
	if len(payload) == 0 {
		return nil, errors.New("repl: empty frame")
	}
	ev := &Event{Kind: Kind(payload[0])}
	buf := payload[1:]
	var err error
	if ev.LSN, buf, err = readUvarint(buf); err != nil {
		return nil, err
	}
	if ev.Wall, buf, err = readVarint(buf); err != nil {
		return nil, err
	}
	if ev.Trace, buf, err = readUvarint(buf); err != nil {
		return nil, err
	}
	switch ev.Kind {
	case KindWAL:
		if ev.Recs, err = wal.DecodeRecords(buf); err != nil {
			return nil, err
		}
	case KindAppend:
		if ev.Stream, buf, err = readString(buf); err != nil {
			return nil, err
		}
		if ev.Rows, err = readRows(buf); err != nil {
			return nil, err
		}
	case KindArchive:
		if ev.Stream, buf, err = readString(buf); err != nil {
			return nil, err
		}
		if ev.Table, buf, err = readString(buf); err != nil {
			return nil, err
		}
		var covered uint64
		if ev.Runs, covered, buf, err = readRuns(buf); err != nil {
			return nil, err
		}
		if ev.Rows, err = readRows(buf); err != nil {
			return nil, err
		}
		if uint64(len(ev.Rows)) != covered {
			return nil, fmt.Errorf("repl: RowID runs cover %d rows, frame carries %d", covered, len(ev.Rows))
		}
	case KindAdvance:
		if ev.Stream, buf, err = readString(buf); err != nil {
			return nil, err
		}
		if ev.TS, _, err = readVarint(buf); err != nil {
			return nil, err
		}
	case KindSnapBegin, KindResume:
		if ev.Run, _, err = readString(buf); err != nil {
			return nil, err
		}
	case KindTableNext:
		if ev.Table, buf, err = readString(buf); err != nil {
			return nil, err
		}
		if ev.Next, _, err = readUvarint(buf); err != nil {
			return nil, err
		}
	case KindSnapEnd, KindPing:
		// header only
	default:
		return nil, fmt.Errorf("repl: unknown frame kind %d", ev.Kind)
	}
	return ev, nil
}

func appendRows(dst []byte, rows []types.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = types.EncodeRow(dst, r)
	}
	return dst
}

// readRows decodes a row count and that many rows, which must end buf.
func readRows(buf []byte) ([]types.Row, error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(buf)) {
		return nil, errors.New("repl: row count exceeds payload")
	}
	rows := make([]types.Row, 0, min(n, types.MaxPresize))
	var strs types.RowStrings
	for i := uint64(0); i < n; i++ {
		var row types.Row
		if row, buf, err = types.DecodeRow(buf, &strs); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if len(buf) != 0 {
		return nil, errors.New("repl: trailing bytes in append frame")
	}
	return rows, nil
}

// readRuns decodes a run count and that many RowID runs, returning how many
// rows they cover. A run is at least two bytes and a row at least one, so the
// bytes that remain bound both counts; an empty run, or one that would wrap
// the RowID space, is malformed.
func readRuns(buf []byte) (runs []RowIDRun, covered uint64, rest []byte, err error) {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return nil, 0, nil, err
	}
	if n > uint64(len(buf)) {
		return nil, 0, nil, errors.New("repl: run count exceeds payload")
	}
	runs = make([]RowIDRun, 0, min(n, types.MaxPresize))
	for i := uint64(0); i < n; i++ {
		var run RowIDRun
		if run.First, buf, err = readUvarint(buf); err != nil {
			return nil, 0, nil, err
		}
		if run.N, buf, err = readUvarint(buf); err != nil {
			return nil, 0, nil, err
		}
		if left := uint64(len(buf)); run.N == 0 || run.N > left || covered+run.N > left || run.First > math.MaxUint64-run.N {
			return nil, 0, nil, errors.New("repl: bad RowID run")
		}
		covered += run.N
		runs = append(runs, run)
	}
	return runs, covered, buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || uint64(len(buf[k:])) < n {
		return "", nil, errors.New("repl: bad string")
	}
	return string(buf[k : k+int(n)]), buf[k+int(n):], nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(buf)
	if k <= 0 {
		return 0, nil, errors.New("repl: bad uvarint")
	}
	return v, buf[k:], nil
}

func readVarint(buf []byte) (int64, []byte, error) {
	v, k := binary.Varint(buf)
	if k <= 0 {
		return 0, nil, errors.New("repl: bad varint")
	}
	return v, buf[k:], nil
}
