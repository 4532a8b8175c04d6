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
	"slices"

	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// Kind tags one replication event.
type Kind uint8

// Event kinds.
const (
	// KindWAL carries one committed WAL batch (DDL, inserts, deletes): the
	// log's own payload bytes. During a snapshot the LSN is 0 (state, not
	// history).
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
	// Number 9 set a table's next RowID inside a snapshot; the dump's
	// wal.RecNext records ride in a KindWAL now, and a frame of that kind is
	// rejected.
	_
	// KindArchive carries rows accepted into a base stream that the stream's
	// channel archived, unchanged, into Table at the RowIDs in Runs: a
	// KindAppend and the insert-only KindWAL of the same rows in one event,
	// the body behind its stream the bytes of that batch's wal.RecRows record.
	KindArchive
)

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
	Table  string       // KindArchive
	// Runs are the RowIDs of Rows in Table, in row order; their lengths sum
	// to len(Rows).
	Runs []wal.RowIDRun // KindArchive
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
		dst = wal.AppendRowList(wal.AppendString(dst, ev.Stream), ev.Rows)
	case KindArchive:
		dst = wal.AppendRows(wal.AppendString(dst, ev.Stream), ev.Table, ev.Runs, ev.Rows)
	case KindAdvance:
		dst = binary.AppendVarint(wal.AppendString(dst, ev.Stream), ev.TS)
	case KindSnapBegin, KindResume:
		dst = wal.AppendString(dst, ev.Run)
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
// returns aliases the payload — and decodes their rows through one scratch,
// which also interns the stream and table names. Its Event, with the event's
// RowID runs, is decoded into again by the next ReadEvent; the rows and
// records it hands over until Recycle.
type Reader struct {
	r    *bufio.Reader
	hdr  [8]byte
	buf  []byte
	strs types.RowStrings
	rows bool // the last event read carried rows
	ev   Event
	ins  wal.Record // a KindArchive body's scratch: the last table and runs
}

// NewReader reads frames from r.
func NewReader(r *bufio.Reader) *Reader { return &Reader{r: r} }

// ReadEvent reads one frame, verifying length and CRC. It returns io.EOF
// (or io.ErrUnexpectedEOF) when the stream ends; any malformed frame is an
// error, never a panic. The event is valid until the next ReadEvent; its Rows
// and Recs stay valid after it (Recycle says when their values may be reused).
func (fr *Reader) ReadEvent() (*Event, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:])
	crc := binary.LittleEndian.Uint32(fr.hdr[4:])
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
	ev := &fr.ev
	err := decodeEvent(payload, &fr.strs, ev, &fr.ins)
	fr.rows = err == nil && (len(ev.Rows) > 0 || slices.ContainsFunc(ev.Recs, func(r wal.Record) bool { return r.Kind == wal.RecRows || r.Kind == wal.RecInsert }))
	if err != nil {
		return nil, err
	}
	return ev, nil
}

// Recycle says nothing holds the rows of the last event read any more — its
// row container, values and strings: the next one is decoded into them. An
// event that carried no rows leaves alone those of the events before it.
// Applying an event keeps none of them unless it says so (streamrel's
// ApplyEvent: the heap keeps copies, and the hub's ring spans of them).
func (fr *Reader) Recycle() {
	if fr.rows {
		fr.strs.Recycle()
	}
}

// DecodeEvent parses a frame payload (the bytes covered by the CRC).
// Arbitrary input yields an error, never a panic or an allocation its bytes
// did not earn (types.MaxPresize). The event aliases nothing in payload
// (the ownership rule in internal/server/proto.go).
func DecodeEvent(payload []byte) (*Event, error) {
	ev := new(Event)
	if err := decodeEvent(payload, new(types.RowStrings), ev, new(wal.Record)); err != nil {
		return nil, err
	}
	return ev, nil
}

// decodeEvent decodes payload into ev, its names interned in strs; ins is a
// KindArchive body's scratch (wal.ReadRows).
func decodeEvent(payload []byte, strs *types.RowStrings, ev *Event, ins *wal.Record) error {
	if len(payload) == 0 {
		return errors.New("repl: empty frame")
	}
	*ev = Event{Kind: Kind(payload[0])}
	buf := payload[1:]
	var err error
	if ev.LSN, buf, err = wal.ReadUvarint(buf); err == nil {
		if ev.Wall, buf, err = readVarint(buf); err == nil {
			ev.Trace, buf, err = wal.ReadUvarint(buf)
		}
	}
	if err != nil {
		return err
	}
	switch ev.Kind {
	case KindWAL:
		ev.Recs, err = wal.ReadRecords(buf, strs)
	case KindAppend:
		if ev.Stream, buf, err = wal.ReadString(buf, strs); err == nil {
			ev.Rows, buf, err = wal.ReadRowList(buf, strs)
		}
	case KindArchive:
		if ev.Stream, buf, err = wal.ReadString(buf, strs); err == nil {
			buf, err = wal.ReadRows(buf, ins, strs)
		}
		ev.Table, ev.Runs, ev.Rows = ins.Table, ins.Runs, ins.Rows
		ins.Rows = nil
	case KindAdvance:
		if ev.Stream, buf, err = wal.ReadString(buf, strs); err == nil {
			ev.TS, _, err = readVarint(buf)
		}
	case KindSnapBegin, KindResume:
		ev.Run, _, err = wal.ReadString(buf, nil)
	case KindSnapEnd, KindPing:
		// header only
	default:
		return fmt.Errorf("repl: unknown frame kind %d", ev.Kind)
	}
	if err == nil && len(buf) != 0 && (ev.Kind == KindAppend || ev.Kind == KindArchive) {
		err = errors.New("repl: trailing bytes behind the rows")
	}
	return err
}

func readVarint(buf []byte) (int64, []byte, error) {
	v, k := binary.Varint(buf)
	if k <= 0 {
		return 0, nil, errors.New("repl: bad varint")
	}
	return v, buf[k:], nil
}
