// Package wal implements the engine's write-ahead log and checkpoint
// files.
//
// Design: transactions buffer their effects and write them to the log as a
// single atomic batch at commit time, so the log contains only committed
// work. A file starts with an 8-byte magic+version header (so a record
// format change is an explicit error on open/replay, never a misparse);
// each batch after it is [length u32][crc32 u32][payload]. A torn or
// corrupt final batch is discarded on recovery, which makes crash
// atomicity a property of the file format rather than of replay logic.
//
// Recovery of *runtime* CQ state deliberately does not live here: per the
// paper (§4), continuous-query state is rebuilt from Active Tables after
// durable state is restored, instead of checkpointing every operator.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/metrics"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// RecordKind tags one logical record inside a batch.
type RecordKind uint8

// Record kinds.
const (
	// RecDDL carries the SQL text of a DDL statement; replay re-executes it.
	RecDDL RecordKind = iota + 1
	// RecInsert carries (table, row).
	RecInsert
	// RecDelete carries (table, rowid).
	RecDelete
	// RecNext carries (table, rowid): the table's next RowID is at least that.
	// A checkpoint and a replication snapshot close each table with one.
	RecNext
	// RecMark carries a replica's resume point, the primary's run ID in SQL
	// and its LSN in RowID: every event up to it is applied. It rides in the
	// batch that event's effects were logged in, so the two recover together.
	RecMark
	// RecRows carries (table, RowID runs, rows): Rows stored in Table at the
	// RowIDs Runs name, in order — an insert, the name once and a RowID a run.
	// RecInsert is the same a row at a time: read still, logged by no engine.
	RecRows
)

// RowIDRun is N consecutive RowIDs starting at First. A batch is one run
// unless another writer of the same table got in between two of its inserts.
type RowIDRun struct{ First, N uint64 }

// AppendRun adds id to runs, extending the last run when id follows it.
func AppendRun(runs []RowIDRun, id uint64) []RowIDRun {
	if n := len(runs); n > 0 && runs[n-1].First+runs[n-1].N == id {
		runs[n-1].N++
		return runs
	}
	return append(runs, RowIDRun{First: id, N: 1})
}

// Record is one logical change. Inserts and deletes carry the heap RowIDs of
// the affected versions, so replay (and a replica applying the same records)
// reconstructs the exact numbering the primary used — including gaps left by
// aborted transactions — and later deletes by RowID resolve correctly.
type Record struct {
	Kind  RecordKind
	Table string
	SQL   string
	Row   types.Row
	RowID uint64
	Runs  []RowIDRun  // RecRows
	Rows  []types.Row // RecRows
}

// RowCount is the rows recs touch (a record of none counts one): what spans report.
func RowCount(recs []Record) (n int) {
	for i := range recs {
		n += max(1, len(recs[i].Rows))
	}
	return n
}

// Expand returns recs with every RecRows record replaced by the RecInsert
// records of its rows: the form in which two batches compare record for record.
func Expand(recs []Record) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.Kind != RecRows {
			out = append(out, r)
			continue
		}
		next := 0
		for _, run := range r.Runs {
			for id := run.First; id < run.First+run.N; id, next = id+1, next+1 {
				out = append(out, Record{Kind: RecInsert, Table: r.Table, RowID: id, Row: r.Rows[next]})
			}
		}
	}
	return out
}

// Every log and checkpoint file starts with an 8-byte header — a 6-byte
// magic plus a little-endian uint16 format version — so a record-encoding
// change is an explicit open/replay error instead of a silently misparsed
// batch that replay would discard as an "uncommitted tail", dropping
// committed data on upgrade.
var fileMagic = [6]byte{'S', 'R', 'W', 'A', 'L', 'F'}

// FormatVersion is the record-format version this build reads and writes.
// Version 2 added the explicit RowID uvarint to RecInsert records;
// version-1 files predate headers entirely and are rejected by their
// missing magic. RecNext, RecMark and RecRows joined version 2 without a
// bump: a file written before them replays as it did, and a record kind a
// build does not know fails its replay rather than ending it.
const FormatVersion = 2

const headerSize = 8

func fileHeader() []byte {
	h := make([]byte, headerSize)
	copy(h, fileMagic[:])
	binary.LittleEndian.PutUint16(h[6:], FormatVersion)
	return h
}

// errTornHeader marks a file shorter than one header whose bytes are a
// prefix of the expected header: a crash between creating the file and
// appending the first batch. Nothing was committed; the file is logically
// empty.
var errTornHeader = errors.New("wal: torn file header")

// checkHeader validates the leading bytes of a non-empty file.
func checkHeader(path string, h []byte) error {
	if len(h) < headerSize {
		if len(fileHeader()) >= len(h) && string(fileHeader()[:len(h)]) == string(h) {
			return errTornHeader
		}
		return fmt.Errorf("wal: %s: unrecognized file format (pre-versioning streamrel log, or not a log)", path)
	}
	if string(h[:6]) != string(fileMagic[:]) {
		return fmt.Errorf("wal: %s: unrecognized file format (pre-versioning streamrel log, or not a log)", path)
	}
	if v := binary.LittleEndian.Uint16(h[6:8]); v != FormatVersion {
		return fmt.Errorf("wal: %s: format version %d, this build reads version %d", path, v, FormatVersion)
	}
	return nil
}

// commitGroup is one generation of the group-commit protocol: the frames
// of every batch staged while the previous generation was being written,
// flushed to disk as a single Write (and, under Sync, a single Sync).
// Waiters wait on Log.cond for done; err and the span timings are written
// by the leader before done is set and are read-only afterwards. The last
// committer to read them hands the group back to Log.free.
type commitGroup struct {
	// data is the complete frames, [len][crc][payload]...: the first batch's
	// where its committer, who waits for done, encoded it — a group of one
	// copies nothing — and from the second on gathered in Log.spare.
	data    []byte
	n       int  // batches staged in this group
	waiting int  // committers that have not yet read the outcome
	done    bool // the group is durable (or failed)
	err     error

	// Timings of the single write/sync, so traced committers can record
	// spans for the group their batch rode in.
	writeStart time.Time
	writeDur   time.Duration
	syncStart  time.Time
	syncDur    time.Duration
}

// Log is an append-only write-ahead log over a single file.
//
// Commit protocol (group commit): a committer encodes its batch into a
// complete frame OUTSIDE the lock (pooled buffer), then stages the frame
// into the current commitGroup under a short critical section. The first
// committer to find no write in flight becomes the leader: it claims the
// group, writes all staged frames with one Write and one Sync, wakes the
// group's waiters, and loops while new batches piled up behind it.
// Everyone else just waits on cond for its group to be done. The result is one
// fsync per group rather than per batch, with no dedicated writer
// goroutine.
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond // broadcast when a group is done and when writing falls to false
	f    *os.File
	path string
	sync bool // fsync every group
	hdr  bool // format header present on disk

	cur     *commitGroup   // group accepting new frames; nil if none staged
	free    []*commitGroup // groups whose every committer has read the outcome
	spare   []byte         // the buffer the last group of several batches gathered them in
	writing bool           // a leader is writing/syncing outside mu
	closing bool           // Close in progress: reject new appends so the leader can drain

	// lastFrame is the previous frame's encoded size, used to pre-size
	// pooled encode buffers. Invariant (while mu is free): cur != nil ⇒
	// writing, so Close/Truncate only need to wait for !writing.
	lastFrame atomic.Int64

	// Metric handles; nil (no-op) without a registry in Options.
	appends     *metrics.Counter
	appendBytes *metrics.Counter
	fsyncHist   *metrics.Histogram
	groupHist   *metrics.Histogram

	tracer *trace.Tracer
}

// Options configures log behaviour.
type Options struct {
	// Sync forces an fsync after every committed group. Off by default:
	// the experiments in the paper concern CPU-path efficiency, and fsync
	// noise would dominate micro-benchmarks. Crash tests turn it on.
	Sync bool
	// Metrics registers append/fsync series in this registry; nil
	// disables WAL instrumentation.
	Metrics *metrics.Registry
	// Trace records wal-append/wal-fsync spans for sampled batches; nil
	// disables them.
	Trace *trace.Tracer
}

// encBuf is a pooled frame-encoding buffer; see AppendCtx.
type encBuf struct{ b []byte }

var encPool = sync.Pool{New: func() any { return new(encBuf) }}

// Open opens (creating if needed) the log at path. A non-empty file whose
// header is missing (pre-versioning format) or carries a different
// FormatVersion is refused with an explicit error rather than misread.
func Open(path string, opts Options) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	hdr := false
	if fi, err := f.Stat(); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	} else if fi.Size() > 0 {
		buf := make([]byte, headerSize)
		n, _ := f.ReadAt(buf, 0)
		switch err := checkHeader(path, buf[:n]); {
		case err == nil:
			hdr = true
		case errors.Is(err, errTornHeader):
			// Crash before the first batch: logically empty; start over.
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: %w", err)
			}
		default:
			f.Close()
			return nil, err
		}
	}
	l := &Log{
		f:      f,
		path:   path,
		sync:   opts.Sync,
		hdr:    hdr,
		tracer: opts.Trace,
		appends: opts.Metrics.Counter("streamrel_wal_appends_total",
			"committed batches appended to the write-ahead log"),
		appendBytes: opts.Metrics.Counter("streamrel_wal_append_bytes_total",
			"payload bytes appended to the write-ahead log"),
		fsyncHist: opts.Metrics.Histogram("streamrel_wal_fsync_seconds",
			"latency of the fsync after each committed group", nil),
		groupHist: opts.Metrics.Histogram("streamrel_wal_group_commit_batches",
			"committed batches merged into each group-commit write",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
	}
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

// Append atomically writes one committed batch of records.
func (l *Log) Append(recs []Record) error {
	return l.AppendCtx(trace.Ctx{}, recs)
}

// AppendCtx is Append carrying a trace context: a sampled batch records a
// wal-append span (the group's write) and, under Sync, a wal-fsync span
// (the group's sync — shared with every batch that rode the same group).
//
// Encoding happens entirely outside the lock, into a pooled buffer
// pre-sized from the previous frame and pooled again when this call returns
// (the group may be written from it). The critical section is only "stage
// the finished frame in the current group"; the file write and fsync
// happen outside the lock too, serialized by the leader/writing handoff.
func (l *Log) AppendCtx(tc trace.Ctx, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}

	// Encode the complete frame — [len u32][crc u32][payload] — outside
	// the lock, in a pooled buffer.
	eb := encPool.Get().(*encBuf)
	defer encPool.Put(eb)
	if hint := int(l.lastFrame.Load()); cap(eb.b) < hint {
		eb.b = make([]byte, 0, hint)
	}
	eb.b = appendFrame(eb.b[:0], recs)
	l.lastFrame.Store(int64(len(eb.b)))

	l.mu.Lock()
	if l.f == nil || l.closing {
		l.mu.Unlock()
		return errors.New("wal: closed")
	}
	g := l.cur
	switch {
	case g == nil:
		if n := len(l.free); n > 0 {
			g, l.free = l.free[n-1], l.free[:n-1]
			*g = commitGroup{data: eb.b}
		} else {
			g = &commitGroup{data: eb.b}
		}
		l.cur = g
	case g.n == 1:
		g.data, l.spare = append(l.spare[:0], g.data...), nil
		fallthrough
	default:
		g.data = append(g.data, eb.b...)
	}
	g.n++
	g.waiting++

	if l.writing {
		// A leader is already on the file; it will pick this group up
		// when it finishes the generation in flight.
		for !g.done {
			l.cond.Wait()
		}
	} else {
		l.lead()
	}
	err, writeStart, writeDur, syncStart, syncDur := g.err, g.writeStart, g.writeDur, g.syncStart, g.syncDur
	if g.waiting--; g.waiting == 0 {
		g.data = nil // a frame's buffer is not the free group's to keep
		l.free = append(l.free, g)
	}
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if tc.ID != 0 && l.tracer != nil {
		l.tracer.Record(trace.Span{Trace: tc.ID, Stage: trace.StageWALAppend,
			Stream: recs[0].Table, Start: writeStart.UnixMicro(),
			Dur: writeDur.Nanoseconds(), Rows: RowCount(recs)})
		if l.sync {
			l.tracer.Record(trace.Span{Trace: tc.ID, Stage: trace.StageWALFsync,
				Stream: recs[0].Table, Start: syncStart.UnixMicro(),
				Dur: syncDur.Nanoseconds(), Rows: RowCount(recs)})
		}
	}
	return nil
}

// lead runs the group-commit leader loop. Called with mu held and
// l.writing false; returns with mu held, after every group staged up to
// the moment it stops has been written (or failed) and its waiters woken.
// While the leader is outside the lock, l.writing guards the file
// against concurrent Close/Truncate.
func (l *Log) lead() {
	l.writing = true
	for l.cur != nil {
		g := l.cur
		l.cur = nil
		needHdr := !l.hdr
		l.mu.Unlock()

		g.err = l.writeGroup(g, needHdr)

		l.mu.Lock()
		if g.err == nil && needHdr {
			l.hdr = true
		}
		if g.n > 1 && cap(g.data) <= 1<<20 { // huge batches must not pin their size
			l.spare = g.data
		}
		g.done = true
		l.cond.Broadcast()
	}
	l.writing = false
	l.cond.Broadcast()
}

// writeGroup flushes one claimed group with a single Write (plus the
// one-time file header) and, under Sync, a single Sync. Runs outside mu;
// the caller's writing flag keeps the file exclusively ours.
func (l *Log) writeGroup(g *commitGroup, needHdr bool) error {
	if needHdr {
		// First batch in this file: lead with the format header. A crash
		// between these writes leaves a torn header or torn first batch,
		// both of which read back as an empty log.
		if _, err := l.f.Write(fileHeader()); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	g.writeStart = time.Now()
	if _, err := l.f.Write(g.data); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	g.writeDur = time.Since(g.writeStart)
	if l.sync {
		g.syncStart = time.Now()
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		g.syncDur = time.Since(g.syncStart)
		l.fsyncHist.Observe(g.syncDur.Seconds())
	}
	l.appends.Add(int64(g.n))
	l.appendBytes.Add(int64(len(g.data)))
	l.groupHist.Observe(float64(g.n))
	return nil
}

// Close closes the log file. New appends are rejected immediately, then
// the in-flight group-commit leader drains every staged batch, so all
// acknowledged (and staged) work is on disk before the file handle goes
// away — and Close cannot be starved by a continuous commit storm.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.closing = true
	for l.writing {
		l.cond.Wait()
	}
	// Invariant: !writing ⇒ cur == nil, so no staged group is stranded.
	err := l.f.Close()
	l.f = nil
	return err
}

// Truncate discards the log contents; called after a checkpoint captures
// the state the log described. Waits out any in-flight group commit so
// the truncation cannot interleave with a leader's write.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.writing {
		l.cond.Wait()
	}
	if l.f == nil {
		return errors.New("wal: closed")
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.hdr = false // next Append re-writes the format header
	return nil
}

// maxBatchBytes bounds a single batch payload during replay so a corrupt
// length prefix cannot provoke a huge allocation.
const maxBatchBytes = 1 << 30

// Replay reads every intact committed batch from the log at path, calling
// apply for each in order. It reads batch by batch through a buffered reader
// rather than loading the whole file, so replay memory is bounded by the
// largest single batch. A corrupt or torn trailing batch ends replay without
// error (it is, by construction, an uncommitted tail). A missing file replays
// zero records. A file without a valid format header (pre-versioning,
// foreign, or a different FormatVersion) is an explicit error, never a
// silently truncated replay, and so is a batch whose checksum holds but whose
// records do not decode (a kind this build does not know): that is not a torn
// tail.
func Replay(path string, apply func([]Record) error) error {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	hbuf := make([]byte, headerSize)
	n, _ := io.ReadFull(f, hbuf)
	if n == 0 {
		return nil // empty file: zero records
	}
	if err := checkHeader(path, hbuf[:n]); err != nil {
		if errors.Is(err, errTornHeader) {
			return nil // crash before the first batch: logically empty
		}
		return err
	}
	rd := bufio.NewReaderSize(f, 1<<20)
	at := int64(headerSize) // the batch's offset, for errors
	var hdr [8]byte
	var strs types.RowStrings
	for {
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			return nil // EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:])
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if n > maxBatchBytes {
			return nil // corrupt length: treat as uncommitted tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(rd, payload); err != nil {
			return nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil // corrupt batch: treat as uncommitted tail
		}
		recs, err := ReadRecords(payload, &strs)
		if err != nil {
			return fmt.Errorf("wal: %s: batch at offset %d: %w", path, at, err)
		}
		if err := apply(recs); err != nil {
			return err
		}
		at += int64(8 + n)
	}
}

// ----------------------------------------------------------- encoding

// appendFrame appends one complete on-disk frame — [length u32][crc32
// u32][payload] — for a batch of records to dst and returns the extended
// slice. The 8-byte header is reserved up front and back-filled once the
// payload length and checksum are known, so the whole frame is built in
// one buffer with no intermediate copy.
func appendFrame(dst []byte, recs []Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = AppendRecords(dst, recs)
	payload := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// AppendRecords appends a batch of records in the WAL payload format.
// Exported because replication frames carry the same encoding.
func AppendRecords(buf []byte, recs []Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	for _, r := range recs {
		buf = append(buf, byte(r.Kind))
		switch r.Kind {
		case RecDDL:
			buf = AppendString(buf, r.SQL)
		case RecInsert:
			buf = AppendString(buf, r.Table)
			buf = binary.AppendUvarint(buf, r.RowID)
			buf = types.EncodeRow(buf, r.Row)
		case RecDelete, RecNext:
			buf = AppendString(buf, r.Table)
			buf = binary.AppendUvarint(buf, r.RowID)
		case RecMark:
			buf = AppendString(buf, r.SQL)
			buf = binary.AppendUvarint(buf, r.RowID)
		case RecRows:
			buf = AppendRows(buf, r.Table, r.Runs, r.Rows)
		}
	}
	return buf
}

// AppendRows appends table, run count, (first, length) per run, row list: a
// RecRows record behind its kind, a KindArchive frame behind its stream. rows
// may be spans, as the replication ring keeps them: values of consecutive rows
// end to end, of the width that makes as many rows as the runs cover.
func AppendRows(buf []byte, table string, runs []RowIDRun, rows []types.Row) []byte {
	buf = binary.AppendUvarint(AppendString(buf, table), uint64(len(runs)))
	n, vals := 0, 0
	for _, run := range runs {
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, run.First), run.N)
		n += int(run.N)
	}
	for i := 0; n != len(rows) && i < len(rows); i++ {
		vals += len(rows[i])
	}
	if w := vals / max(n, 1); n != len(rows) && w > 0 && w*n == vals {
		buf = binary.AppendUvarint(buf, uint64(n))
		for _, span := range rows {
			for i := 0; i+w <= len(span); i += w {
				buf = types.EncodeRow(buf, span[i:i+w])
			}
		}
		return buf
	}
	return AppendRowList(buf, rows)
}

// AppendRowList appends a row count and the rows.
func AppendRowList(buf []byte, rows []types.Row) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rows)))
	for _, r := range rows {
		buf = types.EncodeRow(buf, r)
	}
	return buf
}

// ReadRows decodes what AppendRows wrote into r and returns the bytes behind
// it. The runs cover exactly the rows; the bytes that remain bound both counts
// (a run is two at least, a row one); an empty or wrapping run is malformed.
// r's runs are its reader's scratch, decoded into their memory, and the table
// name is interned in strs.
func ReadRows(buf []byte, r *Record, strs *types.RowStrings) (rest []byte, err error) {
	if r.Table, buf, err = ReadString(buf, strs); err != nil {
		return nil, err
	}
	n, buf, err := ReadUvarint(buf)
	if err != nil || n > uint64(len(buf)) {
		return nil, errors.New("wal: bad run count")
	}
	if r.Runs = r.Runs[:0]; r.Runs == nil || uint64(cap(r.Runs)) < min(n, types.MaxPresize) {
		r.Runs = make([]RowIDRun, 0, min(n, types.MaxPresize))
	}
	var covered uint64
	for ; n > 0; n-- {
		var run RowIDRun
		if run.First, buf, err = ReadUvarint(buf); err == nil {
			run.N, buf, err = ReadUvarint(buf)
		}
		if left := uint64(len(buf)); err != nil || run.N == 0 || run.N > left || covered+run.N > left || run.First > math.MaxUint64-run.N {
			return nil, errors.New("wal: bad RowID run")
		}
		covered += run.N
		r.Runs = append(r.Runs, run)
	}
	if r.Rows, buf, err = ReadRowList(buf, strs); err == nil && uint64(len(r.Rows)) != covered {
		err = fmt.Errorf("wal: RowID runs cover %d rows of %d", covered, len(r.Rows))
	}
	return buf, err
}

// ReadRowList decodes a row count and the rows, one batch of strs (server/proto.go).
func ReadRowList(buf []byte, strs *types.RowStrings) ([]types.Row, []byte, error) {
	n, buf, err := ReadUvarint(buf)
	if err != nil || n > uint64(len(buf)) {
		return nil, nil, errors.New("wal: bad row count")
	}
	strs.Reset()
	for ; n > 0; n-- {
		if buf, err = strs.Decode(buf); err != nil {
			return nil, nil, err
		}
	}
	return strs.Rows(), buf, nil
}

// DecodeRecords parses a WAL payload produced by AppendRecords. Arbitrary
// (torn, corrupt, adversarial) input yields an error, never a panic or an
// allocation its bytes did not earn (types.MaxPresize), and so do bytes left
// over behind the last record. Rows obey the ownership rule in
// internal/server/proto.go; consecutive per-row records naming one table
// share one Table string.
func DecodeRecords(buf []byte) ([]Record, error) { return ReadRecords(buf, new(types.RowStrings)) }

// ReadRecords is DecodeRecords through the scratch of the reader that owns the decode.
func ReadRecords(buf []byte, strs *types.RowStrings) ([]Record, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, errors.New("wal: bad record count")
	}
	buf = buf[k:]
	// Every record costs at least one byte, so a count beyond the
	// remaining bytes is corrupt.
	if n > uint64(len(buf)) {
		return nil, errors.New("wal: record count exceeds payload")
	}
	recs := make([]Record, 0, min(n, types.MaxPresize))
	for i := uint64(0); i < n; i++ {
		if len(buf) == 0 {
			return nil, errors.New("wal: truncated record")
		}
		r := Record{Kind: RecordKind(buf[0])}
		buf = buf[1:]
		var err error
		switch r.Kind {
		case RecDDL:
			r.SQL, buf, err = ReadString(buf, nil)
		case RecMark:
			if r.SQL, buf, err = ReadString(buf, nil); err == nil {
				r.RowID, buf, err = ReadUvarint(buf)
			}
		case RecInsert, RecDelete, RecNext:
			if r.Table, buf, err = ReadString(buf, strs); err == nil {
				r.RowID, buf, err = ReadUvarint(buf)
			}
			if err == nil && r.Kind == RecInsert {
				r.Row, buf, err = types.DecodeRow(buf, strs)
			}
		case RecRows:
			buf, err = ReadRows(buf, &r, strs)
		default:
			return nil, fmt.Errorf("wal: unknown record kind %d", r.Kind)
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	if len(buf) != 0 {
		return nil, errors.New("wal: trailing bytes in batch")
	}
	return recs, nil
}

// ReadUvarint, AppendString and ReadString: replication frames use them too.
func ReadUvarint(buf []byte) (uint64, []byte, error) {
	v, k := binary.Uvarint(buf)
	if k <= 0 {
		return 0, nil, errors.New("wal: bad uvarint")
	}
	return v, buf[k:], nil
}

func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// ReadString decodes a string; with names, a stream or table name, interned
// there (types.RowStrings.Name).
func ReadString(buf []byte, names *types.RowStrings) (string, []byte, error) {
	n, k := binary.Uvarint(buf)
	if k <= 0 || uint64(len(buf[k:])) < n {
		return "", nil, errors.New("wal: bad string")
	}
	b, rest := buf[k:k+int(n)], buf[k+int(n):]
	if names != nil {
		return names.Name(b), rest, nil
	}
	return string(b), rest, nil
}
