package streamrel

import (
	"errors"
	"fmt"
	"os"

	"streamrel/internal/catalog"
	"streamrel/internal/metrics"
	"streamrel/internal/repl"
	"streamrel/internal/sql"
	"streamrel/internal/storage"
	"streamrel/internal/stream"
	"streamrel/internal/trace"
	"streamrel/internal/txn"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// ErrReadReplica is returned by write paths while the engine runs as a
// read replica; Promote lifts the restriction.
var ErrReadReplica = errors.New("streamrel: engine is a read replica; writes are rejected (promote to accept writes)")

// Repl returns the engine's replication hub, or nil when Config.Replicate
// is off. The server wires it to the "replicate" op; tests use it to read
// the current LSN.
func (e *Engine) Repl() *repl.Primary { return e.hub }

// Why a base-stream channel's batch shipped as a stream append and a separate
// WAL batch, not as one event: Engine.unfused's indices, and the reason label
// of streamrel_repl_unfused_batches_total.
const (
	unfusedCast          = iota // the table's column types differ from the stream's
	unfusedSecondChannel        // the stream feeds more than one channel
	unfusedCommitFailed         // the channel's write failed; only the append ships
)

// initReplication builds the hub and wires the publish hooks. Called once
// from Open, before any writes.
func (e *Engine) initReplication() {
	e.hub = repl.NewPrimary(repl.Config{Metrics: e.reg, RingSize: e.cfg.ReplRingSize})
	e.hub.Snapshot = e.replicationSnapshot
	for i, reason := range [...]string{"cast", "second_channel", "commit_failed"} {
		e.unfused[i] = e.reg.Counter("streamrel_repl_unfused_batches_total",
			"raw-archive channel batches that crossed the replication link as a stream append and a separate WAL batch instead of one event",
			metrics.L("reason", reason))
	}
	// The repl package stays trace-agnostic: the hook narrows the trace
	// context to the bare ID the wire format carries.
	e.rt.OnIngest = func(tc trace.Ctx, stream string, rows []types.Row) {
		e.hub.PublishAppend(stream, rows, tc.ID)
	}
	e.rt.OnAdvance = e.hub.PublishAdvance
}

// writeGate rejects user writes while the engine is a replica. Replicated
// apply bypasses it by calling the internal paths directly.
func (e *Engine) writeGate() error {
	if e.replicaMode.Load() {
		return ErrReadReplica
	}
	return nil
}

// ReplicaMode reports whether the engine currently rejects writes.
func (e *Engine) ReplicaMode() bool { return e.replicaMode.Load() }

// BeginReplica puts the engine into replica mode: user writes are
// rejected, channel taps stop writing tables (the primary's channel
// writes arrive through the replicated log instead — a raw archive's with
// the batch it stored, ApplyReplicatedArchive, every other channel's as a
// WAL batch — avoiding double-apply), and the late-row policy becomes clamp
// so replayed stream rows whose timestamps the primary already clamped are
// accepted verbatim.
func (e *Engine) BeginReplica() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.replicaMode.Load() {
		return
	}
	e.prevLate = e.rt.Late
	e.rt.Late = stream.LateClamp
	e.replicaMode.Store(true)
}

// Promote lifts replica mode: the engine accepts writes again and channel
// taps resume writing tables. The caller must have stopped applying
// replicated events first. The engine keeps its own replication hub (and
// run ID), so replicas can chain off a promoted node — their run IDs
// won't match and they will resync from it.
func (e *Engine) Promote() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.replicaMode.Load() {
		return
	}
	e.rt.Late = e.prevLate
	e.replicaMode.Store(false)
}

// ---------------------------------------------------------------- apply

// ApplyReplicated applies one replicated WAL batch: DDL batches re-execute
// their SQL (which also logs and republishes them locally), data batches
// apply insert/delete at the primary's RowIDs in one local transaction.
// Apply is idempotent — re-applying a suffix after a crash or a
// snapshot/live-tail overlap refreshes rows without duplicating them.
func (e *Engine) ApplyReplicated(recs []wal.Record) error {
	if len(recs) == 0 {
		return nil
	}
	if recs[0].Kind == wal.RecDDL {
		for _, rec := range recs {
			if rec.Kind != wal.RecDDL {
				return fmt.Errorf("streamrel: replicated batch mixes DDL and data")
			}
			stmt, err := sql.Parse(rec.SQL)
			if err != nil {
				return fmt.Errorf("streamrel: replicated DDL %q: %w", rec.SQL, err)
			}
			if _, err := e.execDDL(stmt, rec.SQL); err != nil {
				return err
			}
		}
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	w := e.beginWrite(len(recs))
	for _, rec := range recs {
		t, ok := e.cat.Table(rec.Table)
		if !ok {
			return w.fail(fmt.Errorf("streamrel: replicated write to unknown table %q", rec.Table))
		}
		switch rec.Kind {
		case wal.RecInsert:
			if err := w.insertRowAt(t, storage.RowID(rec.RowID), rec.Row); err != nil {
				return w.fail(err)
			}
		case wal.RecDelete:
			w.deleteRowReplay(t, storage.RowID(rec.RowID))
		default:
			return w.fail(fmt.Errorf("streamrel: replicated batch mixes DDL and data"))
		}
	}
	return w.commit()
}

// ApplyReplicatedAppend pushes replicated stream rows without re-stamping
// CQTIME SYSTEM columns — the primary's arrival timestamps are part of
// the replicated history. They advance the stream's clock like any row,
// and post-promotion appends are stamped against that clock, so they stay
// monotonic. A non-zero traceID re-injects the primary's trace context so
// local fires chain onto the same trace.
func (e *Engine) ApplyReplicatedAppend(streamName string, rows []Row, traceID uint64) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var tc trace.Ctx
	if traceID != 0 && e.tracer != nil {
		tc = e.tracer.Adopt(traceID)
	}
	return e.rt.PushBatch(tc, streamName, rows, nil)
}

// ApplyReplicatedArchive applies a batch the primary both accepted into a
// base stream and archived, unchanged, into table at the RowIDs in runs: the
// one decoded row serves as the heap's and the stream's. The rows are inserted
// at the primary's RowIDs in one local transaction — idempotent like
// ApplyReplicated, so a snapshot overlap or a crash redo leaves the table as it
// was — which runs and commits under the stream's delivery lock, once the
// stream has accepted the batch and before it is delivered (a window the batch closes sees it archived, as fanOut arranges on
// the primary), and then the rows enter the stream as in
// ApplyReplicatedAppend. This engine's own hub republishes the batch as the
// same single event when every row was new here; a batch that overlapped
// what a snapshot already brought ships its append and whatever it did
// insert separately.
func (e *Engine) ApplyReplicatedArchive(streamName, table string, rows []Row, runs []repl.RowIDRun, traceID uint64) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("streamrel: replicated write to unknown table %q", table)
	}
	var tc trace.Ctx
	if traceID != 0 && e.tracer != nil {
		tc = e.tracer.Adopt(traceID)
	}
	return e.rt.PushArchived(tc, streamName, rows, func(in *stream.Ingest) error {
		w := e.beginWrite(len(rows))
		w.tc = tc
		next := 0
		for _, run := range runs {
			if run.N > uint64(len(rows)-next) {
				return w.fail(fmt.Errorf("streamrel: replicated archive of %d rows has RowID runs for more", len(rows)))
			}
			for rid := run.First; rid < run.First+run.N; rid++ {
				if err := w.insertRowAt(t, storage.RowID(rid), rows[next]); err != nil {
					return w.fail(err)
				}
				next++
			}
		}
		if next != len(rows) {
			return w.fail(fmt.Errorf("streamrel: replicated archive of %d rows has RowID runs for %d", len(rows), next))
		}
		if in.Owed() {
			if len(w.recs) == len(rows) {
				w.in, w.rows = in, rows
			} else {
				in.Publish()
			}
		}
		return w.commit()
	})
}

// ApplyReplicatedAdvance applies a replicated heartbeat.
func (e *Engine) ApplyReplicatedAdvance(streamName string, ts int64) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rt.Advance(streamName, ts)
}

// ApplyReplicatedTableNext aligns a table's next RowID with the primary's
// (snapshot epilogue per table; reproduces trailing aborted-txn gaps).
func (e *Engine) ApplyReplicatedTableNext(table string, next uint64) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("streamrel: replicated snapshot references unknown table %q", table)
	}
	t.Heap.EnsureNext(storage.RowID(next))
	return nil
}

// ReplicaCheckpoint runs when the primary checkpointed: both sides
// compact heaps at the same point in the event order, so RowID numbering
// stays aligned. Durable replicas take a full local checkpoint (which
// also truncates their WAL); in-memory replicas just compact. Either way the
// marker goes on to this engine's own followers, which must compact too.
func (e *Engine) ReplicaCheckpoint() error {
	if e.log != nil {
		return e.Checkpoint()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.compactTablesLocked()
	if e.hub != nil {
		e.hub.PublishCheckpoint()
	}
	return nil
}

// compactTablesLocked vacuums every heap and rebuilds its indexes against
// the compacted RowIDs. Callers hold e.mu exclusively.
func (e *Engine) compactTablesLocked() {
	snap := e.mgr.SnapshotNow()
	for _, t := range e.cat.Tables() {
		t.Heap.Vacuum(snap)
		for _, ix := range t.Indexes {
			rebuilt := storage.NewBTree()
			t.Heap.Scan(snap, func(rid storage.RowID, row types.Row) bool {
				rebuilt.Insert(ix.KeyOf(row), rid)
				return true
			})
			ix.Tree = rebuilt
		}
	}
}

// ReplicaReset drops every object and clears durable state, preparing the
// engine to receive a full snapshot from a (new) primary. Dependency
// order: channels first, then derived streams, base streams, views,
// tables (indexes go with their tables).
func (e *Engine) ReplicaReset() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, ch := range e.cat.Channels() {
		if _, err := e.execDrop(&sql.Drop{Kind: sql.ObjChannel, Name: ch.Name}); err != nil {
			return err
		}
	}
	for _, d := range e.cat.DerivedStreams() {
		if _, err := e.execDrop(&sql.Drop{Kind: sql.ObjStream, Name: d.Name}); err != nil {
			return err
		}
	}
	for _, name := range e.cat.Names("streams") {
		if isSysName(name) {
			// Engine-owned telemetry streams are never part of the
			// primary's snapshot; they survive the reset so the local
			// monitor keeps reporting through the resync.
			continue
		}
		if _, err := e.execDrop(&sql.Drop{Kind: sql.ObjStream, Name: name}); err != nil {
			return err
		}
	}
	for _, name := range e.cat.Names("views") {
		if _, err := e.execDrop(&sql.Drop{Kind: sql.ObjView, Name: name}); err != nil {
			return err
		}
	}
	for _, t := range e.cat.Tables() {
		if _, err := e.execDrop(&sql.Drop{Kind: sql.ObjTable, Name: t.Name}); err != nil {
			return err
		}
	}
	e.ddlLog = nil
	if e.log != nil {
		if err := e.log.Truncate(); err != nil {
			return err
		}
		if err := os.Remove(e.checkpointPath()); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	return nil
}

// ----------------------------------------------------------- snapshot

// scanBatchRows sizes the row batches scanTable emits: a synced checkpoint
// batch is one fsync under the engine's exclusive lock, so fewer, larger
// batches — the byte bound is what keeps a batch of wide rows readable.
const scanBatchRows = 4096

// scanTable hands emit every row of t visible at snap as insert records
// carrying their RowIDs, in batches that close at scanBatchRows rows or
// repl.MaxEventBytes, whichever comes first — so neither a snapshot frame
// nor a checkpoint batch can exceed the size its reader accepts, however
// wide the rows. emit owns the batch it is handed. A failing emit stops
// the scan and its error is the one returned.
func scanTable(t *catalog.Table, snap txn.Snapshot, emit func([]wal.Record) error) error {
	var batch []wal.Record
	var batchBytes int
	var err error
	t.Heap.Scan(snap, func(rid storage.RowID, row types.Row) bool {
		rec := wal.Record{Kind: wal.RecInsert, Table: t.Name, RowID: uint64(rid), Row: row}
		batch = append(batch, rec)
		batchBytes += repl.RecordSize(rec)
		if len(batch) >= scanBatchRows || batchBytes >= repl.MaxEventBytes {
			err = emit(batch)
			batch, batchBytes = nil, 0
		}
		return err == nil
	})
	if err != nil || len(batch) == 0 {
		return err
	}
	return emit(batch)
}

// replicationSnapshot emits a consistent logical cut of durable state:
// the DDL log, then every table's visible rows as insert records carrying
// their RowIDs, each table closed by a TableNext event. It runs under the
// engine's exclusive lock, so no DDL or checkpoint interleaves — but the
// caller (repl.Primary.ServeConn) only spools the emitted events here and
// streams them after this returns, so the lock is held for the in-memory
// scan, never for the network transfer. Stream events and worker commits
// published concurrently carry LSNs above the snapshot boundary and are
// replayed after it — row apply is idempotent, so the overlap is
// harmless.
func (e *Engine) replicationSnapshot(emit func(repl.Event) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, stmtSQL := range e.ddlLog {
		ev := repl.Event{Kind: repl.KindWAL, Recs: []wal.Record{{Kind: wal.RecDDL, SQL: stmtSQL}}}
		if err := emit(ev); err != nil {
			return err
		}
	}
	snap := e.mgr.SnapshotNow()
	for _, t := range e.cat.Tables() {
		err := scanTable(t, snap, func(batch []wal.Record) error {
			return emit(repl.Event{Kind: repl.KindWAL, Recs: batch})
		})
		if err != nil {
			return err
		}
		ev := repl.Event{Kind: repl.KindTableNext, Table: t.Name, Next: uint64(t.Heap.NextID())}
		if err := emit(ev); err != nil {
			return err
		}
	}
	return nil
}

// ----------------------------------------------------- writeTxn helpers

// insertRowAt is insertRow at an explicit RowID (replicated apply). A
// replaced slot skips index maintenance and WAL logging — the record was
// already applied locally.
func (w *writeTxn) insertRowAt(t *catalog.Table, rid storage.RowID, row types.Row) error {
	replaced, err := t.Heap.InsertAt(w.tx.ID, rid, row)
	if err != nil {
		return err
	}
	if replaced {
		return nil
	}
	for _, ix := range t.Indexes {
		ix.Tree.Insert(ix.KeyOf(row), rid)
	}
	w.recs = append(w.recs, wal.Record{Kind: wal.RecInsert, Table: t.Name, RowID: uint64(rid), Row: row})
	w.n++
	return nil
}

// deleteRowReplay is deleteRow with idempotent semantics: an unknown or
// already-deleted RowID is a no-op (the record was already applied).
func (w *writeTxn) deleteRowReplay(t *catalog.Table, rid storage.RowID) {
	if !t.Heap.DeleteReplay(w.tx.ID, rid) {
		return
	}
	heap, id := t.Heap, rid
	w.undo = append(w.undo, func() { heap.UndoDelete(w.tx.ID, id) })
	w.recs = append(w.recs, wal.Record{Kind: wal.RecDelete, Table: t.Name, RowID: uint64(rid)})
	w.n++
}
