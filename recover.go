package streamrel

import (
	"fmt"
	"os"

	"streamrel/internal/sql"
	"streamrel/internal/storage"
	"streamrel/internal/txn"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// recover restores durable state from the checkpoint and the WAL, then
// rebuilds continuous-query runtime state from Active Tables (paper §4):
// instead of checkpointing every operator, each derived stream resumes
// just past the newest window its channels archived.
func (e *Engine) recover() error {
	e.recovering = true
	defer func() { e.recovering = false }()

	apply := func(rec wal.Record) error {
		switch rec.Kind {
		case wal.RecDDL:
			stmt, err := sql.Parse(rec.SQL)
			if err != nil {
				return fmt.Errorf("streamrel: recovery: bad DDL %q: %w", rec.SQL, err)
			}
			if _, err := e.applyDDL(stmt); err != nil {
				return fmt.Errorf("streamrel: recovery: %w", err)
			}
			e.ddlLog = append(e.ddlLog, rec.SQL)
		case wal.RecInsert:
			t, ok := e.cat.Table(rec.Table)
			if !ok {
				return fmt.Errorf("streamrel: recovery: insert into unknown table %q", rec.Table)
			}
			// Replay at the logged RowID so numbering (including gaps from
			// aborted transactions) matches what later RecDelete records
			// and replication events reference.
			rid := storage.RowID(rec.RowID)
			replaced, err := t.Heap.InsertAt(txn.Bootstrap, rid, rec.Row)
			if err != nil {
				return err
			}
			if !replaced {
				for _, ix := range t.Indexes {
					ix.Tree.Insert(ix.KeyOf(rec.Row), rid)
				}
			}
		case wal.RecDelete:
			t, ok := e.cat.Table(rec.Table)
			if !ok {
				return fmt.Errorf("streamrel: recovery: delete from unknown table %q", rec.Table)
			}
			if err := t.Heap.Delete(txn.Bootstrap, storage.RowID(rec.RowID)); err != nil {
				return err
			}
		}
		return nil
	}

	if err := wal.Replay(e.checkpointPath(), apply); err != nil {
		return err
	}
	if err := wal.Replay(e.walPath(), apply); err != nil {
		return err
	}
	e.resumeCQs()
	return nil
}

// resumeCQs sets each derived pipeline's resume point from the newest
// cq_close timestamp its channels archived, so restart neither re-emits
// archived windows nor skips future ones.
func (e *Engine) resumeCQs() {
	for _, ch := range e.cat.Channels() {
		d, ok := e.cat.Derived(ch.From)
		if !ok || d.CloseCol < 0 {
			continue
		}
		t, ok := e.cat.Table(ch.Into)
		if !ok {
			continue
		}
		pipe, ok := e.derivedPipes[ch.From]
		if !ok {
			continue
		}
		var maxClose int64
		seen := false
		t.Heap.Scan(e.mgr.SnapshotNow(), func(_ storage.RowID, row types.Row) bool {
			if d.CloseCol < len(row) && row[d.CloseCol].Type() == types.TypeTimestamp {
				if ts := row[d.CloseCol].TimestampMicros(); !seen || ts > maxClose {
					maxClose, seen = ts, true
				}
			}
			return true
		})
		if seen {
			pipe.ResumeAfter(maxClose)
		}
	}
}

// checkpoint compacts every heap (rewriting RowIDs), rebuilds indexes so
// they reference the compacted positions, writes the checkpoint file
// (DDL log + table contents), and truncates the WAL. RowIDs in future WAL
// records then match what replay will reconstruct.
func (e *Engine) checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()

	snap := e.mgr.SnapshotNow()
	tmp := e.checkpointPath() + ".tmp"
	_ = os.Remove(tmp)
	ck, err := wal.Open(tmp, wal.Options{Sync: true})
	if err != nil {
		return err
	}

	var recs []wal.Record
	for _, stmt := range e.ddlLog {
		recs = append(recs, wal.Record{Kind: wal.RecDDL, SQL: stmt})
	}
	if err := ck.Append(recs); err != nil {
		ck.Close()
		return err
	}

	e.compactTablesLocked()
	for _, t := range e.cat.Tables() {
		if err := scanTable(t, snap, ck.Append); err != nil {
			ck.Close()
			return err
		}
	}
	if err := ck.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, e.checkpointPath()); err != nil {
		return err
	}
	if err := e.log.Truncate(); err != nil {
		return err
	}
	if e.hub != nil {
		// Tell replicas to compact at the same point in the event order,
		// so post-checkpoint RowIDs stay aligned on both sides.
		e.hub.PublishCheckpoint()
	}
	return nil
}
