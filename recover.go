package streamrel

import (
	"fmt"
	"os"

	"streamrel/internal/storage"
	"streamrel/internal/txn"
	"streamrel/internal/types"
	"streamrel/internal/wal"
)

// recover restores durable state from the checkpoint and the WAL — through
// applyRecords, the one record applier, a batch's trailing RecMark as its
// mark (the replica's resume point it was logged with), as a replica applies
// its primary's events: the log is not open yet and the hub not built, so
// what it applies is neither logged nor published again — then
// rebuilds continuous-query runtime state from Active Tables (paper §4):
// instead of checkpointing every operator, each derived stream resumes
// just past the newest window its channels archived. A checkpoint opens its
// file, and the log it then begins, with its generation (a RecMark naming no
// run; files with none are of generation 0). A log of another generation is
// stale: the one the checkpoint was taken over, DDL and all, when a crash fell
// between the file's rename and the log's truncation, or an empty one not yet
// stamped. It is read past, not applied, and Open restarts it.
func (e *Engine) recover() (stale bool, err error) {
	var gens [2]uint64 // the checkpoint's and the log's
	for i, path := range []string{e.checkpointPath(), e.walPath()} {
		first := true
		err := wal.Replay(path, func(recs []wal.Record) error {
			if first && len(recs) == 1 && recs[0].Kind == wal.RecMark && recs[0].SQL == "" {
				gens[i], recs = recs[0].RowID, nil // the stamp itself applies nothing
			}
			if first = false; gens[i] != gens[0] {
				return nil
			}
			var mark wal.Record
			if n := len(recs); n > 0 && recs[n-1].Kind == wal.RecMark {
				recs, mark = recs[:n-1], recs[n-1]
			}
			return e.applyRecords(recs, mark)
		})
		if err != nil {
			return false, fmt.Errorf("streamrel: recovery: %w", err)
		}
	}
	e.gen = gens[0]
	e.resumeCQs()
	return gens[1] != gens[0], nil
}

// restartLog empties the log and opens it with the generation of the
// checkpoint it follows.
func (e *Engine) restartLog() error {
	if err := e.log.Truncate(); err != nil {
		return err
	}
	return e.log.Append([]wal.Record{{Kind: wal.RecMark, RowID: e.gen}})
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

// cut runs fn in the engine's one exclusive section, with the snapshot every
// "state as of" is taken from: a checkpoint, a replication snapshot and, inside
// the latter, a new follower's subscription and boundary. e.mu keeps out DDL,
// appends, queries and DML; gate keeps out the commits of pool workers, which
// hold no e.mu. While fn runs nothing reaches the WAL or the hub, so every
// transaction is in snap or after the cut, never astride it — one that had
// begun and not committed keeps the RowIDs it took and commits after.
func (e *Engine) cut(fn func(snap txn.Snapshot) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.gate.Lock()
	defer e.gate.Unlock()
	return fn(e.mgr.SnapshotNow())
}

// dump hands emit the durable state at snap as record batches it owns: the
// DDL log, each table's visible rows as inserts at their RowIDs (scanTable)
// and last, in one batch, every table's next RowID. A failing emit stops the
// dump and its error is the one returned.
func (e *Engine) dump(snap txn.Snapshot, emit func([]wal.Record) error) error {
	if len(e.ddlLog) > 0 {
		ddl := make([]wal.Record, len(e.ddlLog))
		for i, stmt := range e.ddlLog {
			ddl[i] = wal.Record{Kind: wal.RecDDL, SQL: stmt}
		}
		if err := emit(ddl); err != nil {
			return err
		}
	}
	var next []wal.Record
	for _, t := range e.cat.Tables() {
		if err := scanTable(t, snap, emit); err != nil {
			return err
		}
		next = append(next, wal.Record{Kind: wal.RecNext, Table: t.Name, RowID: uint64(t.Heap.NextID())})
	}
	if len(next) == 0 {
		return nil
	}
	return emit(next)
}

// checkpoint writes the state at one cut to the checkpoint file, under the
// next generation — with this engine's resume point, when it follows a
// primary — and restarts the WAL, whose every record is then in the file.
// Then, outside the cut, it reclaims the versions dead at that cut and their
// index entries. No RowID moves, so nothing outside this engine can tell that
// it happened: records logged later, replicas and transactions in flight go on
// naming rows as they did.
func (e *Engine) checkpoint() error {
	var horizon txn.Snapshot
	err := e.cut(func(snap txn.Snapshot) error {
		tmp := e.checkpointPath() + ".tmp"
		_ = os.Remove(tmp)
		ck, err := wal.Open(tmp, wal.Options{Sync: true})
		if err != nil {
			return err
		}
		if err = ck.Append([]wal.Record{{Kind: wal.RecMark, RowID: e.gen + 1}}); err == nil {
			err = e.dump(snap, ck.Append)
		}
		if err == nil && e.mark.Kind != 0 {
			err = ck.Append([]wal.Record{e.mark})
		}
		if cerr := ck.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := os.Rename(tmp, e.checkpointPath()); err != nil {
			return err
		}
		e.gen++
		horizon = snap
		return e.restartLog()
	})
	if err != nil {
		return err
	}
	e.mu.RLock() // against DDL, which changes a table's list of indexes
	defer e.mu.RUnlock()
	for _, t := range e.cat.Tables() {
		var rids []storage.RowID
		var rows []types.Row
		collect := func(rid storage.RowID, row types.Row) { rids, rows = append(rids, rid), append(rows, row) }
		if len(t.Indexes) == 0 {
			collect = nil
		}
		t.Heap.Vacuum(horizon, collect)
		// Outside the heap's lock: an index scan reads the heap under the tree's.
		for _, ix := range t.Indexes {
			for i, rid := range rids {
				ix.Tree.Delete(ix.KeyOf(rows[i]), rid)
			}
		}
	}
	e.mgr.Trim(horizon) // what the transactions aborted by then created is gone from every heap
	return nil
}
