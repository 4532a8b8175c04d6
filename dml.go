package streamrel

import (
	"fmt"

	"streamrel/internal/catalog"
	"streamrel/internal/exec"
	"streamrel/internal/expr"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
	"streamrel/internal/storage"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// execInsert handles INSERT INTO table|stream VALUES…|SELECT….
// Inserting into a stream is ingestion: rows flow through the continuous
// queries *before* any storage — the paper's core reversal of
// store-first-query-later.
func (e *Engine) execInsert(s *sql.Insert) (*Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	// Target resolution: stream or table.
	if st, ok := e.cat.Stream(s.Table); ok {
		rows, err := e.insertSourceRows(s, st.Schema)
		if err != nil {
			return nil, err
		}
		if _, err := e.push(trace.Ctx{}, s.Table, rows); err != nil {
			return nil, err
		}
		return &Result{RowsAffected: len(rows)}, nil
	}
	if _, ok := e.cat.Derived(s.Table); ok {
		return nil, fmt.Errorf("streamrel: cannot INSERT into derived stream %q", s.Table)
	}
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("streamrel: relation %q does not exist", s.Table)
	}
	rows, err := e.insertSourceRows(s, t.Schema)
	if err != nil {
		return nil, err
	}
	w := e.beginWrite(nil)
	if err := w.insert(t, nil, rows); err != nil {
		return nil, w.fail(err)
	}
	if err := w.commit(); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(rows)}, nil
}

// insertSourceRows materializes the rows an INSERT provides, mapped onto
// the target schema (missing columns become NULL) and coerced to column
// types.
func (e *Engine) insertSourceRows(s *sql.Insert, schema types.Schema) ([]types.Row, error) {
	// Column mapping.
	targets := make([]int, 0, len(schema))
	if len(s.Columns) == 0 {
		for i := range schema {
			targets = append(targets, i)
		}
	} else {
		for _, name := range s.Columns {
			i := schema.IndexOf(name)
			if i < 0 {
				return nil, fmt.Errorf("streamrel: column %q does not exist", name)
			}
			targets = append(targets, i)
		}
	}

	var srcRows []types.Row
	switch {
	case s.Query != nil:
		p, err := e.snapshotPlan(s.Query)
		if err != nil {
			return nil, err
		}
		if srcRows, err = exec.Drain(e.execCtx(), p.Build(&plan.Input{}), 0); err != nil {
			return nil, err
		}
	default:
		for _, exprRow := range s.Rows {
			row := make(types.Row, len(exprRow))
			for i, ex := range exprRow {
				sc, err := expr.Compile(ex, expr.ConstBinder{})
				if err != nil {
					return nil, err
				}
				v, err := sc.Eval(&expr.Ctx{Now: e.cfg.Now})
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			srcRows = append(srcRows, row)
		}
	}

	out := make([]types.Row, len(srcRows))
	for ri, src := range srcRows {
		if len(src) != len(targets) {
			return nil, fmt.Errorf("streamrel: INSERT row %d has %d values, expected %d",
				ri+1, len(src), len(targets))
		}
		full := make(types.Row, len(schema))
		for i := range full {
			full[i] = types.Null
		}
		for i, pos := range targets {
			full[pos] = src[i]
		}
		coerced, err := types.CoerceRow(full, schema)
		if err != nil {
			return nil, err
		}
		out[ri] = coerced
	}
	return out, nil
}

// execUpdate handles UPDATE table SET … [WHERE …] as MVCC delete+insert.
func (e *Engine) execUpdate(s *sql.Update) (*Result, error) {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("streamrel: table %q does not exist", s.Table)
	}
	sc := schemaBinder{qual: t.Name, schema: t.Schema}
	var where *expr.Scalar
	var err error
	if s.Where != nil {
		if where, err = expr.Compile(s.Where, sc); err != nil {
			return nil, err
		}
	}
	type assign struct {
		col int
		val *expr.Scalar
	}
	assigns := make([]assign, len(s.Set))
	for i, a := range s.Set {
		col := t.Schema.IndexOf(a.Column)
		if col < 0 {
			return nil, fmt.Errorf("streamrel: column %q does not exist", a.Column)
		}
		val, err := expr.Compile(a.Value, sc)
		if err != nil {
			return nil, err
		}
		assigns[i] = assign{col, val}
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	w := e.beginWrite(nil)
	matches, err := e.matching(w, t, where)
	if err != nil {
		return nil, w.fail(err)
	}
	newRows := make([]types.Row, len(matches))
	for i, m := range matches {
		newRow := m.row.Clone()
		for _, a := range assigns {
			v, err := a.val.Eval(&expr.Ctx{Row: m.row, Now: e.cfg.Now})
			if err != nil {
				return nil, w.fail(err)
			}
			if !v.IsNull() && v.Type() != t.Schema[a.col].Type {
				if v, err = types.Cast(v, t.Schema[a.col].Type); err != nil {
					return nil, w.fail(err)
				}
			}
			newRow[a.col] = v
		}
		if err := w.deleteRow(t, m.rid); err != nil {
			return nil, w.fail(err)
		}
		newRows[i] = newRow
	}
	if err := w.insert(t, nil, newRows); err != nil {
		return nil, w.fail(err)
	}
	if err := w.commit(); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(matches)}, nil
}

// execDelete handles DELETE FROM table [WHERE …].
func (e *Engine) execDelete(s *sql.Delete) (*Result, error) {
	t, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("streamrel: table %q does not exist", s.Table)
	}
	var where *expr.Scalar
	var err error
	if s.Where != nil {
		if where, err = expr.Compile(s.Where, schemaBinder{qual: t.Name, schema: t.Schema}); err != nil {
			return nil, err
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, ErrClosed
	}
	w := e.beginWrite(nil)
	matches, err := e.matching(w, t, where)
	if err != nil {
		return nil, w.fail(err)
	}
	for _, m := range matches {
		if err := w.deleteRow(t, m.rid); err != nil {
			return nil, w.fail(err)
		}
	}
	if err := w.commit(); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(matches)}, nil
}

// match is a row an UPDATE or DELETE selected: its RowID and version.
type match struct {
	rid storage.RowID
	row types.Row
}

// matching collects the rows of t that where (nil: every row) selects, under
// w's own snapshot, each copied out of the scan's block into one of its own.
func (e *Engine) matching(w *writeTxn, t *catalog.Table, where *expr.Scalar) (out []match, err error) {
	blk := types.NewRowBlock(0, len(t.Schema))
	t.Heap.Scan(w.tx.Snap, func(rid storage.RowID, row types.Row) bool {
		if where != nil {
			var v types.Datum
			if v, err = where.Eval(&expr.Ctx{Row: row, Now: e.cfg.Now}); err != nil || v.IsNull() || !v.Bool() {
				return err == nil
			}
		}
		kept := blk.Row()
		copy(kept, row)
		out = append(out, match{rid, kept})
		return true
	})
	return out, err
}

// schemaBinder resolves column references against one table's schema.
type schemaBinder struct {
	qual   string
	schema types.Schema
}

// ResolveColumn implements expr.Binder.
func (b schemaBinder) ResolveColumn(table, name string) (expr.ColumnBinding, error) {
	if table != "" && table != b.qual {
		return expr.ColumnBinding{}, fmt.Errorf("streamrel: unknown relation %q", table)
	}
	i := b.schema.IndexOf(name)
	if i < 0 {
		return expr.ColumnBinding{}, fmt.Errorf("streamrel: column %q does not exist", name)
	}
	return expr.ColumnBinding{Index: i, Type: b.schema[i].Type}, nil
}

// BulkInsert loads rows into a table through the write path (WAL, indexes,
// MVCC) without per-row SQL parsing. It is the loader used by the
// store-first baseline and by srload. Like Append, it keeps the rows it is
// given (one that needs no cast is stored as it is): do not modify them. The
// slice stays the caller's.
func (e *Engine) BulkInsert(table string, rows []Row) error {
	if err := e.writeGate(); err != nil {
		return err
	}
	t, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("streamrel: table %q does not exist", table)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	w := e.beginWrite(nil)
	coerced := make([]types.Row, len(rows))
	for i, row := range rows {
		var err error
		if coerced[i], err = types.CoerceRow(row, t.Schema); err != nil {
			return w.fail(err)
		}
	}
	if err := w.insert(t, nil, coerced); err != nil {
		return w.fail(err)
	}
	return w.commit()
}
