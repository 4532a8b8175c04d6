//go:build go1.24

package streamrel

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"streamrel/internal/storage"
	"streamrel/internal/types"
)

// TestReplaceChannelPinsNoBatch: a REPLACE channel deletes its rows one at a
// time, so each row it stores is a copy of its own. A row that the next
// emission replaced, and a checkpoint then vacuumed, is garbage while a row
// written beside it by the same emission lives on — as it would not be if
// the emission were stored as one block. The index keys each row by a view of
// it, and lets go of the vacuumed one.
func TestReplaceChannelPinsNoBatch(t *testing.T) {
	e, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ExecScript(`
		CREATE STREAM s (k varchar, v bigint, at timestamp CQTIME USER);
		CREATE STREAM per_k AS SELECT k, sum(v) AS total FROM s <ADVANCE '1 minute'> GROUP BY k;
		CREATE TABLE latest (k varchar, total bigint);
		CREATE INDEX latest_k ON latest (k);
		CREATE CHANNEL latest_ch FROM per_k INTO latest REPLACE;`); err != nil {
		t.Fatal(err)
	}
	base := MustTimestamp("2009-01-04 00:00:00")
	window := func(m int, a int64) {
		at := base.Add(time.Duration(m) * time.Minute)
		if err := e.Append("s", Row{String("a"), Int(a), Timestamp(at)}, Row{String("b"), Int(2), Timestamp(at)}); err != nil {
			t.Fatal(err)
		}
		if err := e.AdvanceTime("s", at.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	stored := func() map[string]*types.Datum {
		tbl, _ := e.cat.Table("latest")
		out := map[string]*types.Datum{}
		tbl.Heap.Scan(e.mgr.SnapshotNow(), func(_ storage.RowID, row types.Row) bool {
			out[row.String()] = &row[0]
			return true
		})
		return out
	}
	window(0, 1)
	first := stored()
	if len(first) != 2 || first["a|1"] == nil || first["b|2"] == nil {
		t.Fatalf("after the first window the table holds %v", first)
	}
	replaced, sibling := weak.Make(first["a|1"]), first["b|2"]
	first = nil
	window(1, 5)
	if second := stored(); len(second) != 2 || second["a|5"] == nil || second["b|2"] != sibling {
		t.Fatalf("after the second window the table holds %v, want a|5 beside the same b|2", second)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	if replaced.Value() != nil {
		t.Fatal("the replaced, vacuumed row a|1 is still reachable")
	}
	expectData(t, mustQuery(t, e, `SELECT total FROM latest WHERE k = 'a'`), "5")
	runtime.KeepAlive(sibling)
}
