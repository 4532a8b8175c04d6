package streamrel

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"streamrel/internal/wal"
)

// TestScanTableFailingEmit pins the contract checkpoint and
// replicationSnapshot rely on: every visible row reaches emit exactly once,
// in batches of one run-shaped record of at most scanBatchRows rows; when
// emit fails on its n-th batch that error comes back, nothing is emitted
// after it and no batch twice.
func TestScanTableFailingEmit(t *testing.T) {
	e, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	mustExec(t, e, `CREATE TABLE t (a bigint)`)
	const rows = 2*scanBatchRows + 10 // three batches, the last one short
	for lo := 0; lo < rows; lo += 1000 {
		var vals []string
		for i := lo; i < min(lo+1000, rows); i++ {
			vals = append(vals, fmt.Sprintf("(%d)", i))
		}
		mustExec(t, e, `INSERT INTO t VALUES `+strings.Join(vals, ","))
	}
	tab, _ := e.cat.Table("t")
	boom := errors.New("disk full")

	for failAt := 0; failAt <= 3; failAt++ { // 0: never fails
		seen := map[uint64]bool{}
		calls := 0
		err := scanTable(tab, e.mgr.SnapshotNow(), func(batch []wal.Record) error {
			calls++
			if len(batch) != 1 || batch[0].Kind != wal.RecRows || len(batch[0].Runs) != 1 || len(batch[0].Rows) == 0 || len(batch[0].Rows) > scanBatchRows {
				t.Fatalf("failAt %d: batch of %d records, the first with %d rows in runs %v", failAt, len(batch), len(batch[0].Rows), batch[0].Runs)
			}
			if calls == failAt {
				return boom
			}
			for _, r := range wal.Expand(batch) {
				if r.Kind != wal.RecInsert || r.Table != "t" || seen[r.RowID] {
					t.Fatalf("failAt %d: bad or repeated record %+v", failAt, r)
				}
				seen[r.RowID] = true
			}
			return nil
		})
		if failAt == 0 {
			if err != nil || calls != 3 || len(seen) != rows {
				t.Fatalf("clean scan: err %v, %d batches, %d rows", err, calls, len(seen))
			}
			continue
		}
		if err != boom {
			t.Fatalf("failAt %d: err = %v, want the emit's error", failAt, err)
		}
		if calls != failAt {
			t.Fatalf("failAt %d: emit called %d times", failAt, calls)
		}
	}
}
