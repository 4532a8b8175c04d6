//go:build go1.24

package streamrel

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// TestKeptBuildReleasedOnClose: the build side an enrichment post stage
// keeps between closes belongs to the CQ's plan — nothing in the engine
// caches it — so it is reachable while the CQ runs and gone once the CQ is
// closed and dropped.
func TestKeptBuildReleasedOnClose(t *testing.T) {
	e := openMem(t)
	mustExec(t, e, `CREATE STREAM hits (url varchar, at timestamp CQTIME USER, bytes bigint)`)
	mustExec(t, e, `CREATE TABLE urls (url varchar, category varchar)`)
	mustExec(t, e, `INSERT INTO urls VALUES ('/a', 'x'), ('/b', 'y')`)
	cq, err := e.Subscribe(`SELECT u.category, count(*) AS n FROM hits h <VISIBLE '10 seconds' ADVANCE '10 seconds'>, urls u
		WHERE h.url = u.url GROUP BY u.category`)
	if err != nil {
		t.Fatal(err)
	}
	base := time.UnixMicro(ivmBase)
	if err := e.Append("hits", Row{String("/a"), Timestamp(base), Int(1)}); err != nil {
		t.Fatal(err)
	}
	e.AdvanceTime("hits", base.Add(10*time.Second))
	if got := collectBatches(t, cq); len(got) != 1 {
		t.Fatalf("fired %q", got)
	}
	alive := func() func() bool {
		_, rows := keptBuildOf(t, cq).Kept()
		if len(rows) != 2 {
			t.Fatalf("the close kept %d build rows, want 2", len(rows))
		}
		w := weak.Make(&rows[0])
		return func() bool { return w.Value() != nil }
	}()
	runtime.GC()
	if !alive() {
		t.Fatal("the kept build side was collected while its CQ runs")
	}
	cq.Close()
	cq = nil
	runtime.GC()
	runtime.GC()
	if alive() {
		t.Fatal("the kept build side outlives its CQ")
	}
}
