package replica_test

import (
	"testing"
	"time"

	"streamrel"
	"streamrel/internal/trace"
	"streamrel/replica"
)

// startTracedPair starts a primary node and an attached replica, both with
// every-batch tracing.
func startTracedPair(t *testing.T) (*node, *streamrel.Engine, *replica.Replica) {
	t.Helper()
	prim := startServing(t, streamrel.Config{TraceSampleEvery: 1}, "127.0.0.1:0")
	reng, err := streamrel.Open(streamrel.Config{Replicate: true, TraceSampleEvery: 1})
	if err != nil {
		prim.stop()
		t.Fatal(err)
	}
	return prim, reng, follow(t, reng, prim.addr)
}

// TestReplicaApplySharesPrimaryTraceID is the end-to-end acceptance check:
// a sampled batch ingested on the primary produces a replica-apply span on
// the replica under the SAME trace ID as the primary's ingest span — and
// exactly one when the batch was also archived by the stream's channel, since
// append and archive cross the link as one event.
func TestReplicaApplySharesPrimaryTraceID(t *testing.T) {
	prim, reng, rep := startTracedPair(t)
	defer prim.stop()
	defer reng.Close()
	defer rep.Stop()

	mustExec(t, prim.eng, `CREATE STREAM s (v bigint, at timestamp CQTIME USER)`)
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Rows appended before the replica finishes bootstrapping arrive via
	// snapshot, not the live event stream, so keep appending fresh rows
	// until one crosses the wire as a traced append event.
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		if err := prim.eng.Append("s",
			streamrel.Row{streamrel.Int(int64(i)), streamrel.Timestamp(base.Add(time.Duration(i) * time.Second))}); err != nil {
			t.Fatal(err)
		}
		for _, sp := range reng.Traces() {
			if sp.Stage != trace.StageReplicaApply {
				continue
			}
			primIngest := make(map[uint64]bool)
			for _, psp := range prim.eng.Traces() {
				if psp.Stage == trace.StageIngest && psp.Stream == "s" {
					primIngest[psp.Trace] = true
				}
			}
			// Same trace ID on both sides of the wire: the replica's
			// apply span must sit under a trace the primary started at
			// ingest. (The replica adopts the ID rather than re-sampling,
			// so it records no second ingest span.)
			if !primIngest[sp.Trace] {
				t.Fatalf("replica-apply span %016x does not match any primary ingest trace", sp.Trace)
			}
			if sp.Stream != "s" || sp.Rows == 0 {
				t.Fatalf("replica-apply span missing stream/rows: %+v", sp)
			}
			archivedBatchAppliesOnce(t, prim, reng, rep, base.Add(time.Hour))
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("replica never recorded a replica-apply span")
}

// archivedBatchAppliesOnce gives s a raw-archive channel and appends one
// batch: the replica must record one replica-apply span under that batch's
// trace, covering its rows, where an append frame and a WAL frame made two.
func archivedBatchAppliesOnce(t *testing.T, prim *node, reng *streamrel.Engine, rep *replica.Replica, at time.Time) {
	t.Helper()
	mustExec(t, prim.eng, `CREATE TABLE raw (v bigint, at timestamp)`)
	mustExec(t, prim.eng, `CREATE CHANNEL raw_ch FROM s INTO raw APPEND`)
	before := map[uint64]bool{}
	for _, sp := range prim.eng.Traces() {
		before[sp.Trace] = true
	}
	if err := prim.eng.Append("s",
		streamrel.Row{streamrel.Int(1), streamrel.Timestamp(at)},
		streamrel.Row{streamrel.Int(2), streamrel.Timestamp(at.Add(time.Second))}); err != nil {
		t.Fatal(err)
	}
	var batch uint64
	for _, sp := range prim.eng.Traces() {
		if sp.Stage == trace.StageIngest && sp.Stream == "s" && !before[sp.Trace] {
			batch = sp.Trace
		}
	}
	if batch == 0 {
		t.Fatal("the primary did not trace the archived batch")
	}
	if err := rep.WaitFor(prim.eng.Repl().LSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	var applies []trace.Span
	for _, sp := range reng.Traces() {
		if sp.Stage == trace.StageReplicaApply && sp.Trace == batch {
			applies = append(applies, sp)
		}
	}
	if len(applies) != 1 || applies[0].Stream != "s" || applies[0].Rows != 2 {
		t.Fatalf("replica-apply spans under the archived batch's trace %016x: %+v, want one of 2 rows on s", batch, applies)
	}
	waitConverged(t, prim.eng, reng, `SELECT v FROM raw ORDER BY v`, false)
}
