package streamrel

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fuzzStoreQueries is the CQ set FuzzIVMEquivalence runs. q0 and q1 are
// single-view stores covering every retractable aggregate; q2–q4 are one
// fingerprint at three VISIBLEs (one store, three views), one carrying a
// subsumed residual filter and one an ORDER BY … LIMIT post stage; q5 and
// q6 are a shape with no retract form (DISTINCT, first, last) at two
// VISIBLEs, so the merge strategy runs under the automatic setting too.
// q7–q9 are the enrichment shape over the dimension table dim, whose rows
// the tape changes between closes: every two-level aggregate; a stream
// filter, a stream-side group column and HAVING; and a join whose slice
// spec is q2–q4's, so one store serves plain and joined members.
var fuzzStoreQueries = []string{
	`SELECT url, count(*), count(v), sum(v), avg(v), min(v), max(v)
		FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT count(*), sum(f), min(f), max(f) FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'>`,
	`SELECT url, count(*) AS n, sum(v) AS sv FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT url, count(*) AS n, sum(v) AS sv FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'>
		WHERE url = '/u1' GROUP BY url`,
	`SELECT url, count(*) AS n, sum(v) AS sv FROM s <VISIBLE '40 seconds' ADVANCE '10 seconds'>
		GROUP BY url ORDER BY n DESC, url LIMIT 2`,
	`SELECT url, count(DISTINCT v), first(v), last(v)
		FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT url, count(DISTINCT v), first(v), last(v)
		FROM s <VISIBLE '60 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT d.cat, count(*), count(v), sum(v), min(v), max(v), avg(v)
		FROM s <VISIBLE '30 seconds' ADVANCE '10 seconds'>, dim d WHERE s.url = d.url GROUP BY d.cat`,
	`SELECT d.cat, s.url, sum(v) AS sv FROM s <VISIBLE '20 seconds' ADVANCE '10 seconds'> JOIN dim d ON s.url = d.url
		WHERE v > 2 GROUP BY d.cat, s.url HAVING count(*) > 1`,
	`SELECT d.cat, count(*) AS n, sum(v) AS sv
		FROM s <VISIBLE '40 seconds' ADVANCE '10 seconds'>, dim d WHERE d.url = s.url GROUP BY d.cat`,
}

// fuzzDimDML is what a tape byte 0xe0+k does to the dimension table: moves
// between categories, removals, and inserts that duplicate a key (N:M) or
// add one the stream may or may not carry.
var fuzzDimDML = []string{
	`UPDATE dim SET cat = 'c2' WHERE url = '/u1'`,
	`DELETE FROM dim WHERE url = '/u2'`,
	`INSERT INTO dim VALUES ('/u2', 'c0')`,
	`INSERT INTO dim VALUES ('/u0', 'c1')`,
	`UPDATE dim SET cat = 'c0' WHERE cat = 'c2'`,
	`DELETE FROM dim WHERE cat = 'c1'`,
	`INSERT INTO dim VALUES ('/u5', 'c2'), ('/u6', 'c2')`,
	`DELETE FROM dim`,
}

// FuzzIVMEquivalence drives the window-state store and its re-exec twin
// with the same fuzzer-chosen sequence of appends, time advances and CQ
// closes, and requires byte-identical per-CQ fire transcripts under the
// automatic, merge and reexec settings of the window-state override. The
// byte stream decodes to an op tape: each byte is "advance the watermark"
// (fires windows, retracts slices, including empty-window fires over
// quiet gaps), "close CQ k" (never reopened: a view detaches, and when it
// was the widest its store's retention shrinks), "change the dimension
// table" (the next close must join the table as it then is, under either
// strategy), or "append a row" with a
// small group-key space (including NULL keys and NULL aggregate inputs,
// so retraction of NULL-bearing slices is covered). Values stay
// integer-valued so float arithmetic is exact under any add/retract order.
func FuzzIVMEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0xf0, 0x33, 0x44, 0xff, 0x55})
	f.Add([]byte{0xf7, 0xf7, 0xf7, 0x01})
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0xf1, 0x90, 0xa0})
	f.Add([]byte{})
	// The widest view of each multi-view store closes mid-run (q4 at 40 s,
	// q6 at 60 s): retention must shrink under the survivors.
	f.Add([]byte{0x08, 0x11, 0x1a, 0xf1, 0x0b, 0x23, 0xf2, 0x09, 0xec, 0xee, 0x12, 0xf1, 0x0a, 0x1b,
		0xf2, 0x13, 0xf3, 0x09, 0xf9})
	// Every view of a store but one closes (q2, q3 leave q4; q5 leaves q6).
	f.Add([]byte{0x09, 0x12, 0xf1, 0x0a, 0x4b, 0xea, 0xf2, 0x0b, 0xeb, 0x13, 0xf1, 0xed, 0x0c, 0x1d,
		0xf2, 0x0a, 0xf4, 0x11, 0xfa})
	// The dimension table changes between closes: a move, an N:M duplicate,
	// a delete of everything and a re-insert.
	f.Add([]byte{0x09, 0x12, 0x1b, 0xf1, 0xe0, 0x0a, 0x13, 0xf2, 0xe3, 0x11, 0x19, 0xf1, 0xe7, 0x0b, 0xf1,
		0xe2, 0xe6, 0x14, 0x2b, 0x33, 0xf3, 0xe4, 0xe1, 0xf9})
	// Rows held across closes: /u2 leaves q0's window at the close of 40 s,
	// which is also a full carve (the blocks carved at 10, 20 and 30 s hold
	// 7 rows, over twice the 2 live groups), and re-enters at 50 s; /u0 and
	// /u1 change at every close, and every multi-second view sees the same.
	f.Add([]byte{0x01, 0x09, 0x11, 0xf2, 0x01, 0x09, 0xf2, 0x01, 0x09, 0xf2, 0x11, 0x01, 0xf2, 0x09, 0x11,
		0xf2, 0x01, 0xf5})
	f.Fuzz(func(t *testing.T, tape []byte) {
		run := func(mode string) [][]string {
			e := openMemMode(t, mode)
			mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint, f double)`)
			mustExec(t, e, `CREATE TABLE dim (url varchar, cat varchar)`)
			mustExec(t, e, `INSERT INTO dim VALUES ('/u0', 'c0'), ('/u1', 'c0'), ('/u2', 'c1'), ('/u3', 'c1'), ('/u3', 'c2')`)
			cqs := make([]*CQ, len(fuzzStoreQueries))
			for i, q := range fuzzStoreQueries {
				cq, err := e.Subscribe(q)
				if err != nil {
					t.Fatal(err)
				}
				defer cq.Close()
				cqs[i] = cq
			}
			ts := ivmBase
			for _, op := range tape {
				switch {
				case op >= 0xf0:
					// Advance 1..64 seconds: fires boundaries, retracts
					// slices, can skip whole windows.
					ts += int64(op&0x0f+1) * 4_000_000
					e.AdvanceTime("s", time.UnixMicro(ts).UTC())
					continue
				case op >= 0xe8:
					// Close CQ op&7 (7 names no CQ; the joins stay open);
					// closing twice is a no-op.
					if k := int(op & 0x07); k < 7 {
						cqs[k].Close()
					}
					continue
				case op >= 0xe0:
					mustExec(t, e, fuzzDimDML[op&0x07])
					continue
				}
				ts += int64(op&0x07) * 700_000
				url := Value(Null)
				if g := (op >> 3) & 0x07; g != 7 {
					url = String(fmt.Sprintf("/u%d", g))
				}
				v := Value(Null)
				if op&0x40 == 0 {
					v = Int(int64(op % 23))
				}
				row := Row{url, Timestamp(time.UnixMicro(ts).UTC()), v, Float(float64(op % 31))}
				if err := e.Append("s", row); err != nil {
					t.Fatal(err)
				}
			}
			e.AdvanceTime("s", time.UnixMicro(ts).Add(2*time.Minute).UTC())
			out := make([][]string, len(cqs))
			for i, cq := range cqs {
				out[i] = collectBatches(t, cq)
			}
			return out
		}
		ref := run("reexec")
		for _, mode := range []string{"incremental", "shared"} {
			got := run(mode)
			for qi := range fuzzStoreQueries {
				if a, b := strings.Join(got[qi], "\n"), strings.Join(ref[qi], "\n"); a != b {
					t.Fatalf("q%d: %s and re-exec transcripts differ:\n%s:\n%s\nreexec:\n%s", qi, mode, mode, a, b)
				}
			}
		}
	})
}
