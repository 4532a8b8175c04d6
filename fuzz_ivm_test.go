package streamrel

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"streamrel/internal/sql"
	"streamrel/internal/sql/sqlgen"
)

// fuzzStoreQueries is the CQ set FuzzIVMEquivalence runs. q0 and q1 are
// single-view stores covering every retractable aggregate; q2–q4 are one
// fingerprint at three VISIBLEs (one store, three views), one carrying a
// subsumed residual filter and one an ORDER BY … LIMIT post stage; q5 and
// q6 are a shape with no inverse (DISTINCT, first, last) at two VISIBLEs,
// so every retract re-merges it from the slices still in the window.
// q7–q9 are the enrichment shape over the dimension table dim, whose rows
// the tape changes between closes: every two-level aggregate; a stream
// filter, a stream-side group column and HAVING; and a join whose slice
// spec is q2–q4's, so one store serves plain and joined members. q10–q13 are
// windows whose VISIBLE is not a multiple of ADVANCE, on paired stores: one
// fingerprint at 25 s and 45 s (one remainder: one store, two views), a
// VISIBLE below its ADVANCE, and an enrichment join. q14 is q5's shape on a
// paired store, so the re-merge walks paired cuts too. q15–q18 are ROWS
// windows, cut at row ordinals and closed by the row that completes an
// ADVANCE: one fingerprint at VISIBLE 7 and 10 over ADVANCE 3 (one paired
// store, two views, one with an ORDER BY … LIMIT post stage), q5's shape with
// a WHERE, and a VISIBLE below its ADVANCE with cq_close(*). q19 and q20 are
// SLICES windows over ds, a derived stream of s, cut at its emissions. q21 is
// the enrichment shape over a paired ROWS window.
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
	`SELECT url, count(*) AS n, avg(v), min(v), max(v) FROM s <VISIBLE '25 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT url, count(*) AS n, avg(v), min(v), max(v) FROM s <VISIBLE '45 seconds' ADVANCE '10 seconds'>
		WHERE url <> '/u0' GROUP BY url ORDER BY n, url LIMIT 3`,
	`SELECT url, count(v), sum(v), max(f) FROM s <VISIBLE '4 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT d.cat, count(*) AS n, sum(v) AS sv, min(v)
		FROM s <VISIBLE '15 seconds' ADVANCE '10 seconds'>, dim d WHERE d.url = s.url GROUP BY d.cat`,
	`SELECT url, count(DISTINCT v), first(v), last(v) FROM s <VISIBLE '25 seconds' ADVANCE '10 seconds'> GROUP BY url`,
	`SELECT url, count(*), count(v), sum(v), avg(v), min(v), max(v) FROM s <VISIBLE 7 ROWS ADVANCE 3 ROWS> GROUP BY url`,
	`SELECT url, count(*) AS n, count(v), sum(v), avg(v), min(v), max(v) FROM s <VISIBLE 10 ROWS ADVANCE 3 ROWS>
		GROUP BY url ORDER BY n DESC, url LIMIT 2`,
	`SELECT url, count(DISTINCT v), first(v), last(v) FROM s <VISIBLE 12 ROWS ADVANCE 4 ROWS> WHERE v <> 5 GROUP BY url`,
	`SELECT count(*), sum(v), max(f), cq_close(*) FROM s <VISIBLE 2 ROWS ADVANCE 5 ROWS>`,
	`SELECT url, sum(n), max(sv), count(*), cq_close(*) FROM ds <SLICES 3 WINDOWS> GROUP BY url`,
	`SELECT count(DISTINCT url), min(sv), sum(n) FROM ds <SLICES 2 WINDOWS>`,
	`SELECT d.cat, count(*) AS n, sum(v) AS sv, max(v) FROM s <VISIBLE 6 ROWS ADVANCE 4 ROWS>, dim d
		WHERE d.url = s.url GROUP BY d.cat`,
}

// fuzzStoreCQ writes, around sqlgen's typed expressions, an aggregate over
// one time window of s grouped by url (and perhaps an expression), whose
// aggregates and filters read v: the shape plan.WindowState keeps in a
// slice-partial store, beside the fixed ones above. Arithmetic is over small
// integers and divides by nothing but a literal, so no row makes a query fail
// and no order of additions changes a sum.
func fuzzStoreCQ(g *sqlgen.Gen) string {
	g.Keys, g.Ints = []string{"url"}, []string{"v"}
	groups := []string{"url"}
	if g.Pick(3) == 2 {
		groups = append(groups, g.Expr(sql.PrecAdd, 1)+" + v") // not a bare literal: that is a position
	}
	by := strings.Join(groups, ", ")
	aggs := g.List(3, func() string {
		agg := g.One("count(*)", "count(", "sum(", "min(", "max(", "avg(", "count(DISTINCT ", "last(")
		if agg == "count(*)" {
			return agg
		}
		return agg + g.Expr(sql.PrecAdd, 2) + ")"
	})
	q := fmt.Sprintf("SELECT %s, %s FROM s <VISIBLE '%d seconds' ADVANCE '10 seconds'>", by, aggs, 5*(1+g.Pick(8)))
	if g.Pick(2) == 1 {
		q += " WHERE " + g.Expr(sql.PrecOr, 2)
	}
	q += " GROUP BY " + by
	if g.Pick(3) == 1 {
		q += " HAVING count(*) > " + g.One("0", "1", "2")
	}
	if g.Pick(3) == 1 { // every group key breaks the tie, so LIMIT cuts one order
		// One byte picks the direction and what leads: the first aggregate
		// selected, or one the select list omits (a hidden sort column).
		how, lead := g.Pick(4), fmt.Sprint(len(groups)+1)
		for _, agg := range []string{"sum(v)", "min(v)", "max(v)", "count(v)"} {
			if how >= 2 && !strings.Contains(aggs, agg) {
				lead = agg
				break
			}
		}
		q += " ORDER BY " + lead + []string{"", " DESC"}[how%2]
		for i := range groups {
			q += fmt.Sprintf(", %d", i+1)
		}
		q += fmt.Sprintf(" LIMIT %d", 1+g.Pick(3))
	}
	return q
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
// automatic and reexec settings of the window-state override. The
// byte stream decodes to an op tape: each byte is "advance the watermark"
// (fires windows, retracts slices, including empty-window fires over
// quiet gaps), "close CQ k" (never reopened: a view detaches, and when it
// was the widest its store's retention shrinks), "change the dimension
// table" (the next close must join the table as it then is, under either
// strategy), or "append a row" with a
// small group-key space (including NULL keys and NULL aggregate inputs,
// so retraction of NULL-bearing slices is covered). Values stay
// integer-valued so float arithmetic is exact under any add/retract order.
// A second byte string chooses up to three more CQs (fuzzStoreCQ), which
// run beside fuzzStoreQueries and are never closed. The stores run with the
// producer draining their mailboxes (ParallelCQ 0) and with the scheduler
// pool (ParallelCQ 4), which is flushed before a close or a change to the
// dimension table, so both happen between the same two fires.
func FuzzIVMEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0xf0, 0x33, 0x44, 0xff, 0x55}, []byte{})
	f.Add([]byte{0xf7, 0xf7, 0xf7, 0x01}, []byte{})
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0xf1, 0x90, 0xa0}, []byte{})
	f.Add([]byte{}, []byte{})
	// The widest view of each multi-view store closes mid-run (q4 at 40 s,
	// q6 at 60 s): retention must shrink under the survivors.
	f.Add([]byte{0x08, 0x11, 0x1a, 0xf1, 0x0b, 0x23, 0xf2, 0x09, 0xec, 0xee, 0x12, 0xf1, 0x0a, 0x1b,
		0xf2, 0x13, 0xf3, 0x09, 0xf9}, []byte{})
	// Every view of a store but one closes (q2, q3 leave q4; q5 leaves q6).
	f.Add([]byte{0x09, 0x12, 0xf1, 0x0a, 0x4b, 0xea, 0xf2, 0x0b, 0xeb, 0x13, 0xf1, 0xed, 0x0c, 0x1d,
		0xf2, 0x0a, 0xf4, 0x11, 0xfa}, []byte{})
	// The dimension table changes between closes: a move, an N:M duplicate,
	// a delete of everything and a re-insert.
	f.Add([]byte{0x09, 0x12, 0x1b, 0xf1, 0xe0, 0x0a, 0x13, 0xf2, 0xe3, 0x11, 0x19, 0xf1, 0xe7, 0x0b, 0xf1,
		0xe2, 0xe6, 0x14, 0x2b, 0x33, 0xf3, 0xe4, 0xe1, 0xf9}, []byte{})
	// Rows held across closes: /u2 leaves q0's window at the close of 40 s,
	// which is also a full carve (the blocks carved at 10, 20 and 30 s hold
	// 7 rows, over twice the 2 live groups), and re-enters at 50 s; /u0 and
	// /u1 change at every close, and every multi-second view sees the same.
	f.Add([]byte{0x01, 0x09, 0x11, 0xf2, 0x01, 0x09, 0xf2, 0x01, 0x09, 0xf2, 0x11, 0x01, 0xf2, 0x09, 0x11,
		0xf2, 0x01, 0xf5}, []byte{})
	// Ninety rows close every ROWS window many times, some of them at
	// equal timestamps, and every few an advance closes ds's windows.
	var rows []byte
	for i := range 90 {
		if rows = append(rows, byte(i*29%0xe0)); i%11 == 10 {
			rows = append(rows, 0xf1)
		}
	}
	f.Add(rows, []byte{})
	// Generated CQs over the last tape: hoisted and base filters, ORDER BY …
	// LIMIT (led by an unselected aggregate, and by a position), a grouping
	// expression, DISTINCT (no retract form), OR, HAVING, NOT IN, NOT BETWEEN.
	//	SELECT url, avg(3) … WHERE url IS NOT NULL and url = '/u1' and url IS NOT NULL GROUP BY url ORDER BY sum(v) DESC, 1 LIMIT 3
	//	SELECT url, v + v, count(DISTINCT v) … WHERE v - 2 NOT IN (v, v + 3, 1) GROUP BY url, v + v HAVING count(*) > 2
	//	SELECT url, avg(7), avg(v), count(*) … WHERE v IS NOT NULL or v IN (v, v) GROUP BY url HAVING count(*) > 0 ORDER BY 2, 1 LIMIT 1
	//	SELECT url, sum(v) … WHERE (v) NOT BETWEEN 1 AND v GROUP BY url
	for _, gen := range []string{
		"\x3d\x75\x48\x58\xde\x4e\xa5\x71\x9e\x0c\xec\xa9\x7e\x81\xd5\x08\x84\xb4\xce\xc9\xe8\x34\x4d\x79\x99\x26\x2f\x7f\x0f\x98\x55\x74\x86\xfd\x1f\xca\x77\x43\x14\xc5\x56\x60\x00\x7f\x18\xe7\xc4\x74\x25\x7b\x75\xcb\xeb\x82\xcd\xb6\xa6\x2c\xa4\x62\x23\x8e\x73\x5c" +
			"\x32\x3f\x70\x87\x01\xdc\xe4\x4d\x9e\x54\x57\x71\xc9\x77\xe8\x5e\xcc\x69\x69\xe2\x73\x7b\x7d\x41\x2c\x09\x34\xa6\x24\x33\xc9\x10\x15\x18\x4f\x37\x5d\xd3\xd3\x7e\xf4\x9d\x98\xb3\x2e\x2e\x11\xc1\xf0\x71\x11\xf8\xbe\x12\x88\xae\xb4\x27\x72\xdd\xc9\x92\x5c\x87\x3a\x50\x76\x5f\xbc\x1f\x2c\x69",
		"\x18\x5d\xd2\xa8\xe9\x6e\x0a\x93\x23\x0e\x05\x3e\x8a\xe4\x6e\x11\xba\x0e\x48\x2c\x49\xd1\x46\x68\xc4\xc1\xe5\x2a\x11\xb0\x52\xb2\x25\x79\xd5\xea\x99\xc4\x7c\x63\x59\xac\x90\x5e\xb0\x03\xc8\xea\x9f\xc5\x43\xec\x9e\x67\xb1\xb6\x03\xda\x87\x3a\x83\xf7\xfc\xee\xac\xed" +
			"\x82\x4a\xef\xe6\x83\xb7\x3e\x24\x6f\x6f\x38\xd1\x3e\x9f\x10\xb2\xa0\xa5\x6a\xe0\x07\xe1\x3d\xce\x25\x1a\xbb\xf5\x4a\xa8\x4b\xd9\x66\xc3\xe7\x84\x36\xfa\xa7\xc7\x6b\xd8\xd7\xf5\x14",
	} {
		f.Add([]byte{0x01, 0x09, 0x11, 0xf2, 0x01, 0x09, 0xf2, 0x01, 0x09, 0xf2, 0x11, 0x01, 0xf2, 0x09, 0x11,
			0xf2, 0x01, 0xf5}, []byte(gen))
	}
	f.Fuzz(func(t *testing.T, tape, gen []byte) {
		queries := fuzzStoreQueries
		for g := (&sqlgen.Gen{Data: gen}); len(g.Data) > 0 && len(queries) < len(fuzzStoreQueries)+3; {
			queries = append(queries[:len(queries):len(queries)], fuzzStoreCQ(g))
		}
		run := func(mode string, parallel int) [][]string {
			e := openMemModeCfg(t, mode, Config{ParallelCQ: parallel})
			flush := func() {
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			mustExec(t, e, `CREATE STREAM s (url varchar, at timestamp CQTIME USER, v bigint, f double)`)
			mustExec(t, e, `CREATE STREAM ds AS SELECT url, count(*) AS n, sum(v) AS sv
				FROM s <VISIBLE '10 seconds' ADVANCE '10 seconds'> GROUP BY url`)
			mustExec(t, e, `CREATE TABLE dim (url varchar, cat varchar)`)
			mustExec(t, e, `INSERT INTO dim VALUES ('/u0', 'c0'), ('/u1', 'c0'), ('/u2', 'c1'), ('/u3', 'c1'), ('/u3', 'c2')`)
			cqs := make([]*CQ, len(queries))
			for i, q := range queries {
				cq, err := e.Subscribe(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
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
						flush()
						cqs[k].Close()
					}
					continue
				case op >= 0xe0:
					flush()
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
			flush()
			out := make([][]string, len(cqs))
			for i, cq := range cqs {
				out[i] = collectBatches(t, cq)
			}
			return out
		}
		ref := run("reexec", 0)
		for _, parallel := range []int{0, 4} {
			got := run("incremental", parallel)
			for qi, q := range queries {
				if a, b := strings.Join(got[qi], "\n"), strings.Join(ref[qi], "\n"); a != b {
					t.Fatalf("q%d (%s) at ParallelCQ %d: store and re-exec transcripts differ:\nstore:\n%s\nreexec:\n%s",
						qi, q, parallel, a, b)
				}
			}
		}
	})
}
