package streamrel_test

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"streamrel"
	"streamrel/internal/server"
)

// TestWireAppendRecycleEquivalence drives one seeded tape of appends into a
// stream through a server session and, as the oracle, through Engine.Append,
// whose rows are never written over. Beside two count/sum CQs that keep
// nothing — so frames are reported unkept and the next one is decoded into
// their memory — it creates and drops, between appends, each consumer that
// keeps rows: a re-executing CQ, min, first and count(DISTINCT) over VARCHAR,
// and an APPEND channel. Each CQ's batches are rendered only at the end, and
// the channel's table read there, so a row recycled while something still
// held it shows as a difference (under make poison, as zeroes). Both runs
// must agree byte for byte, at ParallelCQ 0 and 4.
func TestWireAppendRecycleEquivalence(t *testing.T) {
	for _, parallel := range []int{0, 4} {
		t.Run(fmt.Sprintf("ParallelCQ %d", parallel), func(t *testing.T) {
			want := recycleTape(t, parallel, false)
			got := recycleTape(t, parallel, true)
			if len(got) != len(want) {
				t.Fatalf("the wire run rendered %d lines, the in-process run %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("line %d differs:\nwire:       %s\nin-process: %s", i, got[i], want[i])
				}
			}
		})
	}
}

// recycleKeepers are the consumers the tape creates and drops: CQs, and last
// the channel (its DDL).
var recycleKeepers = []string{
	`SELECT url, ip FROM hits <VISIBLE 6 ROWS ADVANCE 3 ROWS>`,
	`SELECT min(ip) FROM hits <VISIBLE '2 seconds' ADVANCE '1 second'>`,
	`SELECT url, first(ip) FROM hits <VISIBLE '2 seconds' ADVANCE '1 second'> GROUP BY url`,
	`SELECT count(DISTINCT ip) FROM hits <VISIBLE '3 seconds' ADVANCE '1 second'>`,
	`CREATE CHANNEL ch FROM hits INTO arch APPEND`,
}

// recycleTape runs the tape once, its appends over a loopback server session
// when wire is set, and returns every CQ's batches and the channel's table,
// rendered.
func recycleTape(t *testing.T, parallel int, wire bool) []string {
	eng, err := streamrel.Open(streamrel.Config{ParallelCQ: parallel, TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.ExecScript(`CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, ip varchar, bytes bigint);
		CREATE TABLE arch (url varchar, atime timestamp, ip varchar, bytes bigint);`); err != nil {
		t.Fatal(err)
	}
	push := func(rows []streamrel.Row) error { return eng.Append("hits", rows...) }
	if wire {
		srv := server.New(eng)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve()
		defer srv.Close()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var id int64
		push = func(rows []streamrel.Row) error {
			id++
			frame, err := (&server.Request{ID: id, Op: "append", Stream: "hits", Rows: server.WireRows(rows)}).AppendJSON(nil)
			if err != nil {
				return err
			}
			if _, err := conn.Write(append(frame, '\n')); err != nil {
				return err
			}
			line, err := br.ReadString('\n')
			if err == nil && !strings.Contains(line, `"ok":true`) {
				err = fmt.Errorf("append %d: %s", id, line)
			}
			return err
		}
	}

	type sub struct {
		label   string
		cq      *streamrel.CQ
		batches []streamrel.Batch
	}
	var done []*sub
	live := make([]*sub, len(recycleKeepers))
	drain := func(s *sub) {
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
		s.batches = append(s.batches, s.cq.Drain()...)
	}
	subscribe := func(label, q string) *sub {
		cq, err := eng.Subscribe(q)
		if err != nil {
			t.Fatal(err)
		}
		return &sub{label: label, cq: cq}
	}
	// Two stores that keep nothing: under a pool, two feeds are drained by
	// workers, so a batch may still be in a mailbox when its append returns.
	bases := []*sub{
		subscribe("count/sum by url", `SELECT url, count(*), sum(bytes) FROM hits <VISIBLE '3 seconds' ADVANCE '1 second'> GROUP BY url`),
		subscribe("count/sum by ip", `SELECT ip, count(*), sum(bytes) FROM hits <VISIBLE '1 second' ADVANCE '500 milliseconds'> GROUP BY ip`),
	}

	// Each keeper is live about a sixth of the time, so about two appends in
	// five reach none of them and are recycled on the wire.
	rng := rand.New(rand.NewSource(43))
	ts := time.Date(2009, 1, 4, 0, 0, 0, 0, time.UTC)
	unkept := 0
	for step := 0; step < 300; step++ {
		idle := true
		for k, s := range live {
			channel, roll := k == len(recycleKeepers)-1, rng.Intn(20)
			switch {
			case s == nil && roll == 0 && channel:
				if _, err := eng.Exec(recycleKeepers[k]); err != nil {
					t.Fatal(err)
				}
				live[k] = &sub{}
			case s == nil && roll == 0:
				live[k] = subscribe(fmt.Sprintf("keeper %d from step %d", k, step), recycleKeepers[k])
			case s != nil && roll < 5 && channel:
				if _, err := eng.Exec(`DROP CHANNEL ch`); err != nil {
					t.Fatal(err)
				}
				live[k] = nil
			case s != nil && roll < 5:
				drain(s)
				s.cq.Close()
				done, live[k] = append(done, s), nil
			}
			idle = idle && live[k] == nil
		}
		if idle {
			unkept++
		}
		rows := make([]streamrel.Row, 1+rng.Intn(64))
		for i := range rows {
			ts = ts.Add(time.Duration(rng.Intn(40)) * time.Millisecond)
			rows[i] = streamrel.Row{
				streamrel.String(fmt.Sprintf("/p/%d%s", rng.Intn(12), strings.Repeat("x", rng.Intn(40)))),
				streamrel.Timestamp(ts),
				streamrel.String(fmt.Sprintf("10.0.%d.%d", rng.Intn(4), rng.Intn(200))),
				streamrel.Int(rng.Int63n(1 << 20)),
			}
		}
		if err := push(rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.AdvanceTime("hits", ts.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	for _, s := range append(bases, live[:len(live)-1]...) {
		if s != nil {
			drain(s)
			done = append(done, s)
		}
	}

	var out []string
	for _, s := range done {
		for _, b := range s.batches {
			line := s.label + " " + b.Close.UTC().Format(time.RFC3339Nano)
			for _, r := range b.Rows {
				line += "|" + r.String()
			}
			out = append(out, line)
		}
	}
	arch, err := eng.Query(`SELECT * FROM arch`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range arch.Data {
		out = append(out, "arch "+r.String())
	}
	if len(arch.Data) == 0 || unkept < 50 {
		t.Fatalf("the channel archived %d rows, and %d appends reached no keeper", len(arch.Data), unkept)
	}
	return out
}
