package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"

	"streamrel"
	"streamrel/internal/repl"
)

// TestAppendAllocsPerBatch holds the batch as the unit of ownership end to
// end: an append of 256 rows and one of 1 024 cost the same allocations on
// the primary — the frame decoded, committed through the stream's raw-archive
// channel, logged and published — and on a replica — the hub's frame read
// and applied — so nothing on either side costs a row an allocation.
func TestAppendAllocsPerBatch(t *testing.T) {
	const ddl = `CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar, bytes bigint);
		CREATE TABLE archive (url varchar, atime timestamp, client_ip varchar, bytes bigint);
		CREATE CHANNEL archive_ch FROM hits INTO archive APPEND;`
	const batches = 48
	perBatch := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / batches
	}
	measure := func(rows int) (primary, replica float64) {
		eng, err := streamrel.Open(streamrel.Config{Dir: t.TempDir(), Replicate: true, TraceSampleEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		follower, err := streamrel.Open(streamrel.Config{Replicate: true, TraceSampleEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer follower.Close()
		for _, e := range []*streamrel.Engine{eng, follower} {
			if err := e.ExecScript(ddl); err != nil {
				t.Fatal(err)
			}
		}
		follower.BeginReplica()
		hub := eng.Repl()
		run, from := hub.RunID(), hub.LSN()

		cli, ours := net.Pipe()
		defer cli.Close()
		go New(eng).handle(ours)
		frames := make([][]byte, batches+2)
		for i := range frames {
			var b strings.Builder
			fmt.Fprintf(&b, `{"id":%d,"op":"append","stream":"hits","rows":[`, i+1)
			for r := 0; r < rows; r++ {
				if r > 0 {
					b.WriteByte(',')
				}
				n := i*rows + r
				fmt.Fprintf(&b, `[{"s":"/products/item-%d"},{"ts":%d},{"s":"10.1.2.3"},{"i":%d}]`, n%100, 1231027200000000+int64(n)*1000, 512+n)
			}
			b.WriteString("]}\n")
			frames[i] = []byte(b.String())
		}
		br := bufio.NewReader(cli)
		send := func(i int) {
			if _, err := cli.Write(frames[i]); err != nil {
				t.Fatal(err)
			}
			if line, err := br.ReadSlice('\n'); err != nil || !strings.Contains(string(line), `"ok":true`) {
				t.Fatalf("append %d: %s, %v", i, line, err)
			}
		}
		send(0)
		send(1)
		primary = perBatch(func() {
			for i := 2; i < len(frames); i++ {
				send(i)
			}
		})

		// The hub's frames, as a replica receives them, then read and applied
		// where nothing else runs.
		hubSide, ourSide := net.Pipe()
		defer ourSide.Close()
		go hub.ServeConn(hubSide, from, run)
		var sent []byte
		for range len(frames) + 1 { // the resume, then an event a batch
			hdr := make([]byte, 8)
			if _, err := io.ReadFull(ourSide, hdr); err != nil {
				t.Fatal(err)
			}
			payload := make([]byte, binary.LittleEndian.Uint32(hdr))
			if _, err := io.ReadFull(ourSide, payload); err != nil {
				t.Fatal(err)
			}
			sent = append(append(sent, hdr...), payload...)
		}
		r := repl.NewReader(bufio.NewReader(bytes.NewReader(sent)))
		apply := func() {
			ev, err := r.ReadEvent()
			if err != nil {
				t.Fatal(err)
			}
			if ev.Kind == repl.KindResume {
				return
			}
			if ev.Kind != repl.KindArchive || len(ev.Rows) != rows {
				t.Fatalf("event %v of %d rows, want an archive of %d", ev.Kind, len(ev.Rows), rows)
			}
			if err := follower.ApplyReplicatedAt(run, ev.LSN, func() error {
				return follower.ApplyReplicatedArchive(ev.Stream, ev.Table, ev.Rows, ev.Runs, ev.Trace)
			}); err != nil {
				t.Fatal(err)
			}
		}
		for range 3 { // the resume, then two events
			apply()
		}
		replica = perBatch(func() {
			for range batches {
				apply()
			}
		})
		res, err := follower.Query(`SELECT count(*) FROM archive`)
		if err != nil || res.Data[0][0].Int() != int64(len(frames)*rows) {
			t.Fatalf("the replica archived %v rows, %v; want %d", res.Data, err, len(frames)*rows)
		}
		return primary, replica
	}
	primary, replica := measure(256)
	primary4, replica4 := measure(1024)
	t.Logf("per batch of 256 and of 1024 rows: %.2f and %.2f allocations on the primary, %.2f and %.2f on the replica",
		primary, primary4, replica, replica4)
	if !racing && (primary4 > primary+1 || replica4 > replica+1) {
		t.Errorf("a 1024-row batch allocates %.2f times on the primary and %.2f on the replica, a 256-row one %.2f and %.2f: want the same",
			primary4, replica4, primary, replica)
	}
}

// TestArchivedRowMemoryBounded holds each side of an archived row to the bytes
// it keeps, once warm: on the primary the frame is decoded into the memory of
// the last one (nothing keeps a decoded row), committed through the stream's
// raw-archive channel and published; on a replica the hub's frames are read
// and applied as the replica loop applies them, recycling the decode of every
// event nothing of the replica's keeps. Each side pays the heap's copy — 16 B
// of stamps, 16 B a value and the strings' bytes — the one 24 B container the
// transaction keeps (pointed at the copies, for the log and the ring) and a
// constant a batch, measured past the first heap segment (which grows) over
// a million string bytes (the arena's chunks are 256 KiB). The replica's
// container is the transaction's: it still holds the stored rows after the
// next event is read into recycled memory.
func TestArchivedRowMemoryBounded(t *testing.T) {
	const ddl = `CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar, bytes bigint);
		CREATE TABLE archive (url varchar, atime timestamp, client_ip varchar, bytes bigint);
		CREATE CHANNEL archive_ch FROM hits INTO archive APPEND;`
	const warm, batches, rows, width, perBatch = 18, 256, 256, 4, 4096
	eng, err := streamrel.Open(streamrel.Config{Replicate: true, TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	follower, err := streamrel.Open(streamrel.Config{Replicate: true, TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	for _, e := range []*streamrel.Engine{eng, follower} {
		if err := e.ExecScript(ddl); err != nil {
			t.Fatal(err)
		}
	}
	follower.BeginReplica()
	hub := eng.Repl()
	run, from := hub.RunID(), hub.LSN()

	frames, strs := make([][]byte, warm+batches), 0 // strs: the measured rows' string bytes
	for i := range frames {
		var b strings.Builder
		fmt.Fprintf(&b, `{"id":%d,"op":"append","stream":"hits","rows":[`, i+1)
		for r := 0; r < rows; r++ {
			n := i*rows + r
			url := fmt.Sprintf("/products/item-%d", n%100)
			if r > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `[{"s":%q},{"ts":%d},{"s":"10.1.2.3"},{"i":%d}]`, url, 1231027200000000+int64(n)*1000, 512+n)
			if i >= warm {
				strs += len(url) + len("10.1.2.3")
			}
		}
		b.WriteString("]}\n")
		frames[i] = []byte(b.String())
	}
	bytesOf := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	limit := uint64(batches*rows*(16+16*width+24) + strs + batches*perBatch)

	cli, ours := net.Pipe()
	defer cli.Close()
	go New(eng).handle(ours)
	br := bufio.NewReader(cli)
	send := func(i int) {
		if _, err := cli.Write(frames[i]); err != nil {
			t.Fatal(err)
		}
		if line, err := br.ReadSlice('\n'); err != nil || !strings.Contains(string(line), `"ok":true`) {
			t.Fatalf("append %d: %s, %v", i, line, err)
		}
	}
	for i := range warm {
		send(i)
	}
	primary := bytesOf(func() {
		for i := warm; i < len(frames); i++ {
			send(i)
		}
	})

	hubSide, ourSide := net.Pipe()
	defer ourSide.Close()
	go hub.ServeConn(hubSide, from, run)
	var sent []byte
	for range len(frames) + 1 { // the resume, then an event a batch
		hdr := make([]byte, 8)
		if _, err := io.ReadFull(ourSide, hdr); err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr))
		if _, err := io.ReadFull(ourSide, payload); err != nil {
			t.Fatal(err)
		}
		sent = append(append(sent, hdr...), payload...)
	}
	r := repl.NewReader(bufio.NewReader(bytes.NewReader(sent)))
	var kept, stored []streamrel.Row // the last event's container, and the rows it held
	apply := func() {
		ev, err := r.ReadEvent()
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range kept {
			if &row[0] != &stored[i][0] {
				t.Fatalf("reading an event rewrote the container the last one's transaction keeps")
			}
		}
		if ev.Kind == repl.KindResume {
			return
		}
		var held bool
		if err := follower.ApplyReplicatedAt(run, ev.LSN, func() (err error) {
			held, err = follower.ApplyReplicatedArchiveBorrowed(ev.Stream, ev.Table, ev.Rows, ev.Runs, ev.Trace)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if !held {
			r.Recycle()
		}
		kept, stored = ev.Rows, append(stored[:0], ev.Rows...)
	}
	for range 1 + warm { // the resume, then the warm events
		apply()
	}
	replica := bytesOf(func() {
		for range batches {
			apply()
		}
	})
	t.Logf("per row: %.1f B on the primary, %.1f B on the replica; bound %.1f B", float64(primary)/(batches*rows),
		float64(replica)/(batches*rows), float64(limit)/(batches*rows))
	if (primary > limit || replica > limit) && !racing {
		t.Errorf("an archived row costs %.1f B on the primary and %.1f B on the replica, want at most %.1f",
			float64(primary)/(batches*rows), float64(replica)/(batches*rows), float64(limit)/(batches*rows))
	}
}
