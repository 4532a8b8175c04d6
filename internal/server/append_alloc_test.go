package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"

	"streamrel"
	"streamrel/internal/repl"
	"streamrel/internal/types"
)

// TestAppendAllocsPerBatch holds the batch as the unit of ownership end to
// end: an append of 256 rows and one of 1 024 cost the same allocations on
// the primary — the frame decoded, committed through the stream's raw-archive
// channel, logged and published — and on a replica — the hub's frame read
// and applied — so nothing on either side costs a row an allocation. And what
// a batch costs is the rows its keepers store and little else: the session,
// the channel's transaction and row container, the log's commit group, the
// ring's blocks and the replica's reader reuse their per-request objects,
// which took 14.7 and 10.5 allocations a batch before. The replica pays the
// decoded batch (container, values, strings), which the measure below never
// recycles. Two sessions appending in turn to two streams, each archived into
// a table of its own, cost the same: the replica's reader interns the names
// it decodes, which alternate.
func TestAppendAllocsPerBatch(t *testing.T) {
	const ddl = `CREATE STREAM hits%[1]s (url varchar, atime timestamp CQTIME USER, client_ip varchar, bytes bigint);
		CREATE TABLE archive%[1]s (url varchar, atime timestamp, client_ip varchar, bytes bigint);
		CREATE CHANNEL archive%[1]s_ch FROM hits%[1]s INTO archive%[1]s APPEND;`
	const batches = 48
	perBatch := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / batches
	}
	// measure appends batches of rows in turn to each of the streams named
	// hits<suffix>, through a session of its own.
	measure := func(rows int, suffixes ...string) (primary, replica float64) {
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
			for _, sfx := range suffixes {
				if err := e.ExecScript(fmt.Sprintf(ddl, sfx)); err != nil {
					t.Fatal(err)
				}
			}
		}
		follower.BeginReplica()
		hub := eng.Repl()
		run, from := hub.RunID(), hub.LSN()

		clis := make([]net.Conn, len(suffixes))
		brs := make([]*bufio.Reader, len(suffixes))
		for i := range clis {
			cli, ours := loopback(t)
			defer cli.Close()
			go New(eng).ServeConn(ours)
			clis[i], brs[i] = cli, bufio.NewReader(cli)
		}
		frames := make([][]byte, batches+2*len(suffixes))
		for i := range frames {
			var b strings.Builder
			fmt.Fprintf(&b, `{"id":%d,"op":"append","stream":"hits%s","rows":[`, i+1, suffixes[i%len(suffixes)])
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
		send := func(i int) {
			cli, br := clis[i%len(clis)], brs[i%len(brs)]
			if _, err := cli.Write(frames[i]); err != nil {
				t.Fatal(err)
			}
			if line, err := br.ReadSlice('\n'); err != nil || !strings.Contains(string(line), `"ok":true`) {
				t.Fatalf("append %d: %s, %v", i, line, err)
			}
		}
		warm := 2 * len(suffixes)
		for i := range warm {
			send(i)
		}
		primary = perBatch(func() {
			for i := warm; i < len(frames); i++ {
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
			if _, err := follower.ApplyEvent(run, ev); err != nil {
				t.Fatal(err)
			}
		}
		for range 1 + warm { // the resume, then the warm events
			apply()
		}
		replica = perBatch(func() {
			for range batches {
				apply()
			}
		})
		var archived int64
		for _, sfx := range suffixes {
			res, err := follower.Query(`SELECT count(*) FROM archive` + sfx)
			if err != nil {
				t.Fatal(err)
			}
			archived += res.Data[0][0].Int()
		}
		if archived != int64(len(frames)*rows) {
			t.Fatalf("the replica archived %d rows; want %d", archived, len(frames)*rows)
		}
		return primary, replica
	}
	// The bounds are the most of a dozen runs and a tenth: what the primary
	// allocates a batch varies by a third between runs (the heap's growth,
	// the pools a collection empties), a replica's by a twentieth.
	for _, c := range []struct {
		suffixes               []string
		maxPrimary, maxReplica float64
	}{{[]string{""}, 2.2, 4.0}, {[]string{"_a", "_b"}, 4.5, 4.2}} {
		suffixes := c.suffixes
		primary, replica := measure(256, suffixes...)
		primary4, replica4 := measure(1024, suffixes...)
		t.Logf("%d streams, per batch of 256 and of 1024 rows: %.2f and %.2f allocations on the primary, %.2f and %.2f on the replica",
			len(suffixes), primary, primary4, replica, replica4)
		if racing {
			continue
		}
		if primary4 > primary+1 || replica4 > replica+1 {
			t.Errorf("%d streams: a 1024-row batch allocates %.2f times on the primary and %.2f on the replica, a 256-row one %.2f and %.2f: want the same",
				len(suffixes), primary4, replica4, primary, replica)
		}
		if primary > c.maxPrimary || replica > c.maxReplica {
			t.Errorf("%d streams: a 256-row batch allocates %.2f times on the primary and %.2f on the replica, want at most %v and %v",
				len(suffixes), primary, replica, c.maxPrimary, c.maxReplica)
		}
	}
}

// loopback returns the two ends of a TCP connection on the loopback
// interface. A net.Pipe end blocks in a select, whose sudogs the runtime
// allocates whenever a processor's cache and the central one have run dry —
// as they do when a goroutine blocks on one processor and wakes on another,
// and after every collection — so a session over one allocated as the
// scheduler placed it: up to 1.9 more a batch with two sessions on a loaded
// machine. A socket blocks in the network poller, as a client's does.
func loopback(t *testing.T) (cli, ours net.Conn) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if cli, err = net.Dial("tcp", ln.Addr().String()); err == nil {
		ours, err = ln.Accept()
	}
	if err != nil {
		t.Fatal(err)
	}
	return cli, ours
}

// TestArchivedRowMemoryBounded holds each side of an archived row to the bytes
// it keeps, once warm: on the primary the frame is decoded into the memory of
// the last one (nothing keeps a decoded row), committed through the stream's
// raw-archive channel and published; on a replica the hub's frames are read
// and applied as the replica loop applies them, recycling the decode of every
// event nothing of the replica's keeps, its row container included. Each side
// pays the heap's copy — 16 B of stamps, 16 B a value and the strings' bytes —
// and a constant a batch, among it the spans of the heap's values the hub's
// ring keeps instead of a header a row, measured past the first heap segment
// (which grows) over a million string bytes (the arena's chunks are 256 KiB).
// What the ring keeps is the heap's, not the decode's: after the reader has
// decoded every later event into the container an event was applied from, the
// replica's hub still serves that event's rows.
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
	hub, followerHub := eng.Repl(), follower.Repl()
	run, from := hub.RunID(), hub.LSN()
	followerRun, followerFrom := followerHub.RunID(), followerHub.LSN()

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
	limit := uint64(batches*rows*(16+16*width) + strs + batches*perBatch)

	cli, ours := net.Pipe()
	defer cli.Close()
	go New(eng).ServeConn(ours)
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

	// tail is a reader of the resume and then an event a batch, as a hub
	// serves them from the LSN after from.
	tail := func(hub *repl.Primary, run string, from uint64) *repl.Reader {
		hubSide, ourSide := net.Pipe()
		defer ourSide.Close()
		go hub.ServeConn(hubSide, from, run)
		var sent []byte
		for range len(frames) + 1 {
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
		return repl.NewReader(bufio.NewReader(bytes.NewReader(sent)))
	}
	r := tail(hub, run, from)
	apply := func() {
		ev, err := r.ReadEvent()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == repl.KindResume {
			return
		}
		held, err := follower.ApplyEvent(run, ev)
		if err != nil {
			t.Fatal(err)
		}
		if !held {
			r.Recycle()
		}
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

	// Every event the replica applied, as its own hub serves it, against the
	// primary's.
	want, got := tail(hub, run, from), tail(followerHub, followerRun, followerFrom)
	for i := range len(frames) + 1 {
		w, err := want.ReadEvent()
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.ReadEvent()
		if err != nil || g.Kind != w.Kind || !slices.EqualFunc(g.Rows, w.Rows, types.Row.Equal) {
			t.Fatalf("event %d: the replica's hub serves %v of %d rows, %v; want %v of %d", i, g.Kind, len(g.Rows), err, w.Kind, len(w.Rows))
		}
	}
}
