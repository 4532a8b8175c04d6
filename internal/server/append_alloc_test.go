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
	if primary4 > primary+1 || replica4 > replica+1 {
		t.Errorf("a 1024-row batch allocates %.2f times on the primary and %.2f on the replica, a 256-row one %.2f and %.2f: want the same",
			primary4, replica4, primary, replica)
	}
}
