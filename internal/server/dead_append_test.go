package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"

	"streamrel"
)

var racing bool // race_test.go

// TestDeadAppendAllocs holds what an append nothing keeps costs over the
// wire. The stream's only consumer folds its rows into count and sum, so the
// engine reports each batch unkept and the reader decodes the next frame into
// that batch's container, values and strings: none of the three is allocated
// again. The session decodes every frame into one Request, keeping the op and
// stream names a frame repeats, and answers in one Response, so what is left
// is about one allocation a frame (7.1 before those were reused; 10.1 before
// readers recycled). The bound leaves the engine and the runtime room.
func TestDeadAppendAllocs(t *testing.T) {
	const batches, rows, deadAppendAllocs = 48, 256, 3.5
	eng, err := streamrel.Open(streamrel.Config{TraceSampleEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Exec(`CREATE STREAM hits (url varchar, atime timestamp CQTIME USER, client_ip varchar, bytes bigint)`); err != nil {
		t.Fatal(err)
	}
	cq, err := eng.Subscribe(`SELECT url, count(*), sum(bytes) FROM hits <ADVANCE '1 minute'> GROUP BY url`)
	if err != nil {
		t.Fatal(err)
	}
	defer cq.Close()

	cli, ours := net.Pipe()
	defer cli.Close()
	go New(eng).ServeConn(ours)
	frames := make([][]byte, batches+2) // 12.5 s of rows: no window closes
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 2; i < len(frames); i++ {
		send(i)
	}
	runtime.ReadMemStats(&after)
	perBatch := float64(after.Mallocs-before.Mallocs) / batches
	t.Logf("an unkept append of %d rows: %.2f allocations", rows, perBatch)
	if perBatch > deadAppendAllocs && !racing {
		t.Errorf("an unkept append of %d rows allocates %.2f times, want at most %.1f", rows, perBatch, deadAppendAllocs)
	}
}
