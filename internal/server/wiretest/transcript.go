// Package wiretest holds the frozen wire transcript that every front door
// speaking the client protocol must reproduce byte for byte. It drives a
// session as raw lines, below the client package, so the frame reader, the
// codec and the session loop are exercised exactly as a foreign client
// would exercise them.
package wiretest

import (
	"bufio"
	"io"
	"net"
	"sort"
	"strings"
	"testing"
	"time"
)

// Step is one request line and the lines it must produce. A step with
// several lines (a response beside an asynchronous batch) accepts them in
// either order.
type Step struct {
	Send string
	Want []string
}

// Transcript is one session: exec → query → subscribe → append → advance
// (→ batch) → unsubscribe → unknown op → malformed line. who is the front
// door's error prefix ("server" or "router"). The lines up to the
// malformed one are what the reflective encoding/json codec answered at
// the commit before the hand-written kernel; the last step was a silent
// close then and is an error frame now.
func Transcript(who string) []Step {
	return []Step{
		{`{"id":1,"op":"exec","sql":"CREATE STREAM s (v bigint, tag varchar, at timestamp CQTIME USER)"}`,
			[]string{`{"id":1,"ok":true}`}},
		{`{"id":2,"op":"query","sql":"SELECT 1 + 1 AS two, 'a<b' AS s, 2.5 AS f, NULL AS n"}`,
			[]string{`{"id":2,"ok":true,"columns":[{"name":"two","type":"BIGINT"},{"name":"s","type":"VARCHAR"},{"name":"f","type":"DOUBLE"},{"name":"n","type":"NULL"}],"rows":[[{"i":2},{"s":"a\u003cb"},{"f":2.5},null]]}`}},
		{`{"id":3,"op":"subscribe","sql":"SELECT count(*) AS n, sum(v) AS total, max(tag) AS top FROM s <ADVANCE '1 minute'>"}`,
			[]string{`{"id":3,"ok":true,"columns":[{"name":"n","type":"BIGINT"},{"name":"total","type":"BIGINT"},{"name":"top","type":"VARCHAR"}],"cq":1}`}},
		{`{"id":4,"op":"append","stream":"s","rows":[[{"i":1},{"s":"x"},{"ts":1000000}],[{"i":2},null,{"ts":2000000}]]}`,
			[]string{`{"id":4,"ok":true,"affected":2}`}},
		{` { "op" : "advance" , "ts" : 61000000 , "ignored" : [ { "a" : null } ] , "stream" : "s" , "id" : 5 } `,
			[]string{`{"id":5,"ok":true}`, `{"rows":[[{"i":2},{"i":3},{"s":"x"}]],"cq":1,"close":60000000,"batch":true}`}},
		{`{"id":6,"op":"unsubscribe","cq":1}`,
			[]string{`{"id":6,"ok":true}`}},
		{`{"id":7,"op":"nope"}`,
			[]string{`{"id":7,"error":"` + who + `: unknown op \"nope\""}`}},
		{`{"id":8,"op":"ping"`,
			[]string{`{"error":"server: malformed request: expected ',' or '}' at offset 19"}`}},
	}
}

// Run plays steps over conn and fails t on the first line that differs;
// after the last step the peer must have closed the connection.
func Run(t *testing.T, conn net.Conn, steps []Step) {
	t.Helper()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for i, st := range steps {
		if _, err := io.WriteString(conn, st.Send+"\n"); err != nil {
			t.Fatalf("step %d: write: %v", i+1, err)
		}
		got := make([]string, len(st.Want))
		for j := range got {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("step %d: read line %d of %d: %v (have %q)", i+1, j+1, len(got), err, got[:j])
			}
			got[j] = strings.TrimSuffix(line, "\n")
		}
		want := append([]string(nil), st.Want...)
		sort.Strings(got)
		sort.Strings(want)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("step %d (%s):\n got %s\nwant %s", i+1, st.Send, got[j], want[j])
			}
		}
	}
	if line, err := br.ReadString('\n'); err != io.EOF {
		t.Fatalf("after the malformed frame: got %q, %v; want the connection closed", line, err)
	}
}
