package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"streamrel"
	"streamrel/internal/server/wiretest"
)

// pipeSession serves one in-memory connection and returns the client end.
func pipeSession(t *testing.T) (net.Conn, *Server) {
	t.Helper()
	eng, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng)
	cli, ours := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(ours)
		close(done)
	}()
	t.Cleanup(func() {
		cli.Close()
		<-done
		eng.Close()
	})
	return cli, srv
}

// TestWireTranscript plays the frozen session against the server's front
// door; internal/shard plays the same one through the router.
func TestWireTranscript(t *testing.T) {
	conn, _ := pipeSession(t)
	wiretest.Run(t, conn, wiretest.Transcript("server"))
}

// TestOversizedFrame sends a line of twice the cap. The server must answer
// with one error frame and close, having buffered no more than the cap.
func TestOversizedFrame(t *testing.T) {
	conn, _ := pipeSession(t)
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	go func() {
		chunk := bytes.Repeat([]byte{'['}, 1<<20)
		for sent := 0; sent < 2*MaxFrameBytes; sent += len(chunk) {
			if _, err := conn.Write(chunk); err != nil {
				return // the server stopped reading at the cap, as it should
			}
		}
	}()
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no error frame: %v", err)
	}
	if want := `{"error":"` + ErrFrameTooLarge.Error() + `"}` + "\n"; line != want {
		t.Fatalf("got %q, want %q", line, want)
	}
}

func TestFrameReader(t *testing.T) {
	long := `{"op":"` + strings.Repeat("x", 3*readBufBytes) + `"}`
	in := "\n  \r\n" + `{"id":1}` + "\r\n" + long + "\n\n" + `{"id":2}`
	fr := NewFrameReader(strings.NewReader(in))
	for i, want := range []string{`{"id":1}` + "\r", long, `{"id":2}`} {
		got, err := fr.next()
		if err != nil || string(got) != want {
			t.Fatalf("frame %d: got %.40q (%d bytes), %v; want %.40q (%d bytes)", i, got, len(got), err, want, len(want))
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}

	// Exactly the cap passes; one byte more does not, newline or no newline.
	atCap := strings.Repeat(" ", MaxFrameBytes-2) + "{}"
	if got, err := NewFrameReader(strings.NewReader(atCap + "\n")).next(); err != nil || len(got) != MaxFrameBytes {
		t.Fatalf("frame of exactly the cap: %d bytes, %v", len(got), err)
	}
	for _, tail := range []string{"\n", ""} {
		if _, err := NewFrameReader(strings.NewReader(" " + atCap + tail)).next(); err != ErrFrameTooLarge {
			t.Fatalf("frame one over the cap (tail %q): %v, want ErrFrameTooLarge", tail, err)
		}
	}
}

// TestUnencodableResponse: a response over the cap is replaced by an error
// frame under the same id, and the connection keeps serving.
func TestUnencodableResponse(t *testing.T) {
	cli, ours := net.Pipe()
	defer cli.Close()
	fw := NewFrameWriter(ours, 0)
	go func() {
		big := &Response{ID: 7, OK: true, Error: strings.Repeat("x", MaxFrameBytes)}
		fw.WriteResponse(big)
		fw.WriteResponse(&Response{ID: 8, OK: true})
		ours.Close()
	}()
	got, err := io.ReadAll(cli)
	want := `{"id":7,"error":"server: cannot encode frame: frame exceeds 67108864 bytes"}` + "\n" + `{"id":8,"ok":true}` + "\n"
	if err != nil || string(got) != want {
		t.Fatalf("got %.200q, %v; want %q", got, err, want)
	}
}

// TestDeeplyNestedSQLAnswersAnError: a query nested a million deep is one
// 2 MB frame, far inside MaxFrameBytes, and used to overflow the parser's
// stack — the whole process gone, every connection with it. It is answered
// with an error frame under its id, and the connection keeps serving.
func TestDeeplyNestedSQLAnswersAnError(t *testing.T) {
	conn, _ := pipeSession(t)
	conn.SetDeadline(time.Now().Add(60 * time.Second))
	const depth = 1_000_000
	go func() {
		io.WriteString(conn, `{"id":1,"op":"query","sql":"SELECT `+strings.Repeat("(", depth)+"1"+strings.Repeat(")", depth)+`"}`+"\n")
		io.WriteString(conn, `{"id":2,"op":"query","sql":"SELECT ((1))"}`+"\n")
	}()
	r := bufio.NewReader(conn)
	line, err := r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, `{"id":1,"error":"sql: statement nests deeper than 10000 levels`) {
		t.Fatalf("got %.200q, %v; want an error frame naming the nesting limit", line, err)
	}
	if line, err = r.ReadString('\n'); err != nil || !strings.Contains(line, `"id":2`) || strings.Contains(line, `"error"`) {
		t.Fatalf("after the refused query the connection answered %.200q, %v", line, err)
	}
}
