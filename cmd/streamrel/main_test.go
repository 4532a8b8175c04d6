package main

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/server"
)

func TestSplitScript(t *testing.T) {
	got := splitScript(`CREATE TABLE t (a bigint); INSERT INTO t VALUES (1); SELECT 'a;b' FROM t`)
	if len(got) != 3 {
		t.Fatalf("split into %d: %q", len(got), got)
	}
	if !strings.Contains(got[2], "a;b") {
		t.Fatalf("semicolon inside quotes split: %q", got[2])
	}
	if len(splitScript("  ")) != 0 {
		t.Fatal("blank script")
	}
}

func newLocal(t *testing.T) backend {
	t.Helper()
	eng, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b := &localBackend{eng: eng}
	t.Cleanup(b.close)
	return b
}

func TestLocalBackendExecQuery(t *testing.T) {
	b := newLocal(t)
	if _, err := b.exec(`CREATE TABLE t (a bigint, s varchar)`); err != nil {
		t.Fatal(err)
	}
	res, err := b.exec(`INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
	if err != nil || res.affected != 2 {
		t.Fatalf("%+v %v", res, err)
	}
	q, err := b.query(`SELECT a, s FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if q.header != "a|s" || len(q.rows) != 2 || q.rows[0] != "1|x" {
		t.Fatalf("%+v", q)
	}
	// SHOW produces rows through exec.
	res, err = b.exec(`SHOW TABLES`)
	if err != nil || len(res.rows) != 1 || res.rows[0] != "t" {
		t.Fatalf("%+v %v", res, err)
	}
	if !strings.Contains(b.stats(), "streamrel_stream_pipelines|0.0") {
		t.Fatalf("stats: %s", b.stats())
	}
}

// TestStatsSameLocalAndRemote: \stats prints one thing — the flattened
// registry — whether the shell embeds the engine or connects to it.
func TestStatsSameLocalAndRemote(t *testing.T) {
	local := newLocal(t).(*localBackend)
	srv := server.New(local.eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer srv.Close()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	remote := &remoteBackend{c: c}
	defer remote.close()

	series := func(out string) []string {
		var names []string
		for _, line := range strings.Split(out, "\n") {
			names = append(names, line[:strings.LastIndexByte(line, '|')])
		}
		return names
	}
	remote.stats() // from here on the metrics op's own histogram has an observation
	r, l := series(remote.stats()), series(local.stats())
	if len(l) < 10 || !reflect.DeepEqual(r, l) {
		t.Fatalf("series differ:\nremote %q\nlocal  %q", r, l)
	}
}

func TestLocalBackendWatch(t *testing.T) {
	b := newLocal(t)
	if _, err := b.exec(`CREATE STREAM s (v bigint, at timestamp CQTIME USER)`); err != nil {
		t.Fatal(err)
	}
	w, err := b.watch(`SELECT count(*) FROM s <ADVANCE '1 minute'>`)
	if err != nil {
		t.Fatal(err)
	}
	lb := b.(*localBackend)
	base := streamrel.MustTimestamp("2009-01-04 00:00:00")
	lb.eng.Append("s", streamrel.Row{streamrel.Int(7), streamrel.Timestamp(base.Add(1))})
	lb.eng.AdvanceTime("s", base.Add(61_000_000_000))
	close, rows, ok := w.next()
	if !ok || len(rows) != 1 || rows[0] != "1" {
		t.Fatalf("watch: %v %v %v", close, rows, ok)
	}
	w.stop()
}

func TestShellExecuteThroughPipe(t *testing.T) {
	b := newLocal(t)
	r, wpipe, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	sh := &shell{be: b, out: wpipe}
	sh.execute(`CREATE TABLE t (a bigint);`)
	sh.execute(`INSERT INTO t VALUES (42);`)
	sh.execute(`SELECT a FROM t;`)
	sh.execute(`SELECT broken FROM t;`)
	wpipe.Close()
	buf := make([]byte, 1<<16)
	n, _ := r.Read(buf)
	out := string(buf[:n])
	for _, want := range []string{"ok (0 rows affected)", "ok (1 rows affected)", "42", "(1 rows)", "error:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunScript(t *testing.T) {
	b := newLocal(t)
	sh := &shell{be: b, out: os.Stdout}
	err := sh.runScript(`
		CREATE TABLE t (a bigint);
		INSERT INTO t VALUES (1);
		SELECT a FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.runScript(`BOGUS STATEMENT;`); err == nil {
		t.Fatal("script error not surfaced")
	}
}
