package main

import (
	"bufio"
	"io"
	"os"
	"strings"
	"testing"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/server"
	"streamrel/internal/sql"
)

// newEmbedded opens an in-memory engine and a shell served it over a pipe.
func newEmbedded(t *testing.T, out io.Writer) (*shell, *streamrel.Engine) {
	t.Helper()
	eng, err := streamrel.Open(streamrel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, closeAll := embed(eng)
	t.Cleanup(closeAll)
	return &shell{c: c, out: out}, eng
}

func TestLocalBackendExecQuery(t *testing.T) {
	var out strings.Builder
	sh, _ := newEmbedded(t, &out)
	for _, stmt := range []string{
		`CREATE TABLE t (a bigint, s varchar);`,
		`INSERT INTO t VALUES (1, 'x'), (2, 'y');`,
		`SELECT a, s FROM t ORDER BY a;`,
		`SHOW TABLES;`,
	} {
		sh.execute(stmt)
	}
	want := "ok (0 rows affected)\nok (2 rows affected)\na|s\n1|x\n2|y\n(2 rows)\ntables\nt\n(1 rows)\n"
	if got := out.String(); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
	if stats := sh.stats(); !strings.Contains(stats, "streamrel_stream_pipelines|0.0") {
		t.Fatalf("stats: %s", stats)
	}
}

func TestLocalBackendWatch(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sh, eng := newEmbedded(t, w)
	sh.execute(`CREATE STREAM s (v bigint, at timestamp CQTIME USER);`)
	sh.meta(`\watch SELECT count(*) AS n FROM s <ADVANCE '1 minute'>`)
	base := streamrel.MustTimestamp("2009-01-04 00:00:00")
	eng.Append("s", streamrel.Row{streamrel.Int(7), streamrel.Timestamp(base.Add(1))})
	eng.AdvanceTime("s", base.Add(61_000_000_000))

	lines := bufio.NewScanner(r)
	var got []string
	for len(got) < 6 && lines.Scan() {
		got = append(got, lines.Text())
	}
	want := []string{"ok (0 rows affected)", "watching; results print as windows close", "",
		"-- window closed 2009-01-04 00:01:00 (1 rows)", "n", "1"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("watch printed %q, want %q", got, want)
	}
	sh.meta(`\unwatch`)
	if lines.Scan(); lines.Text() != "stopped 1 continuous queries" {
		t.Fatalf("unwatch printed %q", lines.Text())
	}
}

func TestShellExecuteThroughPipe(t *testing.T) {
	r, wpipe, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	sh, _ := newEmbedded(t, wpipe)
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

// TestShowExplainSameConnectedAndEmbedded: SHOW and EXPLAIN print their rows
// whichever way the shell reaches the engine — over TCP as -connect does, or
// served in-process — and print the same bytes both ways.
func TestShowExplainSameConnectedAndEmbedded(t *testing.T) {
	var embedded, connected strings.Builder
	local, eng := newEmbedded(t, &embedded)
	srv := server.New(eng)
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
	defer c.Close()
	remote := &shell{c: c, out: &connected}

	if err := eng.ExecScript(`CREATE STREAM s (url varchar, at timestamp CQTIME USER); CREATE TABLE t (a bigint)`); err != nil {
		t.Fatal(err)
	}
	for _, sh := range []*shell{local, remote} {
		sh.execute(`SHOW TABLES;`)
		sh.execute(`EXPLAIN SELECT url, count(*) FROM s <VISIBLE '1 minute' ADVANCE '10 seconds'> GROUP BY url;`)
	}
	got := connected.String()
	if !strings.HasPrefix(got, "tables\nt\n(1 rows)\n") || strings.Contains(got, "rows affected") ||
		!strings.Contains(got, "state: store") {
		t.Fatalf("over TCP the shell printed:\n%s", got)
	}
	if embedded.String() != got {
		t.Fatalf("embedded printed:\n%s\nconnected printed:\n%s", embedded.String(), got)
	}
}

// TestSplitScript: the split runScript relies on ends a statement at a
// semicolon outside quotes and comments, and finds none in a blank script.
func TestSplitScript(t *testing.T) {
	got, err := sql.ParseScript(`CREATE TABLE t (a bigint); INSERT INTO t VALUES (1); SELECT 'a;b' FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("split into %d: %+v", len(got), got)
	}
	if !strings.Contains(got[2].Text, "a;b") {
		t.Fatalf("semicolon inside quotes split: %q", got[2].Text)
	}
	got, err = sql.ParseScript("-- the shell's script; one statement\nSELECT 1;\n")
	if err != nil || len(got) != 1 {
		t.Fatalf("comment with ' and ; split into %+v: %v", got, err)
	}
	if got, err := sql.ParseScript("  "); err != nil || len(got) != 0 {
		t.Fatalf("blank script: %+v %v", got, err)
	}
}

// TestRunScript: a script splits where the SQL lexer says a statement ends —
// not at a semicolon inside a string or a comment, nor does an apostrophe in a
// comment open a string — and stops at its first error.
func TestRunScript(t *testing.T) {
	var out strings.Builder
	sh, eng := newEmbedded(t, &out)
	for _, script := range []string{
		"",
		"  ",
		`CREATE TABLE t (a bigint, s varchar); INSERT INTO t VALUES (1, 'a;b'); SELECT 'a;b' FROM t`,
		"-- the shell's own script; two statements follow\nINSERT INTO t VALUES (2, 'c');\nINSERT INTO t VALUES (3, 'd');\n",
	} {
		if err := sh.runScript(script); err != nil {
			t.Fatalf("%q: %v", script, err)
		}
	}
	rows, err := eng.Query(`SELECT a, s FROM t ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Data) != 3 || rows.Data[0].String() != "1|a;b" || rows.Data[2].String() != "3|d" {
		t.Fatalf("script left %v", rows.Data)
	}
	if out.String() != "" {
		t.Fatalf("a script printed %q", out.String())
	}
	if err := sh.runScript(`BOGUS STATEMENT;`); err == nil {
		t.Fatal("script error not surfaced")
	}
	if err := sh.runScript(`INSERT INTO t VALUES (4, 'e'); INSERT INTO nope VALUES (1);`); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Fatalf("statement error not surfaced: %v", err)
	}
}
