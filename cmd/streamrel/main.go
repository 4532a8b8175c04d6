// Command streamrel is an interactive SQL shell for the stream-relational
// engine — embedded (default) or connected to a streamreld server. Either
// way it speaks the client protocol: the embedded engine is served to it
// over an in-process pipe, with no port opened.
//
// Meta-commands:
//
//	\q                  quit
//	\watch <select>     start a continuous query printing batches as they close
//	\unwatch            stop all continuous queries
//	\stats              every metric series as (metric, value) rows
//	\trace              completed trace spans (sampled end-to-end event traces)
//	\sys                list the engine's sys.* telemetry streams
//	\sys <stream>       watch a sys.* stream (5-second tumbling window)
//	\help               this text
//
// Usage:
//
//	streamrel [-dir data/] [-f script.sql] [-batch]
//	streamrel -connect 127.0.0.1:7475
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/server"
	"streamrel/internal/sql"
)

func main() {
	dir := flag.String("dir", "", "data directory (empty = in-memory)")
	file := flag.String("f", "", "execute a SQL script before the prompt")
	batch := flag.Bool("batch", false, "exit after executing -f")
	connect := flag.String("connect", "", "connect to a streamreld server instead of embedding an engine")
	flag.Parse()
	if err := run(*dir, *file, *batch, *connect); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(dir, file string, batch bool, connect string) error {
	var c *client.Client
	var closeAll func()
	if connect != "" {
		var err error
		if c, err = client.Dial(connect); err != nil {
			return err
		}
		closeAll = func() { c.Close() }
	} else {
		// The embedded shell runs sysmon so \sys works out of the box.
		eng, err := streamrel.Open(streamrel.Config{Dir: dir, SysMonInterval: time.Second})
		if err != nil {
			return err
		}
		c, closeAll = embed(eng)
	}
	defer closeAll()

	sh := &shell{c: c, out: os.Stdout}
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		if err := sh.runScript(string(data)); err != nil {
			return err
		}
		if batch {
			return nil
		}
	}
	sh.repl(os.Stdin)
	return nil
}

// embed serves eng to a client over an in-process pipe. The returned func
// closes the client, waits for the session to end, then closes the engine,
// so a durable engine's log closes after the last statement it ran.
func embed(eng *streamrel.Engine) (*client.Client, func()) {
	ours, theirs := net.Pipe()
	done := make(chan struct{})
	go func() {
		server.New(eng).ServeConn(theirs)
		close(done)
	}()
	c := client.New(ours, "", client.Options{})
	return c, func() {
		c.Close()
		<-done
		eng.Close()
	}
}

type shell struct {
	c       *client.Client
	out     io.Writer
	watches []*client.Subscription
}

func (sh *shell) repl(in io.Reader) {
	fmt.Fprintln(sh.out, "streamrel — stream-relational SQL (Continuous Analytics, CIDR 2009). \\help for help.")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "streamrel> "
	for {
		fmt.Fprint(sh.out, prompt)
		if !scanner.Scan() {
			return
		}
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !sh.meta(trimmed) {
				return
			}
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			sh.execute(buf.String())
			buf.Reset()
			prompt = "streamrel> "
		} else if buf.Len() > 0 {
			prompt = "      ...> "
		}
	}
}

// meta handles backslash commands; it returns false to quit.
func (sh *shell) meta(cmd string) bool {
	switch {
	case cmd == "\\q" || cmd == "\\quit":
		return false
	case cmd == "\\help":
		fmt.Fprintln(sh.out, `\q quit · \watch <select> start CQ · \unwatch stop CQs · \stats counters · \trace spans · \sys [stream] telemetry`)
	case cmd == "\\stats":
		fmt.Fprintln(sh.out, sh.stats())
	case cmd == "\\trace":
		fmt.Fprintln(sh.out, sh.traces())
	case cmd == "\\unwatch":
		for _, w := range sh.watches {
			w.Close()
		}
		fmt.Fprintf(sh.out, "stopped %d continuous queries\n", len(sh.watches))
		sh.watches = nil
	case strings.HasPrefix(cmd, "\\watch "):
		sh.startWatch(strings.TrimPrefix(cmd, "\\watch "))
	case cmd == "\\sys":
		fmt.Fprintln(sh.out, `sys.* telemetry streams (engine-created, ephemeral, CQTIME SYSTEM):
  sys.metrics     every registry series per snapshot (ts, name, labels, kind, value)
  sys.pipelines   per-pipeline counters (source, windows_fired, rows_seen, queue_depth, mode)
  sys.slow_fires  slow window fires from the trace ring
  sys.repl        replication role, LSN and lag
\sys <stream> tails one; a CQ over them is an alerting rule, e.g.
  \watch SELECT name, max(value) FROM sys.metrics <ADVANCE '5 seconds'> GROUP BY name`)
	case strings.HasPrefix(cmd, "\\sys "):
		name := strings.TrimSpace(strings.TrimPrefix(cmd, "\\sys "))
		if !strings.HasPrefix(name, "sys.") {
			name = "sys." + name
		}
		sh.startWatch(fmt.Sprintf("SELECT * FROM %s <ADVANCE '5 seconds'>", name))
	default:
		fmt.Fprintln(sh.out, "unknown meta-command; \\help for help")
	}
	return true
}

// stats prints every metric series as a (metric, value) row, with no header.
func (sh *shell) stats() string {
	rows, err := sh.c.Stats()
	if err != nil {
		return fmt.Sprintf("stats: %v", err)
	}
	lines := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		lines[i] = r.String()
	}
	return strings.Join(lines, "\n")
}

func (sh *shell) traces() string {
	spans, err := sh.c.Traces()
	if err != nil {
		return fmt.Sprintf("trace: %v", err)
	}
	if len(spans) == 0 {
		return "no spans recorded (tracing disabled, or nothing sampled yet)"
	}
	lines := make([]string, len(spans))
	for i, s := range spans {
		mark := ""
		if s.Slow {
			mark = " SLOW"
		}
		where := s.Stream
		if s.Pipe != 0 {
			where = fmt.Sprintf("%s/%d", s.Stream, s.Pipe)
		}
		lines[i] = fmt.Sprintf("%s %-13s %-20s %s %10s rows=%d%s",
			s.Trace, s.Stage, where, s.Start.Format("15:04:05.000000"), s.Dur, s.Rows, mark)
	}
	return strings.Join(lines, "\n")
}

// startWatch starts a continuous query and prints batches as they close.
func (sh *shell) startWatch(sqlText string) {
	w, err := sh.c.Subscribe(sqlText)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	sh.watches = append(sh.watches, w)
	go func() {
		for b := range w.C {
			fmt.Fprintf(sh.out, "\n-- window closed %s (%d rows)\n%s\n",
				b.Close.Format("2006-01-02 15:04:05"), len(b.Rows), header(w.WireColumns))
			for _, r := range b.Rows {
				fmt.Fprintln(sh.out, r.String())
			}
		}
	}()
	fmt.Fprintln(sh.out, "watching; results print as windows close")
}

// run sends one statement: a SELECT as a snapshot query, anything else as
// exec, whose answer carries rows too for SHOW and EXPLAIN.
func (sh *shell) run(sqlText string) (*server.Response, error) {
	op := "exec"
	if strings.HasPrefix(strings.ToUpper(sqlText), "SELECT") {
		op = "query"
	}
	return sh.c.Do(&server.Request{Op: op, SQL: sqlText})
}

func (sh *shell) execute(sqlText string) {
	trimmed := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sqlText), ";"))
	if trimmed == "" {
		return
	}
	resp, err := sh.run(trimmed)
	switch {
	case err != nil && strings.Contains(err.Error(), "never terminates"):
		fmt.Fprintln(sh.out, "this is a continuous query; start it with \\watch <select>")
	case err != nil:
		fmt.Fprintln(sh.out, "error:", err)
	case len(resp.Columns) > 0:
		rows := server.Rows(resp.Rows)
		fmt.Fprintln(sh.out, header(resp.Columns))
		for _, r := range rows {
			fmt.Fprintln(sh.out, r.String())
		}
		fmt.Fprintf(sh.out, "(%d rows)\n", len(rows))
	default:
		fmt.Fprintf(sh.out, "ok (%d rows affected)\n", resp.Affected)
	}
}

// runScript executes a script statement by statement, stopping at the
// first error.
func (sh *shell) runScript(script string) error {
	stmts, err := sql.ParseScript(script)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if _, err := sh.run(st.Text); err != nil {
			return fmt.Errorf("%q: %w", st.Text, err)
		}
	}
	return nil
}

func header(cols []server.WireColumn) string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return strings.Join(names, "|")
}
