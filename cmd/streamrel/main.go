// Command streamrel is an interactive SQL shell for the stream-relational
// engine — embedded (default) or connected to a streamreld server.
//
// Meta-commands:
//
//	\q                  quit
//	\watch <select>     start a continuous query printing batches as they close
//	\unwatch            stop all continuous queries
//	\stats              every metric series as (metric, value) rows, the same local and remote
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
	"os"
	"strings"
	"time"

	"streamrel"
	"streamrel/client"
)

func main() {
	dir := flag.String("dir", "", "data directory (empty = in-memory)")
	file := flag.String("f", "", "execute a SQL script before the prompt")
	batch := flag.Bool("batch", false, "exit after executing -f")
	connect := flag.String("connect", "", "connect to a streamreld server instead of embedding an engine")
	flag.Parse()

	var be backend
	if *connect != "" {
		c, err := client.Dial(*connect)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		be = &remoteBackend{c: c}
	} else {
		// The embedded shell runs sysmon so \sys works out of the box.
		eng, err := streamrel.Open(streamrel.Config{Dir: *dir, SysMonInterval: time.Second})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		be = &localBackend{eng: eng}
	}
	defer be.close()

	sh := &shell{be: be, out: os.Stdout}
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := sh.runScript(string(data)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *batch {
			return
		}
	}
	sh.repl(os.Stdin)
}

type shell struct {
	be      backend
	out     *os.File
	watches []*watcher
}

func (sh *shell) repl(in *os.File) {
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
		fmt.Fprintln(sh.out, sh.be.stats())
	case cmd == "\\trace":
		fmt.Fprintln(sh.out, sh.be.traces())
	case cmd == "\\unwatch":
		for _, w := range sh.watches {
			w.stop()
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

// startWatch starts a continuous query and prints batches as they close.
func (sh *shell) startWatch(sqlText string) {
	w, err := sh.be.watch(sqlText)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	sh.watches = append(sh.watches, w)
	go func() {
		for {
			close, rows, ok := w.next()
			if !ok {
				return
			}
			fmt.Fprintf(sh.out, "\n-- window closed %s (%d rows)\n%s\n",
				close.Format("2006-01-02 15:04:05"), len(rows), w.header)
			for _, r := range rows {
				fmt.Fprintln(sh.out, r)
			}
		}
	}()
	fmt.Fprintln(sh.out, "watching; results print as windows close")
}

func (sh *shell) execute(sqlText string) {
	trimmed := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sqlText), ";"))
	if trimmed == "" {
		return
	}
	if strings.HasPrefix(strings.ToUpper(trimmed), "SELECT") {
		res, err := sh.be.query(trimmed)
		if err != nil {
			if strings.Contains(err.Error(), "never terminates") {
				fmt.Fprintln(sh.out, "this is a continuous query; start it with \\watch <select>")
				return
			}
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
		sh.print(res)
		return
	}
	res, err := sh.be.exec(trimmed)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	if res.header != "" {
		sh.print(res)
		return
	}
	fmt.Fprintf(sh.out, "ok (%d rows affected)\n", res.affected)
}

// runScript executes a semicolon-separated script statement by statement
// so it works against both backends.
func (sh *shell) runScript(script string) error {
	for _, stmt := range splitScript(script) {
		upper := strings.ToUpper(strings.TrimSpace(stmt))
		if upper == "" {
			continue
		}
		var err error
		if strings.HasPrefix(upper, "SELECT") {
			_, err = sh.be.query(stmt)
		} else {
			_, err = sh.be.exec(stmt)
		}
		if err != nil {
			return fmt.Errorf("%q: %w", stmt, err)
		}
	}
	return nil
}

// splitScript splits on semicolons outside of quotes — adequate for
// scripts this shell feeds to the engine statement by statement.
func splitScript(script string) []string {
	var out []string
	var b strings.Builder
	inStr := false
	for i := 0; i < len(script); i++ {
		c := script[i]
		switch {
		case c == '\'':
			inStr = !inStr
			b.WriteByte(c)
		case c == ';' && !inStr:
			out = append(out, b.String())
			b.Reset()
		default:
			b.WriteByte(c)
		}
	}
	if strings.TrimSpace(b.String()) != "" {
		out = append(out, b.String())
	}
	return out
}

func (sh *shell) print(res *result) {
	fmt.Fprintln(sh.out, res.header)
	for _, r := range res.rows {
		fmt.Fprintln(sh.out, r)
	}
	fmt.Fprintf(sh.out, "(%d rows)\n", len(res.rows))
}
