package main

import (
	"fmt"
	"strings"
	"time"

	"streamrel"
	"streamrel/client"
	"streamrel/internal/metrics"
)

// result is what the shell prints: a header line and formatted rows.
type result struct {
	header   string
	rows     []string
	affected int
}

// watcher is a running continuous query, backend-agnostic.
type watcher struct {
	header string
	next   func() (time.Time, []string, bool)
	stop   func()
}

// backend abstracts a local engine vs a remote server connection.
type backend interface {
	exec(sql string) (*result, error)
	query(sql string) (*result, error)
	watch(sql string) (*watcher, error)
	stats() string
	traces() string
	close()
}

// formatSpan renders one trace span the way both backends print it.
func formatSpan(traceID, stage, stream string, pipe int64, start time.Time, dur time.Duration, rows int, slow bool) string {
	mark := ""
	if slow {
		mark = " SLOW"
	}
	where := stream
	if pipe != 0 {
		where = fmt.Sprintf("%s/%d", stream, pipe)
	}
	return fmt.Sprintf("%s %-13s %-20s %s %10s rows=%d%s",
		traceID, stage, where, start.UTC().Format("15:04:05.000000"), dur, rows, mark)
}

// ------------------------------------------------------------- local

type localBackend struct{ eng *streamrel.Engine }

func (b *localBackend) exec(sqlText string) (*result, error) {
	res, err := b.eng.Exec(sqlText)
	if err != nil {
		return nil, err
	}
	out := &result{affected: res.RowsAffected}
	if res.Rows != nil {
		out.header = header(res.Rows.Columns.Names())
		for _, r := range res.Rows.Data {
			out.rows = append(out.rows, r.String())
		}
	}
	return out, nil
}

func (b *localBackend) query(sqlText string) (*result, error) {
	rows, err := b.eng.Query(sqlText)
	if err != nil {
		return nil, err
	}
	out := &result{header: header(rows.Columns.Names())}
	for _, r := range rows.Data {
		out.rows = append(out.rows, r.String())
	}
	return out, nil
}

func (b *localBackend) watch(sqlText string) (*watcher, error) {
	cq, err := b.eng.Subscribe(sqlText)
	if err != nil {
		return nil, err
	}
	return &watcher{
		header: header(cq.Columns.Names()),
		next: func() (time.Time, []string, bool) {
			batch, ok := cq.Next()
			if !ok {
				return time.Time{}, nil, false
			}
			lines := make([]string, len(batch.Rows))
			for i, r := range batch.Rows {
				lines[i] = r.String()
			}
			return batch.Close, lines, true
		},
		stop: cq.Close,
	}, nil
}

// stats prints what remoteBackend.stats prints — client.Stats is the same
// metrics.Flatten over the same registry — so \stats shows one thing
// local and remote.
func (b *localBackend) stats() string {
	points := metrics.Flatten(b.eng.Metrics().Gather())
	lines := make([]string, len(points))
	for i, p := range points {
		lines[i] = streamrel.Row{streamrel.String(p.Name + p.Labels), streamrel.Float(p.Value)}.String()
	}
	return strings.Join(lines, "\n")
}

func (b *localBackend) traces() string {
	spans := b.eng.Traces()
	if len(spans) == 0 {
		return "no spans recorded (tracing disabled, or nothing sampled yet)"
	}
	lines := make([]string, len(spans))
	for i, s := range spans {
		lines[i] = formatSpan(fmt.Sprintf("%016x", s.Trace), string(s.Stage), s.Stream,
			s.Pipe, time.UnixMicro(s.Start), time.Duration(s.Dur), s.Rows, s.Slow)
	}
	return strings.Join(lines, "\n")
}

func (b *localBackend) close() { b.eng.Close() }

// ------------------------------------------------------------- remote

type remoteBackend struct{ c *client.Client }

func (b *remoteBackend) exec(sqlText string) (*result, error) {
	n, err := b.c.Exec(sqlText)
	if err != nil {
		return nil, err
	}
	return &result{affected: n}, nil
}

func (b *remoteBackend) query(sqlText string) (*result, error) {
	rows, err := b.c.Query(sqlText)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(rows.Columns))
	for i, c := range rows.Columns {
		names[i] = c.Name
	}
	out := &result{header: header(names)}
	for _, r := range rows.Data {
		out.rows = append(out.rows, r.String())
	}
	return out, nil
}

func (b *remoteBackend) watch(sqlText string) (*watcher, error) {
	sub, err := b.c.Subscribe(sqlText)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(sub.Columns))
	for i, c := range sub.Columns {
		names[i] = c.Name
	}
	return &watcher{
		header: header(names),
		next: func() (time.Time, []string, bool) {
			batch, ok := <-sub.C
			if !ok {
				return time.Time{}, nil, false
			}
			lines := make([]string, len(batch.Rows))
			for i, r := range batch.Rows {
				lines[i] = r.String()
			}
			return batch.Close, lines, true
		},
		stop: func() { sub.Close() },
	}, nil
}

func (b *remoteBackend) stats() string {
	rows, err := b.c.Stats()
	if err != nil {
		return fmt.Sprintf("stats: %v", err)
	}
	lines := make([]string, len(rows.Data))
	for i, r := range rows.Data {
		lines[i] = r.String()
	}
	return strings.Join(lines, "\n")
}

func (b *remoteBackend) traces() string {
	spans, err := b.c.Traces()
	if err != nil {
		return fmt.Sprintf("trace: %v", err)
	}
	if len(spans) == 0 {
		return "no spans recorded (tracing disabled, or nothing sampled yet)"
	}
	lines := make([]string, len(spans))
	for i, s := range spans {
		lines[i] = formatSpan(s.Trace, s.Stage, s.Stream, s.Pipe, s.Start, s.Dur, s.Rows, s.Slow)
	}
	return strings.Join(lines, "\n")
}

func (b *remoteBackend) close() { b.c.Close() }

func header(names []string) string { return strings.Join(names, "|") }
