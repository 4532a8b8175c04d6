package streamrel

import (
	"fmt"
	"strings"
	"time"

	"streamrel/internal/exec"
	"streamrel/internal/plan"
	"streamrel/internal/sql"
)

// execExplain reports what the planner decided for a statement: snapshot
// vs continuous, the windowed stream, where its window state lives, and
// the output schema. (Operator-level plan trees are an
// implementation detail; this surfaces the decisions that matter in this
// architecture.)
func (e *Engine) execExplain(s *sql.Explain) (*Result, error) {
	sel, ok := s.Stmt.(*sql.Select)
	if !ok {
		return nil, fmt.Errorf("streamrel: EXPLAIN supports SELECT")
	}
	p, err := e.planner.BuildSelect(sel)
	if err != nil {
		return nil, err
	}
	if s.Analyze {
		return e.execExplainAnalyze(p)
	}
	var lines []string
	if p.Stream == nil {
		lines = append(lines, "Snapshot Query (SQ): runs once over an MVCC snapshot")
		if s.Params > 0 { // the tree the plan cache keeps (DESIGN §11 "The plan cache")
			_, stats := exec.Instrument(p.Build(&plan.Input{}))
			lines = append(lines, "  generic plan ($n read at Open):")
			for _, st := range stats {
				lines = append(lines, strings.Repeat("  ", st.Depth+2)+strings.TrimSpace(st.Name+" "+st.Detail))
			}
		}
	} else {
		lines = append(lines, "Continuous Query (CQ): runs per window close")
		lines = append(lines, fmt.Sprintf("  stream: %s %s", p.Stream.Name, p.Stream.Window.String()))
		// mode is the one-word strategy sys.pipelines.mode and the
		// window-fire span carry; state says where the window lives. The
		// member count is the store's current one: this CQ would add one.
		key, reason := p.WindowState(e.cfg.StateOverride)
		lines = append(lines, "  mode: "+plan.Mode(key))
		if key == "" {
			lines = append(lines, "  state: reexec ("+reason+")")
		} else {
			store := key
			if pre := p.StreamAgg.PreAgg; pre != "" {
				store += " " + pre
			}
			lines = append(lines, fmt.Sprintf("  state: store %s view %s (materialized), %d members", store,
				time.Duration(p.Stream.Window.Visible)*time.Microsecond, e.rt.StoreMembers(p.Stream.Name, key)))
			lines = append(lines, "  post: "+postStage(p.StreamAgg))
		}
		if e.cfg.ParallelCQ > 0 {
			lines = append(lines, fmt.Sprintf("  sched: pool (%d workers, mailbox bound %d)",
				e.rt.SchedWorkers(), e.cfg.ParallelCQ))
		} else {
			lines = append(lines, "  sched: synchronous (producer-driven)")
		}
		if p.CloseCol >= 0 {
			lines = append(lines, fmt.Sprintf("  cq_close(*) output column: %d", p.CloseCol+1))
		}
	}
	lines = append(lines, "  output: "+p.Columns.String())
	return textResult("plan", lines), nil
}

// postStage names what runs over a store-backed CQ's rows at every close,
// in the order it runs, read off the operator tree itself: a project or a
// join makes new rows, a filter, sort or limit passes the view's on.
func postStage(agg *plan.StreamAgg) string {
	if agg.PostBuild == nil {
		return "none (view rows delivered as emitted)"
	}
	_, stats := exec.Instrument(agg.PostBuild(&plan.Input{}))
	var ops []string
	for i := len(stats) - 1; i >= 0; i-- {
		if name := stats[i].Name; name != "Relation" {
			ops = append(ops, strings.ToLower(name))
		}
	}
	return strings.Join(ops, ", ")
}

// execExplainAnalyze executes a snapshot query with every operator
// instrumented and reports the tree with per-operator row counts and
// inclusive wall times — the executor-level observability that per-window
// CQ metrics (streamrel_window_fire_seconds) aggregate over time.
func (e *Engine) execExplainAnalyze(p *plan.Plan) (*Result, error) {
	if p.Stream != nil {
		return nil, fmt.Errorf("streamrel: EXPLAIN ANALYZE runs the query once, so it supports snapshot queries; continuous queries report per-window metrics instead (STATS, /metrics)")
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	ctx := e.execCtx()
	start := time.Now()
	root, stats := exec.Instrument(p.Build(&plan.Input{}))
	out, err := exec.Drain(ctx, root, 0)
	if err != nil {
		return nil, err
	}
	total := time.Since(start)
	lines := []string{"Snapshot Query (SQ): executed"}
	for _, st := range stats {
		lines = append(lines, fmt.Sprintf("%s%s  (rows=%d, time=%s)",
			strings.Repeat("  ", st.Depth+1), st.Name, st.Rows, st.Elapsed.Round(time.Microsecond)))
	}
	lines = append(lines, fmt.Sprintf("  output: %d rows in %s", len(out), total.Round(time.Microsecond)))
	return textResult("plan", lines), nil
}
