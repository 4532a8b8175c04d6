package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streamrel/internal/exec"
	"streamrel/internal/trace"
	"streamrel/internal/types"
)

// Plan-level sharing: continuous queries whose plans are identical after
// canonicalization — or subsumed: same stream, window and slice
// fingerprint with a per-subscriber residual filter/projection — register
// as subscribers of ONE shared host pipeline instead of spawning their
// own. The host owns the window state (incremental IVM state when the
// plan is delta-eligible, shared slice partials otherwise) and, at each
// window close, computes the merged aggregate rows once; subscribers are
// grouped by their post-stage key (residual filters, HAVING, projection,
// ORDER BY, LIMIT) and each distinct post stage runs once, its output
// delivered to every subscriber in that set. 10k identical dashboards
// therefore maintain one delta state and execute one plan per fire —
// per-CQ cost is one sink call — while subsumed variants add only their
// own post stage.
//
// Subscribers ("members") are not in the source fan-out list: they see no
// row delivery, hold no buffers and get no mailbox, so ingest cost does
// not scale with membership. Member sinks run on whatever goroutine fires
// the host (whoever drains its mailbox: the producer or a pool worker);
// rows in a delivered batch are shared across the
// set's members and must be treated as immutable.
type planGroup struct {
	key  string
	host *Pipeline

	// mu serializes fanout against attach/detach, so unsubscribing one
	// member never races a fire delivering to it.
	mu   sync.Mutex
	sets []*postSet
	n    atomic.Int64 // member count, readable without mu

	// outs is fanout's per-fire scratch (guarded by mu).
	outs []setOut
}

// postSet is the subscribers sharing one canonical post stage.
type postSet struct {
	key     string
	members []*Pipeline
	run     []*Pipeline // per-fire scratch: live members (guarded by group mu)
}

type setOut struct {
	out []types.Row
	run []*Pipeline
}

// planGroupKey identifies one shared pipeline: slice fingerprint plus the
// exact window geometry (members share window state, so the window must
// match exactly — unlike slice sharing, which only requires ADVANCE).
func planGroupKey(fp string, advance, visible int64) string {
	return fmt.Sprintf("%s@%d/%d", fp, advance, visible)
}

func (g *planGroup) attach(m *Pipeline, postKey string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, s := range g.sets {
		if s.key == postKey {
			s.members = append(s.members, m)
			g.n.Add(1)
			return
		}
	}
	g.sets = append(g.sets, &postSet{key: postKey, members: []*Pipeline{m}})
	g.n.Add(1)
}

func (g *planGroup) detach(m *Pipeline) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for si, s := range g.sets {
		for i, x := range s.members {
			if x == m {
				last := len(s.members) - 1
				s.members[i] = s.members[last]
				s.members[last] = nil
				s.members = s.members[:last]
				if len(s.members) == 0 {
					g.sets = append(g.sets[:si], g.sets[si+1:]...)
				}
				g.n.Add(-1)
				return
			}
		}
	}
}

// clearMembers empties the group (host failure cascade) and returns the
// orphaned members.
func (g *planGroup) clearMembers() []*Pipeline {
	g.mu.Lock()
	defer g.mu.Unlock()
	var ms []*Pipeline
	for _, s := range g.sets {
		ms = append(ms, s.members...)
	}
	g.sets = nil
	g.n.Store(0)
	return ms
}

// fireGroup is the host's window close: compute the merged aggregate rows
// once from the host's state, then fan the post stages out to members.
func (p *Pipeline) fireGroup(g *planGroup, c int64) error {
	if p.ivm != nil {
		aggRows, touched, err := p.ivm.Fire()
		if err != nil {
			return err
		}
		if p.ivmTouched != nil {
			p.ivmTouched.Add(int64(touched))
		}
		if err := g.fanout(p, c, aggRows, true); err != nil {
			return err
		}
		return p.ivm.Expire(c + p.win.Advance - p.win.Visible)
	}
	if p.shared != nil {
		aggRows, err := p.shared.windowRows(c, p.win.Visible)
		if err != nil {
			return err
		}
		return g.fanout(p, c, aggRows, false)
	}
	return fmt.Errorf("stream: plan-group host has no shared window state")
}

// fanout runs one post stage per distinct PostKey over the host's merged
// aggregate rows and delivers each output to its set's live members. A
// member whose post stage or sink fails is marked failed and skipped —
// isolation: one subscriber's failure never disturbs the host's state or
// its peers — and the source sweeps it out on the next producer call.
// Trace spans and the fire histogram are recorded once per host fire
// (member count is a fan-out width, not extra windows).
func (g *planGroup) fanout(host *Pipeline, c int64, aggRows []types.Row, presorted bool) error {
	tr := host.rt.tracer
	var start time.Time
	if host.fireHist != nil || tr != nil {
		start = time.Now()
	}
	ctx := host.rt.snapshotCtx(c)
	g.mu.Lock()
	defer g.mu.Unlock()
	outs := g.outs[:0]
	rows := 0
	for _, set := range g.sets {
		run := set.run[:0]
		for _, m := range set.members {
			if c > m.resumeAfter && !m.failed.Load() {
				run = append(run, m)
			}
		}
		set.run = run
		if len(run) == 0 {
			continue
		}
		out, err := exec.Drain(ctx, run[0].plan.StreamAgg.PostBuild(aggRows, presorted))
		if err != nil {
			err = fmt.Errorf("stream: window close at %d: %w", c, err)
			for _, m := range run {
				m.fail(err)
				host.src.failedMembers.Add(1)
			}
			continue
		}
		rows += len(out)
		outs = append(outs, setOut{out: out, run: run})
	}
	g.outs = outs
	host.windowsFired.Inc()
	if tr == nil {
		g.deliver(host, trace.Ctx{}, c, outs)
		if host.fireHist != nil {
			host.fireHist.ObserveSince(start)
		}
		return nil
	}
	execDone := time.Now()
	tc, slow := host.takeFireCtx(tr, execDone)
	g.deliver(host, tc, c, outs)
	end := time.Now()
	if host.fireHist != nil {
		host.fireHist.Observe(end.Sub(start).Seconds())
	}
	if tc.ID != 0 {
		tr.Record(trace.Span{Trace: tc.ID, Stage: trace.StageWindowFire, Stream: host.src.name,
			Pipe: host.id, Start: start.UnixMicro(), Dur: execDone.Sub(start).Nanoseconds(),
			Rows: rows, Slow: slow, Mode: host.mode()})
		tr.Record(trace.Span{Trace: tc.ID, Stage: trace.StageCQDeliver, Stream: host.src.name,
			Pipe: host.id, Start: execDone.UnixMicro(), Dur: end.Sub(execDone).Nanoseconds(),
			Rows: rows, Slow: slow})
	}
	if slow {
		tr.SlowFire(host.src.name, host.id, tc.ID, time.Duration(end.UnixNano()-tc.Ingest),
			execDone.Sub(start), end.Sub(execDone), rows)
	}
	return nil
}

// deliver hands each set's output to its members. The output slice is
// shared across a set (rows are immutable); a failing sink marks only its
// own member.
func (g *planGroup) deliver(host *Pipeline, tc trace.Ctx, c int64, outs []setOut) {
	for _, so := range outs {
		for _, m := range so.run {
			if m.failed.Load() {
				continue
			}
			if err := m.sink(tc, c, so.out); err != nil {
				m.fail(err)
				host.src.failedMembers.Add(1)
				continue
			}
			m.windowsFired.Inc()
		}
	}
}
