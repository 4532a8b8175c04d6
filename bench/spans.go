package main

import (
	"sort"
	"time"

	"streamrel"
)

// Stages of benchmark-side spans. Engine spans keep internal/trace's names.
const (
	stageAppend = "append" // root: one client.AppendWire or Engine.AppendTraced call
	stageQuery  = "query"  // one client.Query round trip
)

// span is one recorded hop, from the benchmark or from an engine's ring.
type span struct {
	Trace   uint64 `json:"trace,omitempty"`
	Stage   string `json:"stage"`
	Stream  string `json:"stream,omitempty"`
	Pipe    int64  `json:"pipe,omitempty"`
	StartNs int64  `json:"start_ns"` // wall clock, unix nanoseconds
	DurNs   int64  `json:"dur_ns"`
	Rows    int    `json:"rows,omitempty"`
	Mode    string `json:"mode,omitempty"`
	Src     string `json:"src"` // bench, engine or replica
}

// spanLog collects one goroutine's benchmark-side spans in memory.
type spanLog struct{ spans []span }

func (l *spanLog) add(id uint64, stage, stream string, t0, t1 time.Time, rows int) {
	l.spans = append(l.spans, span{Trace: id, Stage: stage, Stream: stream,
		StartNs: t0.UnixNano(), DurNs: int64(t1.Sub(t0)), Rows: rows, Src: "bench"})
}

// engineSpans converts an engine's trace ring.
func engineSpans(eng *streamrel.Engine, src string) []span {
	ring := eng.Traces()
	out := make([]span, len(ring))
	for i, s := range ring {
		out[i] = span{Trace: s.Trace, Stage: string(s.Stage), Stream: s.Stream, Pipe: s.Pipe,
			StartNs: s.Start * 1000, DurNs: s.Dur, Rows: s.Rows, Mode: s.Mode, Src: src}
	}
	return out
}

// startSlackNs absorbs the engine's microsecond span starts when testing
// whether a child lies inside its root.
const startSlackNs = 2000

// selfTime returns root's duration minus the part of its interval that the
// children cover. Children are clipped to the root and may overlap.
func selfTime(root span, children []span) int64 {
	lo, hi := root.StartNs, root.StartNs+root.DurNs
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.StartNs, c.StartNs+c.DurNs
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		covered += v.b - end
		end = v.b
	}
	return root.DurNs - covered
}

// stageSums aggregates a traced pass's spans.
type stageSums struct {
	rootNs     int64 // Σ append root spans
	rootSelfNs int64 // Σ root self time (root minus on-path children)
	roots      int
	// onPath and offPath sum engine span durations by ledger key, split by
	// whether the hop ran on the producer's blocking path.
	onPath, offPath map[string]int64
	count           map[string]int64 // spans per ledger key, both paths
	outRows         map[string]int64 // Σ span.Rows per ledger key
	tracesNoEngine  int              // append roots with no engine span at all
}

// ledgerKey names the layer an engine span is charged to.
func ledgerKey(s span) string {
	switch s.Stage {
	case "enqueue":
		return "stream.enqueue_wait"
	case "pickup":
		return "stream.pickup_wait"
	case "window-fire":
		switch s.Mode {
		case "incremental":
			return "ivm.fire"
		case "shared":
			return "stream.fire_shared"
		}
		return "exec.fire_reexec"
	case "cq-deliver":
		return "stream.deliver"
	case "wal-append":
		return "wal.append"
	case "wal-fsync":
		return "wal.fsync"
	case "replica-apply":
		return "replica.apply"
	}
	return ""
}

// onProducerPath says whether an engine hop blocks the producer's append.
// With a synchronous engine every hop but the replica's runs inside the
// append call; with the scheduler pool only the mailbox hand-off does.
func onProducerPath(s span, parallel bool) bool {
	switch s.Stage {
	case "enqueue":
		return true
	case "pickup", "replica-apply":
		return false
	}
	return !parallel
}

// sumStages joins benchmark root spans to engine spans by trace ID and
// computes root self time.
func sumStages(bench, engine []span, parallel bool) stageSums {
	ss := stageSums{onPath: map[string]int64{}, offPath: map[string]int64{},
		count: map[string]int64{}, outRows: map[string]int64{}}
	byTrace := make(map[uint64][]span)
	for _, s := range engine {
		key := ledgerKey(s)
		if key == "" {
			continue
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
		ss.count[key]++
		ss.outRows[key] += int64(s.Rows)
		if onProducerPath(s, parallel) {
			ss.onPath[key] += s.DurNs
		} else {
			ss.offPath[key] += s.DurNs
		}
	}
	for _, root := range bench {
		if root.Stage != stageAppend {
			continue
		}
		ss.roots++
		ss.rootNs += root.DurNs
		kids := byTrace[root.Trace]
		if len(kids) == 0 {
			ss.tracesNoEngine++
		}
		var on []span
		for _, k := range kids {
			if onProducerPath(k, parallel) && k.StartNs+startSlackNs >= root.StartNs &&
				k.StartNs <= root.StartNs+root.DurNs {
				on = append(on, k)
			}
		}
		ss.rootSelfNs += selfTime(root, on)
	}
	return ss
}

// ledgerRow is one line of the per-layer cost ledger.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	NsPerRow float64 `json:"ns_per_row"`
	Share    float64 `json:"share"` // of the producer-path time per row
	// Source is span (a timed hop), self (a root's time between its spans:
	// a container, not counted as attributed), probe (a layer's public
	// functions timed on this workload's batches) or harness.
	Source string `json:"source"`
	OnPath bool   `json:"on_path"`
}

// ledger is a workload's ranked cost table.
type ledger struct {
	BaseNsPerRow float64     `json:"base_ns_per_row"` // producers / rows_per_s of the traced pass
	Rows         []ledgerRow `json:"rows"`
	Attributed   float64     `json:"attributed_share"`
	Unattributed float64     `json:"unattributed_share"`
}

// buildLedger ranks the layers. base is the time one producer spends per
// row; a row's share is its cost over base. Attributed is the share of base
// covered by on-path spans, on-path probes and the harness; the rest of the
// base — time inside a self-time container that no probe explains — is
// unattributed.
func buildLedger(base float64, rows []ledgerRow) ledger {
	l := ledger{BaseNsPerRow: base}
	for i := range rows {
		if base > 0 {
			rows[i].Share = rows[i].NsPerRow / base
		}
		if rows[i].OnPath && rows[i].Source != "self" {
			l.Attributed += rows[i].Share
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].NsPerRow > rows[j].NsPerRow })
	l.Rows = rows
	l.Unattributed = 1 - l.Attributed
	return l
}
