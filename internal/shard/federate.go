package shard

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"streamrel/internal/metrics"
	"streamrel/internal/server"
	"streamrel/internal/trace"
)

// This file is the router's cluster observability plane: one /metrics
// scrape that federates every shard's registry (series tagged with a
// shard label), one /debug/traces view that stitches distributed spans
// back together by trace ID, and the /readyz probe. The paper
// frames monitoring as just another continuous query over the system's
// own event streams; federation extends that to the cluster by making
// every node's telemetry reachable through a single pane.

// FederatedSamples scrapes every shard's full metrics registry over the
// wire "metrics" op, tags each scraped series with shard="<index>", and
// merges them with the router's own registry tagged shard="router".
// Router series that already carry a shard label (the per-shard
// connection health and queue series) keep it — they are already
// shard-attributed. partial is true when one or more shards could not be
// scraped; their series are simply absent, mirroring how scatter-gather
// queries degrade.
func (r *Router) FederatedSamples() (samples []*metrics.Sample, partial bool) {
	results := r.fanOut(server.Request{Op: "metrics"})
	for _, s := range r.reg.Gather() {
		samples = append(samples, tagShard(s, "router"))
	}
	for i, res := range results {
		if res.err != nil {
			partial = true
			if r.log != nil {
				r.log.Warn("metrics federation scrape failed", "shard", i, "error", res.err.Error())
			}
			continue
		}
		label := strconv.Itoa(i)
		for _, s := range server.DecodeSamples(res.resp.Samples) {
			samples = append(samples, tagShard(s, label))
		}
	}
	return samples, partial
}

// tagShard adds shard=val unless the series already has a shard label.
func tagShard(s *metrics.Sample, val string) *metrics.Sample {
	for _, l := range s.Labels {
		if l.Key == "shard" {
			return s
		}
	}
	return s.WithLabel("shard", val)
}

// MetricsHandler serves the federated scrape in the Prometheus text
// exposition format; mount it at /metrics on the router's debug
// listener. A partial scrape (downed shard) still serves the surviving
// series, flagged with an X-Streamrel-Partial header.
func (r *Router) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		samples, partial := r.FederatedSamples()
		var b strings.Builder
		if err := metrics.WriteSamples(&b, samples); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if partial {
			w.Header().Set("X-Streamrel-Partial", "true")
		}
		io.WriteString(w, b.String())
	})
}

// FedSpan is one span in a federated trace, tagged with the node that
// recorded it ("router" or "shard-N").
type FedSpan struct {
	Node string `json:"node"`
	server.WireSpan
}

// FedTrace is one distributed trace stitched back together: every span
// across the router and all shards that shares one trace ID, ordered by
// start time.
type FedTrace struct {
	Trace   string    `json:"trace"`
	StartUS int64     `json:"start_us"`
	Spans   []FedSpan `json:"spans"`
}

// FederatedTraces gathers the router's own span ring plus every shard's
// (via the wire "trace" op) and groups the union by trace ID — the ID a
// routed append carries across the wire hop, so a single trace shows the
// router ingest span followed by each shard's pipeline spans. Traces are
// ordered oldest first. partial is true when a shard scrape failed.
func (r *Router) FederatedTraces() (traces []FedTrace, partial bool) {
	results := r.fanOut(server.Request{Op: "trace"})
	byID := map[string]*FedTrace{}
	add := func(node string, ws server.WireSpan) {
		ft, ok := byID[ws.Trace]
		if !ok {
			ft = &FedTrace{Trace: ws.Trace, StartUS: ws.StartUS}
			byID[ws.Trace] = ft
		}
		if ws.StartUS < ft.StartUS {
			ft.StartUS = ws.StartUS
		}
		ft.Spans = append(ft.Spans, FedSpan{Node: node, WireSpan: ws})
	}
	for _, ws := range trace.WireSpans(r.tracer.Snapshot()) {
		add("router", ws)
	}
	for i, res := range results {
		if res.err != nil {
			partial = true
			if r.log != nil {
				r.log.Warn("trace federation scrape failed", "shard", i, "error", res.err.Error())
			}
			continue
		}
		node := "shard-" + strconv.Itoa(i)
		for _, ws := range res.resp.Spans {
			add(node, ws)
		}
	}
	traces = make([]FedTrace, 0, len(byID))
	for _, ft := range byID {
		sort.SliceStable(ft.Spans, func(a, b int) bool { return ft.Spans[a].StartUS < ft.Spans[b].StartUS })
		traces = append(traces, *ft)
	}
	sort.Slice(traces, func(a, b int) bool {
		if traces[a].StartUS != traces[b].StartUS {
			return traces[a].StartUS < traces[b].StartUS
		}
		return traces[a].Trace < traces[b].Trace
	})
	return traces, partial
}

// TracesHandler serves the stitched traces as JSON; mount it at
// /debug/traces on the router's debug listener.
func (r *Router) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		traces, partial := r.FederatedTraces()
		w.Header().Set("Content-Type", "application/json")
		if partial {
			w.Header().Set("X-Streamrel-Partial", "true")
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(traces)
	})
}

// probeStatus is the JSON body of the /readyz probe.
type probeStatus struct {
	Status string `json:"status"`
	Up     int    `json:"shards_up,omitempty"`
	Total  int    `json:"shards_total,omitempty"`
	Down   []int  `json:"shards_down,omitempty"`
}

// ReadyzHandler is the router's readiness probe: ready only while every
// shard connection is healthy, so a load balancer drains the router
// while results would be partial.
func (r *Router) ReadyzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		st := probeStatus{Status: "ok", Total: len(r.shards)}
		for i, sc := range r.shards {
			if sc.up() {
				st.Up++
			} else {
				st.Down = append(st.Down, i)
			}
		}
		code := http.StatusOK
		if st.Up < st.Total {
			st.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(st)
	})
}
