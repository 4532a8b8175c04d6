package trace

import (
	"encoding/json"
	"net/http"
)

// WireSpan is a completed span as it leaves the process: in the "trace"
// op's response and as JSON at /debug/traces. The trace ID is a hex string
// so it survives JSON consumers that truncate 64-bit integers to doubles.
type WireSpan struct {
	Trace   string `json:"trace"`
	Stage   Stage  `json:"stage"`
	Stream  string `json:"stream,omitempty"`
	Pipe    int64  `json:"pipe,omitempty"`
	StartUS int64  `json:"start_us"`
	DurNS   int64  `json:"dur_ns"`
	Rows    int    `json:"rows,omitempty"`
	Slow    bool   `json:"slow,omitempty"`
	Mode    string `json:"mode,omitempty"`
}

// WireSpans converts spans to their wire form, in order; never nil.
func WireSpans(spans []Span) []WireSpan {
	out := make([]WireSpan, len(spans))
	for i, s := range spans {
		out[i] = WireSpan{
			Trace:   FormatID(s.Trace),
			Stage:   s.Stage,
			Stream:  s.Stream,
			Pipe:    s.Pipe,
			StartUS: s.Start,
			DurNS:   s.Dur,
			Rows:    s.Rows,
			Slow:    s.Slow,
			Mode:    s.Mode,
		}
	}
	return out
}

// Handler serves the span ring as a JSON array, oldest span first. Safe
// with a nil tracer (serves an empty array).
func Handler(t *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(WireSpans(t.Snapshot()))
	})
}
