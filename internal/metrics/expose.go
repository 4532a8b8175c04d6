package metrics

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Bucket is one cumulative histogram bucket in a snapshot: the count of
// observations <= UpperBound.
type Bucket struct {
	UpperBound float64
	Count      int64
}

// Sample is the snapshot of one series, self-contained and inert: the
// atomics have been copied out, so holders can format or aggregate it
// without touching live metrics.
type Sample struct {
	Name   string
	Labels []Label
	Kind   Kind
	Help   string

	// Counter / gauge value.
	Value float64

	// Histogram fields (Kind == KindHistogram). Buckets are cumulative
	// and end with the +Inf bucket, whose count equals Count.
	Count   int64
	Sum     float64
	Buckets []Bucket
}

// ID renders the series identity (name plus sorted labels).
func (s *Sample) ID() string { return seriesID(s.Name, s.Labels) }

// Quantile estimates the q-quantile (0 < q < 1) of a histogram sample by
// linear interpolation inside the owning bucket, the same estimate
// Prometheus's histogram_quantile computes. Observations beyond the last
// finite bound clamp to it. Returns NaN for non-histograms or empty
// histograms.
func (s *Sample) Quantile(q float64) float64 {
	if s.Kind != KindHistogram || s.Count == 0 || len(s.Buckets) == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	for i, b := range s.Buckets {
		if float64(b.Count) < rank {
			continue
		}
		if i == len(s.Buckets)-1 {
			// +Inf bucket: clamp to the last finite bound.
			if len(s.Buckets) >= 2 {
				return s.Buckets[len(s.Buckets)-2].UpperBound
			}
			return math.NaN()
		}
		lo, below := 0.0, int64(0)
		if i > 0 {
			lo, below = s.Buckets[i-1].UpperBound, s.Buckets[i-1].Count
		}
		width := b.UpperBound - lo
		inBucket := b.Count - below
		if inBucket <= 0 {
			return b.UpperBound
		}
		return lo + width*(rank-float64(below))/float64(inBucket)
	}
	return math.NaN()
}

// Point is one row of the flattened view of a sample list.
type Point struct {
	// Name is the series name; a histogram's rows carry their suffix.
	Name string
	// Labels is the {k="v",…} part of the series ID, "" when unlabeled.
	Labels string
	Kind   Kind
	Value  float64
}

// Flatten is the one rule that turns samples into (name, labels, kind,
// value) rows, shared by every surface that shows metrics as rows
// (client.Stats, the sys.metrics stream, the REPL's \stats): a counter or
// gauge is one row; a histogram is five — _count, _sum and the _p50, _p95,
// _p99 Quantile estimates. A row whose value is NaN or ±Inf is dropped —
// the quantiles of a histogram nothing has been observed into, a gauge
// dividing by zero — so no reader has to guard an aggregate against them.
func Flatten(samples []*Sample) []Point {
	n := len(samples)
	for _, s := range samples {
		if s.Kind == KindHistogram {
			n += 4
		}
	}
	out := make([]Point, 0, n)
	for _, s := range samples {
		labels := seriesID("", s.Labels)
		add := func(suffix string, v float64) {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				out = append(out, Point{Name: s.Name + suffix, Labels: labels, Kind: s.Kind, Value: v})
			}
		}
		if s.Kind != KindHistogram {
			add("", s.Value)
			continue
		}
		add("_count", float64(s.Count))
		add("_sum", s.Sum)
		add("_p50", s.Quantile(0.50))
		add("_p95", s.Quantile(0.95))
		add("_p99", s.Quantile(0.99))
	}
	return out
}

// Gather snapshots every registered series, sorted by name then label
// identity. Nil-safe: a nil registry gathers nothing.
func (r *Registry) Gather() []*Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	// Copy each series by value: handle fields (counter/gauge/gaugeFn/hist)
	// are written under r.mu by lookup's init callbacks, so they must be
	// read under it too. The atomics behind the copied pointers are then
	// loaded lock-free below.
	type entry struct {
		id string
		series
	}
	all := make([]entry, 0, len(r.byID))
	for id, s := range r.byID {
		all = append(all, entry{id, *s})
	}
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()

	// Sorted by the ids the registry keys its series by, so no comparison
	// renders one.
	slices.SortFunc(all, func(a, b entry) int {
		return cmp.Or(strings.Compare(a.name, b.name), strings.Compare(a.id, b.id))
	})
	out := make([]*Sample, 0, len(all))
	for _, s := range all {
		smp := &Sample{Name: s.name, Labels: s.labels, Kind: s.kind, Help: help[s.name]}
		switch {
		case s.counter != nil:
			smp.Value = float64(s.counter.Value())
		case s.gaugeFn != nil:
			smp.Value = s.gaugeFn()
		case s.gauge != nil:
			smp.Value = s.gauge.Value()
		case s.hist != nil:
			h := s.hist
			smp.Sum = math.Float64frombits(h.sum.Load())
			cum := int64(0)
			smp.Buckets = make([]Bucket, 0, len(h.counts))
			for i := range h.counts {
				cum += h.counts[i].Load()
				ub := math.Inf(1)
				if i < len(h.bounds) {
					ub = h.bounds[i]
				}
				smp.Buckets = append(smp.Buckets, Bucket{UpperBound: ub, Count: cum})
			}
			// The per-bucket loads race with concurrent Observe calls;
			// make the snapshot internally consistent by taking the +Inf
			// cumulative count as authoritative.
			smp.Count = cum
		}
		out = append(out, smp)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), families sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) error { return writeSorted(w, r.Gather()) }

func writeSample(w io.Writer, s *Sample) error {
	switch s.Kind {
	case KindHistogram:
		for _, b := range s.Buckets {
			le := "+Inf"
			if !math.IsInf(b.UpperBound, 1) {
				le = formatFloat(b.UpperBound)
			}
			if _, err := fmt.Fprintf(w, "%s %d\n",
				seriesID(s.Name+"_bucket", withLabel(s.Labels, "le", le)), b.Count); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesID(s.Name+"_sum", s.Labels), formatFloat(s.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", seriesID(s.Name+"_count", s.Labels), s.Count)
		return err
	default:
		_, err := fmt.Fprintf(w, "%s %s\n", s.ID(), formatFloat(s.Value))
		return err
	}
}

// WithLabel returns a copy of the sample with one extra label (re-sorted
// into identity order). Federating routers use it to tag per-shard scrapes
// with shard="N" before merging.
func (s *Sample) WithLabel(key, value string) *Sample {
	out := *s
	out.Labels = withLabel(s.Labels, key, value)
	return &out
}

// WriteSamples renders an arbitrary sample list in the Prometheus text
// exposition format: samples are sorted by family then series identity,
// HELP/TYPE emitted once per family. It is WritePrometheus for samples
// that did not come from one local registry — the router's federation
// endpoint merges per-shard Gathers and renders them here.
func WriteSamples(w io.Writer, samples []*Sample) error {
	sorted := append([]*Sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Name != sorted[j].Name {
			return sorted[i].Name < sorted[j].Name
		}
		return sorted[i].ID() < sorted[j].ID()
	})
	return writeSorted(w, sorted)
}

// writeSorted renders samples already in Gather's order, HELP and TYPE
// once per family.
func writeSorted(w io.Writer, sorted []*Sample) error {
	lastFamily := ""
	for _, s := range sorted {
		if s.Name != lastFamily {
			lastFamily = s.Name
			if s.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", s.Name, s.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", s.Name, s.Kind); err != nil {
				return err
			}
		}
		if err := writeSample(w, s); err != nil {
			return err
		}
	}
	return nil
}

// withLabel returns labels plus one extra, re-sorted.
func withLabel(labels []Label, key, value string) []Label {
	out := append(append([]Label(nil), labels...), Label{Key: key, Value: value})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler serves the registry at any path in the Prometheus text format;
// mount it at /metrics.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		io.WriteString(w, b.String())
	})
}
