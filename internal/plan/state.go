package plan

import (
	"fmt"

	"streamrel/internal/sql"
)

// Strategy is how a continuous query's window state is kept and fired.
type Strategy uint8

// Window-state strategies. The first two fire from a slice-partial store
// shared by every CQ with the same store key; Reexec buffers rows and runs
// the whole plan over them at each close.
const (
	// Materialized keeps the combined window answer and maintains it by
	// deltas — add the slice that closed, retract the slice that left — so
	// a fire emits in O(groups).
	Materialized Strategy = iota
	// Merge combines the covering slices at each fire.
	Merge
	// Reexec is the residual: no store.
	Reexec
)

// String is the strategy's name in span Mode fields, sys.pipelines.mode
// and EXPLAIN's mode line.
func (s Strategy) String() string {
	return [...]string{"incremental", "shared", "reexec"}[s]
}

// StateOverride replaces the automatic window-state decision, for
// ablations and tests (streamrel.Config.StateOverride).
type StateOverride uint8

// Overrides; the zero value decides from the plan.
const (
	StateAuto StateOverride = iota
	// StateReexec attaches nothing to a store.
	StateReexec
	// StateMerge attaches as usual but never materializes.
	StateMerge
	// StatePrivate gives every eligible CQ a store of its own.
	StatePrivate
)

// WindowState is the one statement of which continuous queries keep their
// window in a slice-partial store and how such a store fires. A plan
// attaches when it is a filter/group-by aggregate directly over one
// time-windowed stream (the StreamAgg shape); key then names the store,
// <fingerprint>@<ADVANCE> and +<PairOffset> when that is not zero — CQs over
// the stream with equal keys share slice partials whatever their VISIBLE.
// The store is materialized when every aggregate can leave a window again:
// COUNT/SUM/AVG subtract (AVG as SUM+COUNT), MIN/MAX re-merge the surviving
// slices; anything else (DISTINCT, stddev, first/last …) merges per fire.
// reason says why the answer is not the better one: why re-execution when
// key is empty, otherwise why merge (empty for materialized).
func (p *Plan) WindowState(o StateOverride) (key string, s Strategy, reason string) {
	switch {
	case p.Stream == nil:
		return "", Reexec, "not a continuous query"
	case p.ReadsNow:
		return "", Reexec, "reads now()"
	case p.StreamAgg == nil && p.WhyNoStore != "":
		return "", Reexec, p.WhyNoStore
	case p.StreamAgg == nil:
		return "", Reexec, "plan is not a filter/group-by aggregate directly over the stream"
	}
	w := p.Stream.Window
	switch {
	case w.Kind != sql.WindowTime:
		return "", Reexec, "window is not a time window"
	case w.Visible <= 0 || w.Advance <= 0:
		return "", Reexec, "window extents must be positive"
	case o == StateReexec:
		return "", Reexec, "window-state override"
	}
	key = fmt.Sprintf("%s@%d", p.StreamAgg.Fingerprint, w.Advance)
	if off := PairOffset(w); off != 0 {
		key += fmt.Sprintf("+%d", off)
	}
	if o == StateMerge {
		return key, Merge, "window-state override"
	}
	for _, a := range p.StreamAgg.Aggs {
		if a.Distinct {
			return key, Merge, fmt.Sprintf("%s(DISTINCT …) has no retract form", a.Name)
		}
		switch a.Name {
		case "count", "sum", "avg", "min", "max":
		default:
			return key, Merge, fmt.Sprintf("aggregate %s has no delta form", a.Name)
		}
	}
	return key, Materialized, ""
}

// PairOffset is where a store of w's windows cuts every ADVANCE a second
// time ([12]'s paired windows): closes fall on k·ADVANCE, so windows open
// ADVANCE − VISIBLE mod ADVANCE after one. Zero when one cut serves both.
func PairOffset(w sql.WindowSpec) int64 {
	return (w.Advance - w.Visible%w.Advance) % w.Advance
}
