package plan

import (
	"fmt"

	"streamrel/internal/sql"
)

// Mode names a WindowState decision in span Mode fields,
// sys.pipelines.mode and EXPLAIN's mode line: "incremental" for a store key,
// "reexec" for none.
func Mode(key string) string {
	if key == "" {
		return "reexec"
	}
	return "incremental"
}

// StateOverride replaces the automatic window-state decision, for
// ablations and tests (streamrel.Config.StateOverride).
type StateOverride uint8

// Overrides; the zero value decides from the plan.
const (
	StateAuto StateOverride = iota
	// StateReexec attaches nothing to a store.
	StateReexec
	// StatePrivate gives every eligible CQ a store of its own.
	StatePrivate
)

// WindowState is the one statement of which continuous queries keep their
// window in a slice-partial store. A plan attaches when it is a
// filter/group-by aggregate directly over one time-windowed stream (the
// StreamAgg shape); key then names the store, <fingerprint>@<ADVANCE> and
// +<PairOffset> when that is not zero — CQs over the stream with equal keys
// share slice partials whatever their VISIBLE. Every store is materialized
// (internal/ivm). reason says why re-execution when key is empty.
func (p *Plan) WindowState(o StateOverride) (key, reason string) {
	switch {
	case p.Stream == nil:
		return "", "not a continuous query"
	case p.ReadsNow:
		return "", "reads now()"
	case p.StreamAgg == nil && p.WhyNoStore != "":
		return "", p.WhyNoStore
	case p.StreamAgg == nil:
		return "", "plan is not a filter/group-by aggregate directly over the stream"
	}
	w := p.Stream.Window
	switch {
	case w.Kind != sql.WindowTime:
		return "", "window is not a time window"
	case w.Visible <= 0 || w.Advance <= 0:
		return "", "window extents must be positive"
	case o == StateReexec:
		return "", "window-state override"
	}
	key = fmt.Sprintf("%s@%d", p.StreamAgg.Fingerprint, w.Advance)
	if off := PairOffset(w); off != 0 {
		key += fmt.Sprintf("+%d", off)
	}
	return key, ""
}

// PairOffset is where a store of w's windows cuts every ADVANCE a second
// time ([12]'s paired windows): closes fall on k·ADVANCE, so windows open
// ADVANCE − VISIBLE mod ADVANCE after one. Zero when one cut serves both.
func PairOffset(w sql.WindowSpec) int64 {
	return (w.Advance - w.Visible%w.Advance) % w.Advance
}
