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
// filter/group-by aggregate directly over one windowed stream (the
// StreamAgg shape), whatever the window's kind: a store cuts at timestamps,
// row ordinals or emission numbers alike. key then names the store,
// <fingerprint>@<ADVANCE>, R or S after it for a ROWS or SLICES window, and
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
	case o == StateReexec:
		return "", "window-state override"
	}
	w := p.Stream.Window
	key = fmt.Sprintf("%s@%d%s", p.StreamAgg.Fingerprint, w.Advance, kindUnit[w.Kind])
	if off := PairOffset(w); off != 0 {
		key += fmt.Sprintf("+%d", off)
	}
	return key, ""
}

// kindUnit tells a count window's store key from a time window's of
// numerically equal ADVANCE.
var kindUnit = [...]string{sql.WindowTime: "", sql.WindowRows: "R", sql.WindowSlices: "S"}

// PairOffset is where a store of w's windows cuts every ADVANCE a second
// time ([12]'s paired windows): closes fall on k·ADVANCE, so windows open
// ADVANCE − VISIBLE mod ADVANCE after one. Zero when one cut serves both.
func PairOffset(w sql.WindowSpec) int64 {
	return (w.Advance - w.Visible%w.Advance) % w.Advance
}
