package plan

import (
	"fmt"

	"streamrel/internal/exec"
	"streamrel/internal/sql"
)

// DeltaProgram reports whether this plan qualifies for incremental view
// maintenance and, when it does, how each aggregate is maintained. A plan
// qualifies when it is a filter/project/group-by aggregate directly over
// one time-windowed stream (the StreamAgg shape) whose VISIBLE is a
// multiple of ADVANCE, with every aggregate in COUNT/SUM/AVG/MIN/MAX and
// no DISTINCT — AVG decomposes into SUM+COUNT, MIN/MAX keep per-slice
// partials re-merged on expiry. The returned reason is non-empty exactly
// when the plan must fall back to re-execution; EXPLAIN surfaces it.
func (p *Plan) DeltaProgram() ([]exec.DeltaKind, string) {
	if p.Stream == nil {
		return nil, "not a continuous query"
	}
	if p.ReadsNow {
		return nil, "reads now()"
	}
	if p.StreamAgg == nil {
		return nil, "plan is not a filter/group-by aggregate directly over the stream"
	}
	w := p.Stream.Window
	if w.Kind != sql.WindowTime {
		return nil, "window is not a time window"
	}
	if w.Visible <= 0 || w.Advance <= 0 || w.Visible%w.Advance != 0 {
		return nil, "VISIBLE is not a multiple of ADVANCE"
	}
	kinds := make([]exec.DeltaKind, len(p.StreamAgg.Aggs))
	for i, a := range p.StreamAgg.Aggs {
		if a.Distinct {
			return nil, fmt.Sprintf("%s(DISTINCT …) has no retract form", a.Name)
		}
		switch a.Name {
		case "count":
			kinds[i] = exec.DeltaCount
		case "sum":
			kinds[i] = exec.DeltaSum
		case "avg":
			kinds[i] = exec.DeltaAvg
		case "min":
			kinds[i] = exec.DeltaMin
		case "max":
			kinds[i] = exec.DeltaMax
		default:
			return nil, fmt.Sprintf("aggregate %s has no delta form", a.Name)
		}
	}
	return kinds, ""
}
