package tdse

import (
	"repro/internal/characterize"
	"repro/internal/platform"
	"repro/internal/relmodel"
)

// ScreenFallbacks returns the number of task types Explore has evaluated
// on the full path since the process started.
func ScreenFallbacks() uint64 { return ScreenTotals().Fallbacks }

// GroupEstimates returns the candidates of each group of a task type, in
// the order the screened path visits them and with the estimates it
// screens them by.
func GroupEstimates(lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options) ([][]Candidate, error) {
	ax, err := newAxes(p, cat, opt)
	if err != nil {
		return nil, err
	}
	e := &exploration{lib: lib, p: p, cat: cat, opt: opt, axes: ax}
	groups, _ := e.plan([]int{taskType})
	out := make([][]Candidate, len(groups))
	for i := range groups {
		s := e.space(&groups[i], nil)
		err := s.Estimate(func(at relmodel.Point, m relmodel.Metrics) {
			out[i] = append(out[i], e.candidate(&s, at, m))
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
