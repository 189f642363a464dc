// Package thermal simulates transient per-PE temperatures over a periodic
// schedule with a first-order RC model: each PE's temperature relaxes
// exponentially toward its instantaneous steady-state target
// T_amb + R_th·P(t) with the PE type's thermal time constant. The trace
// validates that the steady-state hot-spot temperatures the task-level
// analysis feeds into the aging model (η, MTTF) are conservative upper
// bounds, and shows how duty cycling keeps real peaks below them.
package thermal

import (
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// Trace is a transient temperature simulation result.
type Trace struct {
	// TimeUS are the sample instants.
	TimeUS []float64
	// TempC[pe][i] is PE pe's temperature at TimeUS[i].
	TempC [][]float64
	// PeakC[pe] is the maximum temperature reached by PE pe.
	PeakC []float64
	// SteadyPeakC[pe] is the steady-state temperature of the hottest task
	// hosted on PE pe — the bound used by the task-level analysis.
	SteadyPeakC []float64
}

// Simulate integrates the RC model over the given number of application
// periods with time step dtUS. The schedule repeats every g.PeriodUS; tasks
// dissipate their configuration's power while executing, idle PEs relax
// toward ambient. All PEs start at ambient temperature.
func Simulate(g *taskgraph.Graph, p *platform.Platform, decisions []schedule.TaskDecision, res *schedule.Result, periods int, dtUS float64) (*Trace, error) {
	if periods <= 0 {
		return nil, fmt.Errorf("thermal: periods %d must be positive", periods)
	}
	if dtUS <= 0 {
		return nil, fmt.Errorf("thermal: time step %v must be positive", dtUS)
	}
	if len(decisions) != g.NumTasks() {
		return nil, fmt.Errorf("thermal: %d decisions for %d tasks", len(decisions), g.NumTasks())
	}
	if res.MakespanUS > g.PeriodUS {
		return nil, fmt.Errorf("thermal: makespan %v exceeds period %v — schedule does not fit",
			res.MakespanUS, g.PeriodUS)
	}
	nPE := p.NumPEs()
	steps := int(math.Ceil(float64(periods) * g.PeriodUS / dtUS))
	tr := &Trace{
		TimeUS:      make([]float64, 0, steps+1),
		TempC:       make([][]float64, nPE),
		PeakC:       make([]float64, nPE),
		SteadyPeakC: make([]float64, nPE),
	}
	temp := make([]float64, nPE)
	for pe := 0; pe < nPE; pe++ {
		temp[pe] = platform.AmbientTempC
		tr.PeakC[pe] = platform.AmbientTempC
		tr.SteadyPeakC[pe] = platform.AmbientTempC
		tr.TempC[pe] = make([]float64, 0, steps+1)
	}
	for t := 0; t < g.NumTasks(); t++ {
		pe := decisions[t].PE
		steady := p.PEs[pe].Type.SteadyTempC(decisions[t].Metrics.PowerW)
		tr.SteadyPeakC[pe] = math.Max(tr.SteadyPeakC[pe], steady)
	}

	record := func(at float64) {
		tr.TimeUS = append(tr.TimeUS, at)
		for pe := 0; pe < nPE; pe++ {
			tr.TempC[pe] = append(tr.TempC[pe], temp[pe])
			tr.PeakC[pe] = math.Max(tr.PeakC[pe], temp[pe])
		}
	}
	record(0)
	for s := 1; s <= steps; s++ {
		now := float64(s) * dtUS
		phase := math.Mod(now, g.PeriodUS)
		// Instantaneous power per PE at this phase of the period.
		for pe := 0; pe < nPE; pe++ {
			pw := 0.0
			for t := 0; t < g.NumTasks(); t++ {
				if decisions[t].PE != pe {
					continue
				}
				if phase >= res.StartUS[t] && phase < res.EndUS[t] {
					pw += decisions[t].Metrics.PowerW
				}
			}
			pt := p.PEs[pe].Type
			target := pt.SteadyTempC(pw)
			tau := pt.ThermalTimeConstS * 1e6 // µs
			if tau == 0 {
				temp[pe] = target
			} else {
				// Exact exponential step toward the piecewise-constant target.
				temp[pe] = target + (temp[pe]-target)*math.Exp(-dtUS/tau)
			}
		}
		record(now)
	}
	return tr, nil
}
