// Package schedule implements the system-level QoS estimation of §III.D of
// the paper: a list scheduler that turns a task ordering plus per-task
// (PE binding, task-level metrics) decisions into an execution schedule, and
// the estimators of TABLE III on top of it — average makespan (Eq. 1),
// lifetime reliability as system MTTF via Weibull damage accumulation
// (Eq. 2), criticality-weighted functional reliability (Eq. 3), and peak
// power / energy (Eq. 4).
//
// Peak power (Eq. 4) is a sweep over each task's start (+PowerW) and end
// (−PowerW) events in time order, releases before acquisitions at equal
// instants. The events are listed in the list scheduler's pop order,
// which is nearly time-sorted because each PE starts its tasks in pop
// order, and insertion-sorted. Disordered inputs — e.g. independent tasks
// whose priorities are grouped by PE — exhaust a move budget of a few
// moves per event and are finished by merging ascending runs instead.
// With finite inputs (Run rejects the rest) only value-equal events tie,
// so the sorted sequence, and with it the running sum, is the same on
// either path and bit-identical to any other correct sort.
package schedule

import (
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/taskgraph"
)

// CommModel is the optional interconnect model of the communication-aware
// scheduling extension (the paper's stated future work): transferring the
// data of a dependency edge between tasks placed on *different* PEs costs
// StartupUS plus PerKBUS per kilobyte on the shared interconnect; same-PE
// communication goes through local memory and is free. The zero value
// disables communication delays, reproducing the paper's behavior.
type CommModel struct {
	StartupUS float64
	PerKBUS   float64
}

// Delay returns the transfer delay of dataKB between distinct PEs.
func (c CommModel) Delay(dataKB float64) float64 {
	if c.StartupUS == 0 && c.PerKBUS == 0 {
		return 0
	}
	return c.StartupUS + c.PerKBUS*dataKB
}

// enabled reports whether the model introduces any delay.
func (c CommModel) enabled() bool { return c.StartupUS != 0 || c.PerKBUS != 0 }

// TaskDecision carries the design decisions and resulting task-level
// metrics for one task: which PE executes it and the TABLE II metrics of
// the chosen (implementation, CLR configuration) on that PE's type.
type TaskDecision struct {
	PE      int
	Metrics relmodel.Metrics
	// MemKB is the task's resident local-memory footprint on its PE
	// (storage constraint extension; zero = negligible).
	MemKB float64
}

// Result is the evaluated schedule with the system-level QoS metrics.
type Result struct {
	// StartUS and EndUS are the average start (SST) and end (SET) times of
	// each task, in microseconds.
	StartUS, EndUS []float64
	// MakespanUS is S_app = max SET (Eq. 1).
	MakespanUS float64
	// FunctionalRel is F_app = Σ F_t·ζ_t (Eq. 3).
	FunctionalRel float64
	// ErrProb is 1 − F_app, the "application error probability" plotted in
	// the paper's figures.
	ErrProb float64
	// MTTFHours is L_app = min over PEs of MTTF_p (Eq. 2).
	MTTFHours float64
	// PeakPowerW is W_app (Eq. 4).
	PeakPowerW float64
	// EnergyUJ is J_app = Σ AvgExT_t · W_t (Eq. 4).
	EnergyUJ float64
	// PEBusyUS is the accumulated busy time per PE over one period.
	PEBusyUS []float64
	// PEMemKB is the accumulated resident footprint per PE.
	PEMemKB []float64
}

// Run list-schedules the application on the platform. priority is a
// permutation of task IDs giving scheduling preference (the individual's
// gene order); tasks become eligible when all predecessors finished, and
// among eligible tasks the one earliest in priority order is placed next,
// on its decided PE, at the earliest time both the PE and its inputs allow.
// Every decision needs a known PE, a positive finite execution time, a
// non-negative finite power and a non-negative footprint.
func Run(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision) (*Result, error) {
	return RunWithComm(g, p, priority, decisions, CommModel{})
}

// RunWithComm is Run with the communication-aware extension enabled: a
// task's inputs arrive from each predecessor at the predecessor's end time
// plus the interconnect delay of the edge when the two tasks sit on
// different PEs.
func RunWithComm(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision, comm CommModel) (*Result, error) {
	// A throwaway Evaluator: the returned Result owns the buffers outright.
	return new(Evaluator).RunWithComm(g, p, priority, decisions, comm)
}

// Spec is the set of QoS constraints of Eq. 5. Zero values mean
// "unconstrained".
type Spec struct {
	MaxMakespanUS    float64 // S_SPEC
	MinFunctionalRel float64 // F_SPEC
	MinMTTFHours     float64 // L_SPEC
	MaxEnergyUJ      float64 // J_SPEC
	MaxPeakPowerW    float64 // W_SPEC
}

// MemoryViolations returns per-PE overflow fractions against the platform's
// local memory capacities: for each PE whose resident footprint exceeds its
// type's LocalMemKB (when set), usage/capacity − 1. Empty means feasible.
func MemoryViolations(r *Result, p *platform.Platform) []float64 {
	var out []float64
	for pe, used := range r.PEMemKB {
		cap := p.PEs[pe].Type.LocalMemKB
		if cap > 0 && used > cap {
			out = append(out, used/cap-1)
		}
	}
	return out
}
