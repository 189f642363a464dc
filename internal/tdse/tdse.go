// Package tdse implements the task-level design space exploration of the
// paper (tDSE, §IV and §VI.B): exhaustive enumeration of a task type's
// CLR-integrated implementations — base implementation × DVFS mode × one
// method per reliability layer — evaluation of each candidate through the
// Markov-chain reliability models, and Pareto filtering under configurable
// task-level objective sets (the rows of TABLE IV).
//
// Pareto filtering is performed per PE type: an implementation bound to PE
// type A can never substitute for one bound to PE type B during task
// mapping, so dominance is only meaningful within one PE type. This matches
// TABLE IV row I, where a single-objective filter still leaves one point
// per compatible PE type.
package tdse

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/characterize"
	"repro/internal/faultmodel"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/sweep"
)

// Objective identifies one task-level optimization objective of TABLE IV.
// All are minimized; MTTF is negated internally.
type Objective int

const (
	// AvgExT minimizes the average execution time.
	AvgExT Objective = iota
	// ErrProb minimizes the probability of error during execution.
	ErrProb
	// MTTF maximizes the implementation's mean time to failure.
	MTTF
	// Energy minimizes the energy per execution.
	Energy
	// Power minimizes the average power dissipation.
	Power
	// PeakTemp minimizes the steady-state temperature.
	PeakTemp
	// MinExT minimizes the error-free (minimum) execution time — distinct
	// from AvgExT because recovery dynamics decouple the two.
	MinExT
	numObjectives
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case AvgExT:
		return "avg-exec-time"
	case ErrProb:
		return "error-probability"
	case MTTF:
		return "mttf"
	case Energy:
		return "energy"
	case Power:
		return "power"
	case PeakTemp:
		return "peak-temperature"
	case MinExT:
		return "min-exec-time"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// ObjectiveSets returns the cumulative objective sets of TABLE IV:
// row I = {AvgExT}, row II adds ErrProb, … row VI adds PeakTemp.
func ObjectiveSets() [][]Objective {
	all := []Objective{AvgExT, ErrProb, MTTF, Energy, Power, PeakTemp}
	out := make([][]Objective, len(all))
	for i := range all {
		out[i] = append([]Objective(nil), all[:i+1]...)
	}
	return out
}

// StudyObjectiveSets returns the three task-level objective sets of the
// tDSE_1/tDSE_2/tDSE_3 study (Fig. 9, Fig. 10, TABLE VII). The paper grows
// the set with "additional optimization objectives"; here:
// tDSE_1 = {AvgExT, ErrProb}, tDSE_2 adds MTTF, tDSE_3 adds the minimum
// execution time (a distinct TABLE II metric that is not a monotone
// function of the others, so it genuinely enlarges the fronts). The list
// is shared by the experiment harness and the job service's tdse_set knob.
func StudyObjectiveSets() [][]Objective {
	return [][]Objective{
		{AvgExT, ErrProb},
		{AvgExT, ErrProb, MTTF},
		{AvgExT, ErrProb, MTTF, Energy, Power, PeakTemp, MinExT},
	}
}

// Value extracts the minimization value of objective o from task metrics.
func Value(m relmodel.Metrics, o Objective) float64 {
	switch o {
	case AvgExT:
		return m.AvgExTimeUS
	case ErrProb:
		return m.ErrProb
	case MTTF:
		return -m.MTTFHours
	case Energy:
		return m.EnergyUJ
	case Power:
		return m.PowerW
	case PeakTemp:
		return m.TempC
	case MinExT:
		return m.MinExTimeUS
	default:
		panic(fmt.Sprintf("tdse: unknown objective %d", int(o)))
	}
}

// Candidate is one fully configured task implementation: a base
// implementation plus a CLR configuration (and, when the checkpoint axis is
// enumerated, a task-level checkpoint policy), with its evaluated metrics.
type Candidate struct {
	Base       relmodel.Impl
	Assignment relmodel.Assignment
	// Checkpoint is the task-level checkpoint policy of the candidate; the
	// zero value (legacy enumerations) means the axis is off.
	Checkpoint faultmodel.CheckpointPolicy
	Metrics    relmodel.Metrics
}

// Options restricts the enumeration, enabling both the single-layer
// baselines of the evaluation (§VI.C) and the implicit-masking sweep of
// Fig. 6(b). Nil index slices mean "all methods of that layer".
type Options struct {
	// Modes restricts the DVFS modes (indices into the PE type's modes).
	// Out-of-range indices for a PE type with fewer modes are skipped.
	Modes []int
	// HW, SSW, ASW restrict the per-layer method indices.
	HW, SSW, ASW []int
	// ImplicitMaskingOverride, when non-negative, replaces every base
	// implementation's implicit SSW masking (Fig. 6(b) sweep). Negative
	// means "keep the implementation's own value".
	ImplicitMaskingOverride float64
	// Checkpoints enumerates the task-level checkpoint-policy axis: every
	// candidate is additionally evaluated under each listed policy. Nil —
	// the legacy enumeration — evaluates only the zero (no-policy) point,
	// keeping candidate order and metrics bit-identical to the
	// pre-subsystem engine. Include the zero policy explicitly to keep the
	// unaugmented points alongside the policies.
	Checkpoints []faultmodel.CheckpointPolicy
	// Faults, when non-nil, evaluates every candidate under the resolved
	// per-PE-type fault model (combined transient+permanent analysis).
	Faults *faultmodel.Model
}

// DefaultOptions enumerates everything and keeps implementations' own
// implicit masking.
func DefaultOptions() Options {
	return Options{ImplicitMaskingOverride: -1}
}

// CheckpointAxis builds the checkpoint-policy enumeration axis from a list
// of checkpoint counts: the zero (no-policy) point followed by a local and a
// TMR-voted policy per count. It is the canonical axis behind the service's
// ckpt_modes/ckpt_intervals knobs.
func CheckpointAxis(intervals []int) []faultmodel.CheckpointPolicy {
	out := []faultmodel.CheckpointPolicy{{}}
	for _, n := range intervals {
		out = append(out,
			faultmodel.CheckpointPolicy{Mode: faultmodel.CkptLocal, Interval: n},
			faultmodel.CheckpointPolicy{Mode: faultmodel.CkptTMR, Interval: n},
		)
	}
	return out
}

// Enumerate generates and evaluates every CLR-integrated candidate of one
// task type on the platform. The candidates are listed first, at exact
// capacity, and then evaluated in parallel on workers drawn from the
// process CPU-token pool (sweep.AcquireWorkers). Candidate order and
// metrics do not depend on the worker count, and an evaluation error is the
// lowest failing candidate's, the one a serial enumeration would report.
func Enumerate(lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options) ([]Candidate, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	hws := indicesOrAll(opt.HW, len(cat.HW))
	ssws := indicesOrAll(opt.SSW, len(cat.SSW))
	asws := indicesOrAll(opt.ASW, len(cat.ASW))
	// The checkpoint-policy axis multiplies the enumeration; a nil axis is
	// the single zero policy, which — together with a nil fault model —
	// routes through the legacy Evaluate so candidate order and metrics stay
	// bit-identical to the pre-subsystem engine.
	policies := opt.Checkpoints
	if policies == nil {
		policies = zeroPolicyAxis[:]
	}
	bases := lib.ImplsShared(taskType)
	total := 0
	for _, base := range bases {
		pt := p.Types()[base.PETypeIndex]
		for _, mode := range indicesOrAll(opt.Modes, len(pt.Modes)) {
			if mode < len(pt.Modes) {
				total += len(hws) * len(ssws) * len(asws) * len(policies)
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("tdse: task type %d yielded no candidates", taskType)
	}
	out := make([]Candidate, 0, total)
	for _, base := range bases {
		if opt.ImplicitMaskingOverride >= 0 {
			base.ImplicitMasking = opt.ImplicitMaskingOverride
		}
		pt := p.Types()[base.PETypeIndex]
		for _, mode := range indicesOrAll(opt.Modes, len(pt.Modes)) {
			if mode >= len(pt.Modes) {
				continue
			}
			for _, hw := range hws {
				for _, ssw := range ssws {
					for _, asw := range asws {
						asg := relmodel.Assignment{Mode: mode, HW: hw, SSW: ssw, ASW: asw}
						for _, ck := range policies {
							out = append(out, Candidate{Base: base, Assignment: asg, Checkpoint: ck})
						}
					}
				}
			}
		}
	}
	if err := evaluate(out, taskType, p, cat, opt.Faults); err != nil {
		return nil, err
	}
	return out, nil
}

// evalChunk is the number of consecutive candidates one evaluation task
// covers: enough to amortize the task's dispatch, few enough that workers
// share the tail of a task type evenly.
const evalChunk = 64

// evaluate fills in the metrics of every candidate. Consecutive chunks of
// candidates run as sweep.Run tasks on workers from the CPU-token pool;
// sweep.Run reports the lowest failing task's error, and a task stops at
// its first failing candidate, so the error is the lowest failing
// candidate's.
func evaluate(cands []Candidate, taskType int, p *platform.Platform, cat *relmodel.Catalog, faults *faultmodel.Model) error {
	types := p.Types()
	tasks := make([]func() error, 0, (len(cands)+evalChunk-1)/evalChunk)
	for lo := 0; lo < len(cands); lo += evalChunk {
		chunk := cands[lo:min(lo+evalChunk, len(cands))]
		tasks = append(tasks, func() error {
			for i := range chunk {
				c := &chunk[i]
				pt := types[c.Base.PETypeIndex]
				var err error
				if faults == nil && !c.Checkpoint.Enabled() {
					c.Metrics, err = relmodel.Evaluate(c.Base, c.Assignment, pt, cat)
				} else {
					c.Metrics, err = relmodel.EvaluateFM(c.Base, c.Assignment, pt, cat, faults.For(pt.Name), c.Checkpoint)
				}
				if err != nil {
					return fmt.Errorf("tdse: task type %d: %w", taskType, err)
				}
			}
			return nil
		})
	}
	workers := sweep.AcquireWorkers(min(runtime.GOMAXPROCS(0), len(tasks)))
	defer sweep.ReleaseWorkers(workers)
	return sweep.Run(workers, tasks)
}

// zeroPolicyAxis is the degenerate checkpoint axis of legacy enumerations.
var zeroPolicyAxis = [1]faultmodel.CheckpointPolicy{}

func indicesOrAll(sel []int, n int) []int {
	if sel != nil {
		return sel
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Filter Pareto-filters candidates under the objective set, independently
// within each PE type (see the package comment), and returns the union:
// PE types in order of first appearance, each type's survivors in candidate
// order. Only the survivors are copied; the objective vectors of one PE
// type share a single buffer.
func Filter(cands []Candidate, objectives []Objective) []Candidate {
	if len(objectives) == 0 {
		panic("tdse: empty objective set")
	}
	var types []int
	for i := range cands {
		if pti := cands[i].Base.PETypeIndex; !slices.Contains(types, pti) {
			types = append(types, pti)
		}
	}
	k := len(objectives)
	var (
		out     []Candidate
		members []int
		flat    []float64
		pts     [][]float64
	)
	for _, pti := range types {
		members = members[:0]
		for i := range cands {
			if cands[i].Base.PETypeIndex == pti {
				members = append(members, i)
			}
		}
		if n := len(members) * k; cap(flat) < n {
			flat = make([]float64, n)
			pts = make([][]float64, len(members))
		}
		pts = pts[:len(members)]
		for j, ci := range members {
			v := flat[j*k : (j+1)*k : (j+1)*k]
			for o, obj := range objectives {
				v[o] = Value(cands[ci].Metrics, obj)
			}
			pts[j] = v
		}
		for _, j := range pareto.Filter(pts) {
			out = append(out, cands[members[j]])
		}
	}
	return out
}

// Explore is Enumerate followed by Filter: the tDSE of one task type.
func Explore(lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) ([]Candidate, error) {
	cands, err := Enumerate(lib, taskType, p, cat, opt)
	if err != nil {
		return nil, err
	}
	return Filter(cands, objectives), nil
}

// Library holds the Pareto-filtered implementation sets of every task type:
// the Ipf_t of §V.B, the input to pfCLR system-level DSE.
type Library struct {
	ByType [][]Candidate
}

// Build runs Explore for every task type of the characterization library.
func Build(lib *characterize.Library, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) (*Library, error) {
	out := &Library{ByType: make([][]Candidate, lib.NumTypes())}
	for tt := 0; tt < lib.NumTypes(); tt++ {
		f, err := Explore(lib, tt, p, cat, opt, objectives)
		if err != nil {
			return nil, err
		}
		out.ByType[tt] = f
	}
	return out, nil
}

// Impls returns the filtered candidates of a task type.
func (l *Library) Impls(taskType int) []Candidate {
	if taskType < 0 || taskType >= len(l.ByType) {
		panic(fmt.Sprintf("tdse: task type %d out of range", taskType))
	}
	return l.ByType[taskType]
}

// Counts returns the number of Pareto implementations per task type
// (the bars of Fig. 9 and cells of TABLE IV).
func (l *Library) Counts() []int {
	out := make([]int, len(l.ByType))
	for i, s := range l.ByType {
		out[i] = len(s)
	}
	return out
}
