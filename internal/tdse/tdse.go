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
//
// Enumerate analyses the chains of every candidate; Fig. 6(a), cmd/tdse and
// the oracles need them all. Explore and Build return the same libraries
// bit for bit but analyse far fewer: they estimate every candidate in
// closed form (relmodel.EstimateFM), drop those another candidate's
// estimate beats by more than ScreenSlack in every estimated objective,
// and solve the chains only of the rest before filtering. See Explore for
// the rule and its fallback to the full path.
package tdse

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

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
	cands, err := list(nil, lib, taskType, p, cat, opt)
	if err != nil {
		return nil, err
	}
	if err := evaluate(cands, nil, taskType, p, cat, opt.Faults, pass{}); err != nil {
		return nil, err
	}
	return cands, nil
}

// list generates the candidates of one task type, in enumeration order and
// with their metrics still zero, into buf if it has the capacity and into a
// new slice of exact capacity otherwise.
func list(buf []Candidate, lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options) ([]Candidate, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	hws := indicesOrAll(opt.HW, len(cat.HW))
	ssws := indicesOrAll(opt.SSW, len(cat.SSW))
	asws := indicesOrAll(opt.ASW, len(cat.ASW))
	// The checkpoint-policy axis multiplies the enumeration; a nil axis is
	// the single zero policy, which — together with a nil fault model —
	// evaluates exactly as the pre-subsystem engine did, so candidate order
	// and metrics stay bit-identical to it.
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
	out := buf[:0]
	if cap(out) < total {
		out = make([]Candidate, 0, total)
	}
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
	return out, nil
}

// evalChunk is the number of consecutive candidates one evaluation task
// covers: enough to amortize the task's dispatch, few enough that workers
// share the tail of a task type evenly. Closed-form estimates cost a small
// fraction of a chain analysis and run in larger chunks.
const (
	evalChunk     = 64
	estimateChunk = 1024
)

// pass selects what evaluate computes for each candidate.
type pass struct {
	// estimate computes the closed-form estimate (relmodel.EstimateFM)
	// instead of the exact chain analysis (relmodel.EvaluateFM).
	estimate bool
	// check, on an exact pass over estimated candidates, requires every
	// exact objective value in it to fall within the estimate's band
	// (inBand) and fails with errOutsideBand otherwise.
	check []Objective
}

// errOutsideBand reports an exact value outside its estimate's band.
var errOutsideBand = errors.New("exact metrics outside the estimate's band")

// evaluate fills in the metrics of the candidates sel lists (all of them
// when sel is nil), as ps selects. Consecutive chunks of candidates run as
// sweep.Run tasks on workers from the CPU-token pool; sweep.Run reports the
// lowest failing task's error, and a task stops at its first failing
// candidate, so the error is the lowest failing candidate's.
func evaluate(cands []Candidate, sel []int32, taskType int, p *platform.Platform, cat *relmodel.Catalog, faults *faultmodel.Model, ps pass) error {
	types := p.Types()
	n, chunk := len(cands), evalChunk
	if sel != nil {
		n = len(sel)
	}
	if ps.estimate {
		chunk = estimateChunk
	}
	tasks := make([]func() error, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		tasks = append(tasks, func() error {
			for j := lo; j < hi; j++ {
				i := j
				if sel != nil {
					i = int(sel[j])
				}
				c := &cands[i]
				pt := types[c.Base.PETypeIndex]
				fm, ck := faults.For(pt.Name), c.Checkpoint
				if faults == nil && !ck.Enabled() {
					// The legacy path (relmodel.Evaluate): without a fault
					// model a disabled policy is no policy at all.
					ck = faultmodel.CheckpointPolicy{}
				}
				var m relmodel.Metrics
				var err error
				if ps.estimate {
					m, err = relmodel.EstimateFM(c.Base, c.Assignment, pt, cat, fm, ck)
				} else {
					m, err = relmodel.EvaluateFM(c.Base, c.Assignment, pt, cat, fm, ck)
				}
				if err == nil && ps.check != nil && !inBand(m, c.Metrics, ps.check) {
					err = errOutsideBand
				}
				if err != nil {
					return fmt.Errorf("tdse: task type %d: %w", taskType, err)
				}
				c.Metrics = m
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
	return filter(cands, nil, objectives)
}

// filter is Filter over the candidates sel lists (all of them when sel is
// nil), each PE type's in ascending order. PE types still come in order of
// first appearance in cands, so filtering a subset that keeps every type's
// front returns what Filter returns for all of cands.
func filter(cands []Candidate, sel []int32, objectives []Objective) []Candidate {
	if len(objectives) == 0 {
		panic("tdse: empty objective set")
	}
	types := peTypes(cands)
	k := len(objectives)
	var (
		out     []Candidate
		members []int
		flat    []float64
		pts     [][]float64
	)
	for _, pti := range types {
		members = members[:0]
		if sel == nil {
			for i := range cands {
				if cands[i].Base.PETypeIndex == pti {
					members = append(members, i)
				}
			}
		} else {
			for _, i := range sel {
				if cands[i].Base.PETypeIndex == pti {
					members = append(members, int(i))
				}
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

// peTypes lists the PE types of cands in order of first appearance.
func peTypes(cands []Candidate) []int {
	var types []int
	for i := range cands {
		if pti := cands[i].Base.PETypeIndex; !slices.Contains(types, pti) {
			types = append(types, pti)
		}
	}
	return types
}

// ScreenSlack is the relative slack δ of Explore's screen: an estimated
// objective value v stands for the band [v − δ|v|, v + δ|v|], which must
// hold the exact value. The closed forms agree with the chain solver to a
// relative 5e-14 on the committed corpus (relmodel's oracle tests bound the
// gap at δ/1000), so the band is far wider than it needs to be.
const ScreenSlack = 1e-6

// estimated reports whether objective o is derived from the chain
// analyses, which the screen only estimates; the other objectives (power,
// temperature, minimum execution time) are exact in the estimate.
func estimated(o Objective) bool {
	switch o {
	case AvgExT, ErrProb, MTTF, Energy:
		return true
	}
	return false
}

// inBand reports whether the exact metrics fall within the estimate's band
// on every objective: within ScreenSlack on the estimated objectives,
// equal on the exact ones.
func inBand(exact, est relmodel.Metrics, objectives []Objective) bool {
	for _, o := range objectives {
		x, e := Value(exact, o), Value(est, o)
		if estimated(o) {
			if !(math.Abs(x-e) <= ScreenSlack*math.Abs(e)) {
				return false
			}
		} else if x != e {
			return false
		}
	}
	return true
}

// Explore is the tDSE of one task type: the library
// Filter(Enumerate(...)) returns, bit for bit, with the exact chain
// analysis run only on the candidates that can reach it.
//
// Every candidate is first estimated in closed form (relmodel.EstimateFM).
// Within each PE type, a candidate p is screened out when another
// candidate q beats it: q's band lies strictly below p's on every
// estimated objective, q is no worse on every exact one, and strictly
// better on at least one objective. Screened-out candidates are never
// analyzed; the survivors are evaluated exactly and then filtered. The
// output cannot change: a screened-out candidate is strictly dominated by
// a survivor (follow the chain of candidates that beat it), so removing it
// changes no survivor's fate, and filter keeps each PE type in order of
// first appearance among all candidates. The screen falls back to the
// full path — Enumerate's exact evaluation of every candidate, then
// Filter — if any estimate is not finite, any evaluation fails or any
// survivor's exact value leaves its estimate's band; errors are therefore
// the lowest failing candidate's, as with Enumerate.
func Explore(lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) ([]Candidate, error) {
	var buf []Candidate
	return explore(&buf, lib, taskType, p, cat, opt, objectives)
}

// explore is Explore with its candidate list in *buf, which it grows as
// needed and leaves there for the next task type: the library holds only
// copies of the survivors.
func explore(buf *[]Candidate, lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) ([]Candidate, error) {
	cands, err := list(*buf, lib, taskType, p, cat, opt)
	if err != nil {
		return nil, err
	}
	*buf = cands
	// The screen holds one objective vector on the stack; a longer set
	// repeats an objective and takes the full path.
	if len(objectives) > 0 && len(objectives) <= int(numObjectives) {
		sc := screenPool.Get()
		defer screenPool.Put(sc)
		if evaluate(cands, nil, taskType, p, cat, opt.Faults, pass{estimate: true}) == nil {
			if keep, ok := sc.screen(cands, objectives); ok &&
				evaluate(cands, keep, taskType, p, cat, opt.Faults, pass{check: objectives}) == nil {
				return filter(cands, keep, objectives), nil
			}
		}
	}
	screenFallbacks.Add(1)
	if err := evaluate(cands, nil, taskType, p, cat, opt.Faults, pass{}); err != nil {
		return nil, err
	}
	return Filter(cands, objectives), nil
}

// screenFallbacks counts, process-wide, the task types Explore evaluated on
// the full path; the tests require none on valid inputs.
var screenFallbacks atomic.Uint64

// screenScratch is the working set of one screen: the candidate indices of
// the unbeaten set and, k per member, their estimated objective values.
// Kept on a free list, so a process holds only as many as ever ran at
// once.
type screenScratch struct {
	keep []int32
	vals []float64
}

var screenPool = sweep.FreeList[*screenScratch]{New: func() *screenScratch { return new(screenScratch) }}

// screen returns the candidates that no other candidate of their PE type
// beats (see Explore), grouped by PE type in order of first appearance and
// in candidate order within a type. It reports false if an estimate is not
// finite. One pass per PE type keeps a running set of unbeaten candidates:
// a newcomer is dropped if a member beats it, and otherwise drops the
// members it beats and joins. Beating is a strict partial order, so the
// final set is exactly the candidates nobody beats, whatever the order.
func (sc *screenScratch) screen(cands []Candidate, objectives []Objective) ([]int32, bool) {
	k := len(objectives)
	var slack [numObjectives]float64
	anyEstimated := false
	for o, obj := range objectives {
		if estimated(obj) {
			slack[o] = ScreenSlack
			anyEstimated = true
		}
	}
	// beats reports whether values q beat values p: q's band strictly
	// below p's where estimated, q ≤ p where exact, q < p somewhere.
	beats := func(q, p []float64) bool {
		strict := anyEstimated
		for o, d := range slack[:k] {
			switch {
			case d != 0:
				if !(q[o]+d*math.Abs(q[o]) < p[o]-d*math.Abs(p[o])) {
					return false
				}
			case q[o] > p[o]:
				return false
			case q[o] < p[o]:
				strict = true
			}
		}
		return strict
	}
	var x [numObjectives]float64
	keep, vals := sc.keep[:0], sc.vals[:0]
	for _, pti := range peTypes(cands) {
		first := len(keep) // this PE type's members are keep[first:]
		for i := range cands {
			if cands[i].Base.PETypeIndex != pti {
				continue
			}
			if !finite(cands[i].Metrics.AvgExTimeUS) {
				return nil, false // a chain that may never absorb
			}
			for o, obj := range objectives {
				if x[o] = Value(cands[i].Metrics, obj); !finite(x[o]) {
					return nil, false
				}
			}
			beaten := false
			for m := first; m < len(keep) && !beaten; m++ {
				beaten = beats(vals[m*k:(m+1)*k], x[:k])
			}
			if beaten {
				continue
			}
			w := first
			for m := first; m < len(keep); m++ {
				if !beats(x[:k], vals[m*k:(m+1)*k]) {
					keep[w] = keep[m]
					copy(vals[w*k:(w+1)*k], vals[m*k:(m+1)*k])
					w++
				}
			}
			keep = append(keep[:w], int32(i))
			vals = append(vals[:w*k], x[:k]...)
		}
	}
	sc.keep, sc.vals = keep, vals
	return keep, true
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Library holds the Pareto-filtered implementation sets of every task type:
// the Ipf_t of §V.B, the input to pfCLR system-level DSE.
type Library struct {
	ByType [][]Candidate
}

// Build runs Explore for every task type of the characterization library,
// on one candidate list.
func Build(lib *characterize.Library, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) (*Library, error) {
	out := &Library{ByType: make([][]Candidate, lib.NumTypes())}
	var buf []Candidate
	for tt := 0; tt < lib.NumTypes(); tt++ {
		f, err := explore(&buf, lib, tt, p, cat, opt, objectives)
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
