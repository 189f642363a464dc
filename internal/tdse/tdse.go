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
// List generates the candidates without evaluating them, and Enumerate
// analyses the chains of every one; Fig. 6(a), cmd/tdse and the oracles
// need them all. Explore and Build return the same libraries bit for bit
// but analyse far fewer. Each (task type, PE type) group is one task on a
// shared set of sweep workers; it streams its candidates from the
// enumeration axes through one fused closed-form pass
// (relmodel.Space.Estimate, the metrics of relmodel.EstimateFM), drops
// those another candidate's estimate beats by more than ScreenSlack in
// every estimated objective, and solves the chains only of the rest before
// filtering. No Candidate exists for a dropped candidate. See Explore for
// the rule and its fallback to the full path.
package tdse

import (
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
// task type on the platform: List, then the exact evaluation of every
// candidate in parallel on workers drawn from the process CPU-token pool
// (sweep.AcquireWorkers). Candidate order and metrics do not depend on the
// worker count, and an evaluation error is the lowest failing candidate's,
// the one a serial enumeration would report.
func Enumerate(lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options) ([]Candidate, error) {
	cands, err := List(lib, taskType, p, cat, opt)
	if err != nil {
		return nil, err
	}
	if err := evaluate(cands, taskType, p, cat, opt.Faults); err != nil {
		return nil, err
	}
	return cands, nil
}

// List generates the candidates of one task type in enumeration order —
// base implementation, DVFS mode, HW, SSW and ASW method, checkpoint
// policy, the last varying fastest — with their metrics still zero, in a
// slice of exact capacity. Nothing is evaluated, so an invalid method
// index or policy is only reported by Enumerate.
func List(lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options) ([]Candidate, error) {
	ax, err := newAxes(p, cat, opt)
	if err != nil {
		return nil, err
	}
	bases := lib.ImplsShared(taskType)
	per := ax.perMode()
	total := 0
	for _, base := range bases {
		total += len(ax.modes[base.PETypeIndex]) * per
	}
	if total == 0 {
		return nil, fmt.Errorf("tdse: task type %d yielded no candidates", taskType)
	}
	out := make([]Candidate, 0, total)
	for _, base := range bases {
		if opt.ImplicitMaskingOverride >= 0 {
			base.ImplicitMasking = opt.ImplicitMaskingOverride
		}
		for _, mode := range ax.modes[base.PETypeIndex] {
			for _, hw := range ax.hw {
				for _, ssw := range ax.ssw {
					for _, asw := range ax.asw {
						asg := relmodel.Assignment{Mode: mode, HW: hw, SSW: ssw, ASW: asw}
						for _, ck := range ax.policies {
							out = append(out, Candidate{Base: base, Assignment: asg, Checkpoint: ck})
						}
					}
				}
			}
		}
	}
	return out, nil
}

// axes are the enumeration axes of Options, shared by every task type.
type axes struct {
	// modes holds, per PE type index, the DVFS modes enumerated on it:
	// Options.Modes without the indices past the type's last mode.
	modes        [][]int
	hw, ssw, asw []int
	// policies is the checkpoint axis as listed (Candidate.Checkpoint) and
	// evalPolicies as evaluated (evalPolicy).
	policies, evalPolicies []faultmodel.CheckpointPolicy
}

func newAxes(p *platform.Platform, cat *relmodel.Catalog, opt Options) (axes, error) {
	if err := cat.Validate(); err != nil {
		return axes{}, err
	}
	// The "all" axes are prefixes of one 0, 1, 2, … list.
	n := max(len(cat.HW), len(cat.SSW), len(cat.ASW))
	for _, pt := range p.Types() {
		n = max(n, len(pt.Modes))
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	orAll := func(sel []int, n int) []int {
		if sel != nil {
			return sel
		}
		return all[:n:n]
	}
	ax := axes{
		modes:    make([][]int, len(p.Types())),
		hw:       orAll(opt.HW, len(cat.HW)),
		ssw:      orAll(opt.SSW, len(cat.SSW)),
		asw:      orAll(opt.ASW, len(cat.ASW)),
		policies: opt.Checkpoints,
	}
	for i, pt := range p.Types() {
		missing := func(m int) bool { return m >= len(pt.Modes) }
		ax.modes[i] = orAll(opt.Modes, len(pt.Modes))
		if slices.ContainsFunc(ax.modes[i], missing) {
			ax.modes[i] = slices.DeleteFunc(slices.Clone(ax.modes[i]), missing)
		}
	}
	// The checkpoint-policy axis multiplies the enumeration; a nil axis is
	// the single zero policy, which — together with a nil fault model —
	// evaluates exactly as the pre-subsystem engine did, so candidate order
	// and metrics stay bit-identical to it.
	if ax.policies == nil {
		ax.policies = zeroPolicyAxis[:]
	}
	ax.evalPolicies = make([]faultmodel.CheckpointPolicy, len(ax.policies))
	for i, ck := range ax.policies {
		ax.evalPolicies[i] = evalPolicy(opt.Faults, ck)
	}
	return ax, nil
}

// perMode returns the number of candidates per base implementation and
// DVFS mode.
func (ax *axes) perMode() int {
	return len(ax.hw) * len(ax.ssw) * len(ax.asw) * len(ax.policies)
}

// evalChunk is the number of consecutive candidates one evaluation task
// of Enumerate covers: enough to amortize the task's dispatch, few enough
// that workers share the tail of a task type evenly.
const evalChunk = 64

// evaluate fills in the exact metrics of the candidates. Consecutive
// chunks of candidates run as sweep.Run tasks on workers from the
// CPU-token pool; sweep.Run reports the lowest failing task's error, and a
// task stops at its first failing candidate, so the error is the lowest
// failing candidate's.
func evaluate(cands []Candidate, taskType int, p *platform.Platform, cat *relmodel.Catalog, faults *faultmodel.Model) error {
	types := p.Types()
	tasks := make([]func() error, 0, (len(cands)+evalChunk-1)/evalChunk)
	for lo := 0; lo < len(cands); lo += evalChunk {
		hi := min(lo+evalChunk, len(cands))
		tasks = append(tasks, func() error {
			for i := lo; i < hi; i++ {
				c := &cands[i]
				m, err := evalExact(c, types[c.Base.PETypeIndex], cat, faults)
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

// evalExact returns the exact metrics of candidate c on its PE type pt.
func evalExact(c *Candidate, pt *platform.PEType, cat *relmodel.Catalog, faults *faultmodel.Model) (relmodel.Metrics, error) {
	return relmodel.EvaluateFM(c.Base, c.Assignment, pt, cat, faults.For(pt.Name), evalPolicy(faults, c.Checkpoint))
}

// evalPolicy is the policy a candidate is evaluated under: without a
// fault model a disabled policy is no policy at all (the legacy path,
// relmodel.Evaluate).
func evalPolicy(faults *faultmodel.Model, ck faultmodel.CheckpointPolicy) faultmodel.CheckpointPolicy {
	if faults == nil && !ck.Enabled() {
		return faultmodel.CheckpointPolicy{}
	}
	return ck
}

// zeroPolicyAxis is the degenerate checkpoint axis of legacy enumerations.
var zeroPolicyAxis = [1]faultmodel.CheckpointPolicy{}

// Filter Pareto-filters candidates under the objective set, independently
// within each PE type (see the package comment), and returns the union:
// PE types in order of first appearance, each type's survivors in candidate
// order. Only the survivors are copied; the objective vectors of one PE
// type share a single buffer.
func Filter(cands []Candidate, objectives []Objective) []Candidate {
	if len(objectives) == 0 {
		panic("tdse: empty objective set")
	}
	var (
		out     []Candidate
		members []int
		ps      paretoScratch
	)
	for _, pti := range peTypes(cands) {
		members = members[:0]
		for i := range cands {
			if cands[i].Base.PETypeIndex == pti {
				members = append(members, i)
			}
		}
		for _, j := range ps.front(cands, members, objectives) {
			out = append(out, cands[members[j]])
		}
	}
	return out
}

// paretoScratch holds the objective vectors of one Pareto filter.
type paretoScratch struct {
	flat []float64
	pts  [][]float64
}

// front returns, in ascending order, the positions in members of the
// candidates that no other one listed there dominates under objectives
// (pareto.Filter).
func (ps *paretoScratch) front(cands []Candidate, members []int, objectives []Objective) []int {
	n, k := len(members), len(objectives)
	if cap(ps.flat) < n*k {
		ps.flat = make([]float64, n*k)
	}
	if cap(ps.pts) < n {
		ps.pts = make([][]float64, n)
	}
	pts := ps.pts[:n]
	for j, ci := range members {
		v := ps.flat[j*k : (j+1)*k : (j+1)*k]
		for o, obj := range objectives {
			v[o] = Value(cands[ci].Metrics, obj)
		}
		pts[j] = v
	}
	return pareto.Filter(pts)
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
// The candidates of each PE type form one group, and the groups run as
// tasks on one set of sweep workers. A group streams its candidates from
// the enumeration axes into relmodel.Space.Estimate, which estimates each
// in closed form (the metrics of relmodel.EstimateFM), and screens them on
// the fly: a candidate p is screened out when another candidate q of the
// group beats it — q's band lies strictly below p's on every estimated
// objective, q is no worse on every exact one, and strictly better on at
// least one objective. Only the unbeaten candidates become Candidates;
// they are evaluated exactly and then filtered, and the library is the
// groups' fronts in order of first appearance of their PE types. The
// output cannot change: a screened-out candidate is strictly dominated by
// a survivor (follow the chain of candidates that beat it), so removing
// it changes no survivor's fate.
//
// The task type falls back to the full path — Enumerate's exact
// evaluation of every candidate, then Filter — if any of its groups has
// an invalid axis value or chain parameter or a non-finite estimate, or
// if an exact evaluation fails or leaves its estimate's band; errors are
// therefore the lowest failing candidate's, as with Enumerate.
func Explore(lib *characterize.Library, taskType int, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) ([]Candidate, error) {
	out, err := explore(lib, []int{taskType}, p, cat, opt, objectives)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// exploration holds the inputs of one Explore or Build.
type exploration struct {
	lib        *characterize.Library
	p          *platform.Platform
	cat        *relmodel.Catalog
	opt        Options
	objectives []Objective
	axes
}

// group is the part of one task type's tDSE on one PE type.
type group struct {
	taskType, peType int
	// size is the number of candidates.
	size int
	// front is the group's part of the library, set once ok.
	front []Candidate
	// ok reports that the screened path succeeded.
	ok bool
}

// explore is the screened tDSE of the listed task types, whose libraries
// it returns in the same order: every group of every task type runs as
// one task on a single set of workers, and the task types whose groups
// failed then take the full path in order, so an error is the first
// failing task type's.
func explore(lib *characterize.Library, taskTypes []int, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) ([][]Candidate, error) {
	ax, err := newAxes(p, cat, opt)
	if err != nil {
		return nil, err
	}
	e := &exploration{lib: lib, p: p, cat: cat, opt: opt, objectives: objectives, axes: ax}
	// The screen holds one objective vector on the stack; a longer set
	// repeats an objective and takes the full path.
	screened := len(objectives) > 0 && len(objectives) <= int(numObjectives)
	groups, first := e.plan(taskTypes)

	if screened && len(groups) > 0 {
		// Largest groups first, so that no large one starts last.
		order := make([]int, len(groups))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return groups[b].size - groups[a].size })
		tasks := make([]func() error, len(order))
		for i, g := range order {
			tasks[i] = func() error {
				groups[g].run(e)
				return nil
			}
		}
		workers := sweep.AcquireWorkers(min(runtime.GOMAXPROCS(0), len(tasks)))
		// Group tasks never fail; they record failure in group.ok.
		_ = sweep.Run(workers, tasks)
		sweep.ReleaseWorkers(workers)
	}

	out := make([][]Candidate, len(taskTypes))
	for i, tt := range taskTypes {
		gs := groups[first[i]:first[i+1]]
		if len(gs) == 0 {
			return nil, fmt.Errorf("tdse: task type %d yielded no candidates", tt)
		}
		ok := screened
		for _, g := range gs {
			ok = ok && g.ok
		}
		if !ok {
			screenTotals.fallbacks.Add(1)
			cands, err := Enumerate(lib, tt, p, cat, opt)
			if err != nil {
				return nil, err
			}
			out[i] = Filter(cands, objectives)
			continue
		}
		if len(gs) == 1 {
			out[i] = gs[0].front
			continue
		}
		n := 0
		for _, g := range gs {
			n += len(g.front)
		}
		out[i] = make([]Candidate, 0, n)
		for _, g := range gs {
			out[i] = append(out[i], g.front...)
		}
	}
	return out, nil
}

// plan lists the groups of the task types: taskTypes[i] has the groups
// groups[first[i]:first[i+1]], in order of first appearance of their PE
// types among its candidates.
func (e *exploration) plan(taskTypes []int) (groups []group, first []int) {
	first = make([]int, len(taskTypes)+1)
	per := e.perMode()
	for i, tt := range taskTypes {
		first[i] = len(groups)
		for _, base := range e.lib.ImplsShared(tt) {
			pti := base.PETypeIndex
			n := len(e.modes[pti]) * per
			if n == 0 {
				continue
			}
			if g := slices.IndexFunc(groups[first[i]:], func(g group) bool { return g.peType == pti }); g >= 0 {
				groups[first[i]+g].size += n
			} else {
				groups = append(groups, group{taskType: tt, peType: pti, size: n})
			}
		}
	}
	first[len(taskTypes)] = len(groups)
	return groups, first
}

// run is the screened path of one group: estimate and screen every
// candidate, then evaluate the survivors exactly, check them against
// their bands and filter them. It runs serially: the group is already one
// task on the workers.
func (g *group) run(e *exploration) {
	sc := groupPool.Get()
	defer groupPool.Put(sc)
	space := e.space(g, sc.impls[:0])
	sc.impls = space.Impls
	sc.screen.reset(e.objectives)
	if space.Estimate(sc.screen.offer) != nil || !sc.screen.ok {
		return
	}
	screenTotals.estimated.Add(uint64(g.size))

	sc.cands, sc.all = sc.cands[:0], sc.all[:0]
	for i, m := range sc.screen.members {
		sc.cands = append(sc.cands, e.candidate(&space, m.at, m.est))
		sc.all = append(sc.all, i)
	}
	screenTotals.solved.Add(uint64(len(sc.cands)))
	for i := range sc.cands {
		c := &sc.cands[i]
		m, err := evalExact(c, space.PE, e.cat, e.opt.Faults)
		if err != nil || !inBand(m, c.Metrics, e.objectives) {
			return
		}
		c.Metrics = m
	}
	idx := sc.pareto.front(sc.cands, sc.all, e.objectives)
	g.front = make([]Candidate, len(idx))
	for i, j := range idx {
		g.front[i] = sc.cands[j]
	}
	g.ok = true
}

// space returns the design space of group g, appending its base
// implementations to impls.
func (e *exploration) space(g *group, impls []relmodel.Impl) relmodel.Space {
	pt := e.p.Types()[g.peType]
	for _, base := range e.lib.ImplsShared(g.taskType) {
		if base.PETypeIndex == g.peType {
			if e.opt.ImplicitMaskingOverride >= 0 {
				base.ImplicitMasking = e.opt.ImplicitMaskingOverride
			}
			impls = append(impls, base)
		}
	}
	return relmodel.Space{
		PE: pt, Catalog: e.cat, Faults: e.opt.Faults.For(pt.Name), Impls: impls,
		Modes: e.modes[g.peType], HW: e.hw, SSW: e.ssw, ASW: e.asw, Policies: e.evalPolicies,
	}
}

// candidate returns the candidate at point at of space s, with metrics m.
func (e *exploration) candidate(s *relmodel.Space, at relmodel.Point, m relmodel.Metrics) Candidate {
	return Candidate{
		Base: s.Impls[at.Impl],
		Assignment: relmodel.Assignment{
			Mode: s.Modes[at.Mode], HW: s.HW[at.HW], SSW: s.SSW[at.SSW], ASW: s.ASW[at.ASW],
		},
		Checkpoint: e.policies[at.Policy],
		Metrics:    m,
	}
}

// groupScratch is the working set of one group: its implementations, the
// screen and the survivors with their positions. Kept on a free list, so
// a process holds only as many as ever ran at once.
type groupScratch struct {
	impls  []relmodel.Impl
	screen screen
	cands  []Candidate
	all    []int
	pareto paretoScratch
}

var groupPool = sweep.FreeList[*groupScratch]{New: func() *groupScratch { return new(groupScratch) }}

// screen is the running set of a group's unbeaten candidates, in
// candidate order. A newcomer is dropped if a member beats it, and
// otherwise drops the members it beats and joins. Beating is a strict
// partial order, so the final set is exactly the candidates nobody beats,
// whatever the order.
type screen struct {
	objectives []Objective
	// est marks the estimated objectives.
	est          [numObjectives]bool
	anyEstimated bool
	members      []member
	// bounds holds 2k values per member, k = len(objectives): the low ends
	// of its bands, then the high ends (both the value itself on an exact
	// objective).
	bounds []float64
	// ok turns false at the first non-finite estimate.
	ok bool
}

// member is one unbeaten candidate: where it lies in the space and its
// estimated metrics.
type member struct {
	at  relmodel.Point
	est relmodel.Metrics
}

func (s *screen) reset(objectives []Objective) {
	s.objectives, s.anyEstimated = objectives, false
	for o, obj := range objectives {
		s.est[o] = estimated(obj)
		s.anyEstimated = s.anyEstimated || s.est[o]
	}
	s.members, s.bounds, s.ok = s.members[:0], s.bounds[:0], true
}

// offer screens the candidate at with estimate m.
func (s *screen) offer(at relmodel.Point, m relmodel.Metrics) {
	if !s.ok {
		return
	}
	if !finite(m.AvgExTimeUS) {
		s.ok = false // a chain that may never absorb
		return
	}
	k := len(s.objectives)
	var buf [2 * numObjectives]float64
	x := buf[:2*k]
	for o, obj := range s.objectives {
		v := Value(m, obj)
		if !finite(v) {
			s.ok = false
			return
		}
		x[o], x[k+o] = v, v
		if s.est[o] {
			x[o], x[k+o] = v-ScreenSlack*math.Abs(v), v+ScreenSlack*math.Abs(v)
		}
	}
	w := 2 * k
	for i := range s.members {
		if s.beats(s.bounds[i*w:(i+1)*w], x) {
			return
		}
	}
	n := 0
	for i := range s.members {
		if !s.beats(x, s.bounds[i*w:(i+1)*w]) {
			if n != i {
				s.members[n] = s.members[i]
				copy(s.bounds[n*w:(n+1)*w], s.bounds[i*w:(i+1)*w])
			}
			n++
		}
	}
	s.members = append(s.members[:n], member{at: at, est: m})
	s.bounds = append(s.bounds[:n*w], x...)
}

// beats reports whether the candidate with bounds q beats the one with
// bounds p: q's band strictly below p's where estimated, q ≤ p where
// exact, q < p somewhere.
func (s *screen) beats(q, p []float64) bool {
	k := len(s.objectives)
	strict := s.anyEstimated
	for o := 0; o < k; o++ {
		if hi, lo := q[k+o], p[o]; hi < lo {
			strict = true
		} else if hi > lo || s.est[o] {
			return false
		}
	}
	return strict
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// screenTotals counts, process-wide, the screened path's work: candidates
// estimated, candidates solved exactly, and task types that fell back to
// the full path.
var screenTotals struct {
	estimated, solved, fallbacks atomic.Uint64
}

// ScreenStats is a snapshot of the screened tDSE's process-wide counters.
type ScreenStats struct {
	// Estimated counts candidates estimated in closed form and Solved the
	// survivors of the screen whose chains were then solved; Fallbacks
	// counts task types that took the full path instead (invalid inputs,
	// chains that may never absorb, or an objective set that repeats an
	// objective past the seven there are).
	Estimated, Solved, Fallbacks uint64
}

// ScreenTotals returns the screened tDSE's process-wide counters, the
// source of the screen_* gauges in the /metrics eval_accel block.
func ScreenTotals() ScreenStats {
	return ScreenStats{
		Estimated: screenTotals.estimated.Load(),
		Solved:    screenTotals.solved.Load(),
		Fallbacks: screenTotals.fallbacks.Load(),
	}
}

// Library holds the Pareto-filtered implementation sets of every task type:
// the Ipf_t of §V.B, the input to pfCLR system-level DSE.
type Library struct {
	ByType [][]Candidate
}

// Build runs Explore for every task type of the characterization library,
// with the groups of all task types on one set of workers.
func Build(lib *characterize.Library, p *platform.Platform, cat *relmodel.Catalog, opt Options, objectives []Objective) (*Library, error) {
	types := make([]int, lib.NumTypes())
	for i := range types {
		types[i] = i
	}
	byType, err := explore(lib, types, p, cat, opt, objectives)
	if err != nil {
		return nil, err
	}
	return &Library{ByType: byType}, nil
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
