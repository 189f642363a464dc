package core

import (
	"fmt"
	"math/rand"

	"repro/internal/faultmodel"
	"repro/internal/moea"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/tdse"
)

// layerRestriction narrows the configuration degrees of freedom of an
// fcProblem, implementing the single-layer baselines of §VI.C.
type layerRestriction struct {
	// freeModes allows DVFS modes other than nominal.
	freeModes bool
	// freeHW / freeSSW / freeASW allow methods other than "none" (index 0)
	// at the respective layer.
	freeHW, freeSSW, freeASW bool
}

// allFree is the unrestricted cross-layer search space of fcCLR.
var allFree = layerRestriction{freeModes: true, freeHW: true, freeSSW: true, freeASW: true}

// fcProblem is the full-configuration CLR task-mapping problem (fcCLR):
// gene fields select the base implementation, DVFS mode and one method per
// layer; Markov evaluations are memoized in the instance's shared metric
// table, so concurrent strategies on the same instance reuse each other's
// work (see cache.go).
type fcProblem struct {
	inst      *Instance
	restrict  layerRestriction
	mutFields []int   // the gene fields MutateGene draws from
	compat    [][]int // PE ids per PE type index
	objs      []SystemObjective
	table     *metricsTable
}

func newFCProblem(inst *Instance, restrict layerRestriction) *fcProblem {
	table := inst.sharedMetrics()
	table.allocate(inst)
	return &fcProblem{
		inst:      inst,
		restrict:  restrict,
		mutFields: mutableFields(restrict),
		compat:    compatiblePEs(inst.Platform),
		objs:      inst.objectives(),
		table:     table,
	}
}

func (p *fcProblem) NumTasks() int      { return p.inst.Graph.NumTasks() }
func (p *fcProblem) NumObjectives() int { return len(p.objs) }

func (p *fcProblem) RandomGene(rng *rand.Rand, task int) moea.Gene {
	tt := p.inst.Graph.Task(task).Type
	g := moea.Gene{
		Impl: draw(rng, len(p.inst.Lib.ImplsShared(tt))),
		PE:   draw(rng, p.inst.Platform.NumPEs()),
	}
	if p.restrict.freeModes {
		g.Mode = draw(rng, p.table.modes)
	}
	if p.restrict.freeHW {
		g.HW = draw(rng, len(p.inst.Catalog.HW))
	}
	if p.restrict.freeSSW {
		g.SSW = draw(rng, len(p.inst.Catalog.SSW))
	}
	if p.restrict.freeASW {
		g.ASW = draw(rng, len(p.inst.Catalog.ASW))
	}
	return g
}

func (p *fcProblem) MutateGene(rng *rand.Rand, task int, g moea.Gene) moea.Gene {
	// Single-point configuration mutation: re-randomize one free field.
	tt := p.inst.Graph.Task(task).Type
	switch p.mutFields[rng.Intn(len(p.mutFields))] {
	case 0:
		g.Impl = draw(rng, len(p.inst.Lib.ImplsShared(tt)))
	case 1:
		g.PE = draw(rng, p.inst.Platform.NumPEs())
	case 2:
		g.Mode = draw(rng, p.table.modes)
	case 3:
		g.HW = draw(rng, len(p.inst.Catalog.HW))
	case 4:
		g.SSW = draw(rng, len(p.inst.Catalog.SSW))
	case 5:
		g.ASW = draw(rng, len(p.inst.Catalog.ASW))
	}
	return g
}

// mutableFields lists the gene fields MutateGene may re-randomize under r,
// numbered as its switch numbers them.
func mutableFields(r layerRestriction) []int {
	fields := append(make([]int, 0, 6), 0, 1) // impl and pe are mapping decisions
	if r.freeModes {
		fields = append(fields, 2)
	}
	if r.freeHW {
		fields = append(fields, 3)
	}
	if r.freeSSW {
		fields = append(fields, 4)
	}
	if r.freeASW {
		fields = append(fields, 5)
	}
	return fields
}

// draw is rng.Intn(n) as a gene value: the same random stream, stored in
// the gene's width.
func draw(rng *rand.Rand, n int) int32 { return int32(rng.Intn(n)) }

// decodeGene resolves a gene into the concrete (implementation, assignment,
// PE id) triple. The PE field indexes into the PEs compatible with the
// chosen implementation's PE type (modulo), so every gene decodes validly.
func (p *fcProblem) decodeGene(task int, g moea.Gene) (relmodel.Impl, relmodel.Assignment, int) {
	impls := p.inst.Lib.ImplsShared(p.inst.Graph.Task(task).Type)
	impl := impls[mod(int(g.Impl), len(impls))]
	peList := p.compat[impl.PETypeIndex]
	return impl, p.assignment(g, impl.PETypeIndex), peList[mod(int(g.PE), len(peList))]
}

// assignment decodes the gene's CLR assignment on PE type pt. Fields of a
// restricted layer decode to 0, so the restricted runs share the full
// run's table entries.
func (p *fcProblem) assignment(g moea.Gene, pt int) (asg relmodel.Assignment) {
	if p.restrict.freeModes {
		asg.Mode = mod(int(g.Mode), len(p.inst.Platform.Types()[pt].Modes))
	}
	if p.restrict.freeHW {
		asg.HW = mod(int(g.HW), len(p.inst.Catalog.HW))
	}
	if p.restrict.freeSSW {
		asg.SSW = mod(int(g.SSW), len(p.inst.Catalog.SSW))
	}
	if p.restrict.freeASW {
		asg.ASW = mod(int(g.ASW), len(p.inst.Catalog.ASW))
	}
	return asg
}

// decodeDecision resolves one task's gene into its schedule decision — the
// per-task decode step shared by full and delta evaluation. It indexes the
// metric table straight from the gene; only a miss builds the
// implementation's evaluation, once per key.
func (p *fcProblem) decodeDecision(task int, g moea.Gene) schedule.TaskDecision {
	tt := p.inst.Graph.Task(task).Type
	impls := p.inst.Lib.ImplsShared(tt)
	i := mod(int(g.Impl), len(impls))
	impl := &impls[i]
	asg := p.assignment(g, impl.PETypeIndex)
	e := p.table.entry(tt, i, asg)
	e.once.Do(func() { e.m = p.evaluate(impl, asg) })
	peList := p.compat[impl.PETypeIndex]
	d := schedule.TaskDecision{PE: peList[mod(int(g.PE), len(peList))], Metrics: e.m}
	if p.inst.EnforceMemory {
		d.MemKB = relmodel.EffectiveFootprintKB(*impl, asg, p.inst.Catalog)
	}
	return d
}

// evaluate runs the Markov analysis of one key. The checkpoint-policy axis
// is a tDSE decision carried by pfCLR candidates, not an fcCLR gene:
// full-configuration genomes evaluate at the zero policy.
func (p *fcProblem) evaluate(impl *relmodel.Impl, asg relmodel.Assignment) relmodel.Metrics {
	pt := p.inst.Platform.Types()[impl.PETypeIndex]
	m, err := relmodel.EvaluateFM(*impl, asg, pt, p.inst.Catalog,
		p.inst.Faults.For(pt.Name), faultmodel.CheckpointPolicy{})
	if err != nil {
		// Decoding guarantees validity; an error here is a programming
		// error, surfaced loudly.
		panic("core: task metrics evaluation failed: " + err.Error())
	}
	return m
}

// problemCore accessors (see delta.go).
func (p *fcProblem) instance() *Instance        { return p.inst }
func (p *fcProblem) sysObjs() []SystemObjective { return p.objs }

// NewEvaluator implements moea.ScratchProblem.
func (p *fcProblem) NewEvaluator() moea.Evaluator { return newCoreEvaluator(p) }

func (p *fcProblem) Evaluate(g *moea.Genome) moea.Evaluation {
	return p.NewEvaluator().Evaluate(g)
}

// pfProblem is the Pareto-filtered task-mapping problem (pfCLR): the Impl
// gene indexes into the tDSE-filtered candidate list of the task's type,
// whose metrics are already evaluated — fitness evaluation reduces to
// scheduling plus the TABLE III estimators.
type pfProblem struct {
	inst   *Instance
	compat [][]int
	objs   []SystemObjective
	// cands is each task's candidate list, resolved once from its type.
	cands [][]tdse.Candidate
	// peTable maps an in-range PE gene k (0 ≤ k < numPEs, the range
	// RandomGene and MutateGene draw from) on PE type pt to its PE id,
	// compat[pt][k mod len(compat[pt])], at index pt·numPEs + k.
	peTable []int
	numPEs  int
}

func newPFProblem(inst *Instance, flib *tdse.Library) *pfProblem {
	p := &pfProblem{
		inst:   inst,
		compat: compatiblePEs(inst.Platform),
		objs:   inst.objectives(),
		cands:  make([][]tdse.Candidate, inst.Graph.NumTasks()),
		numPEs: inst.Platform.NumPEs(),
	}
	for t, task := range inst.Graph.Tasks() {
		p.cands[t] = flib.Impls(task.Type)
	}
	p.peTable = make([]int, len(p.compat)*p.numPEs)
	for pt, peList := range p.compat {
		for k := 0; k < p.numPEs; k++ {
			p.peTable[pt*p.numPEs+k] = peList[k%len(peList)]
		}
	}
	return p
}

func (p *pfProblem) NumTasks() int      { return p.inst.Graph.NumTasks() }
func (p *pfProblem) NumObjectives() int { return len(p.objs) }

func (p *pfProblem) RandomGene(rng *rand.Rand, task int) moea.Gene {
	return moea.Gene{
		Impl: draw(rng, len(p.cands[task])),
		PE:   draw(rng, p.numPEs),
	}
}

func (p *pfProblem) MutateGene(rng *rand.Rand, task int, g moea.Gene) moea.Gene {
	if rng.Intn(2) == 0 {
		g.Impl = draw(rng, len(p.cands[task]))
	} else {
		g.PE = draw(rng, p.numPEs)
	}
	return g
}

// decodeGene resolves a gene into its Pareto-filtered candidate and PE id.
// The candidate is returned by pointer into the library, which is never
// mutated, to keep the hot decode path free of struct copies. In-range
// genes index the candidate list and the PE table directly; any other
// value decodes modulo the candidate list's and the PE list's lengths, so
// every gene decodes validly.
func (p *pfProblem) decodeGene(task int, g moea.Gene) (*tdse.Candidate, int) {
	cands := p.cands[task]
	i := int(g.Impl)
	if uint(i) >= uint(len(cands)) {
		i = mod(i, len(cands))
	}
	c := &cands[i]
	pt := c.Base.PETypeIndex
	if k := int(g.PE); uint(k) < uint(p.numPEs) {
		return c, p.peTable[pt*p.numPEs+k]
	}
	peList := p.compat[pt]
	return c, peList[mod(int(g.PE), len(peList))]
}

// decodeDecision resolves one task's gene against the Pareto-filtered
// candidate library.
func (p *pfProblem) decodeDecision(task int, g moea.Gene) schedule.TaskDecision {
	c, pe := p.decodeGene(task, g)
	d := schedule.TaskDecision{PE: pe, Metrics: c.Metrics}
	if p.inst.EnforceMemory {
		d.MemKB = relmodel.EffectiveFootprintKB(c.Base, c.Assignment, p.inst.Catalog)
	}
	return d
}

// problemCore accessors (see delta.go).
func (p *pfProblem) instance() *Instance        { return p.inst }
func (p *pfProblem) sysObjs() []SystemObjective { return p.objs }

// NewEvaluator implements moea.ScratchProblem.
func (p *pfProblem) NewEvaluator() moea.Evaluator { return newCoreEvaluator(p) }

func (p *pfProblem) Evaluate(g *moea.Genome) moea.Evaluation {
	return p.NewEvaluator().Evaluate(g)
}

func objectiveVector(r *schedule.Result, objs []SystemObjective) []float64 {
	out := make([]float64, len(objs))
	for i, o := range objs {
		out[i] = objectiveValue(r, o)
	}
	return out
}

// specViolation aggregates normalized constraint violations of Eq. 5.
func specViolation(s schedule.Spec, r *schedule.Result) float64 {
	v := 0.0
	if s.MaxMakespanUS > 0 && r.MakespanUS > s.MaxMakespanUS {
		v += r.MakespanUS/s.MaxMakespanUS - 1
	}
	if s.MinFunctionalRel > 0 && r.FunctionalRel < s.MinFunctionalRel {
		v += (s.MinFunctionalRel - r.FunctionalRel) / s.MinFunctionalRel
	}
	if s.MinMTTFHours > 0 && r.MTTFHours < s.MinMTTFHours {
		v += (s.MinMTTFHours - r.MTTFHours) / s.MinMTTFHours
	}
	if s.MaxEnergyUJ > 0 && r.EnergyUJ > s.MaxEnergyUJ {
		v += r.EnergyUJ/s.MaxEnergyUJ - 1
	}
	if s.MaxPeakPowerW > 0 && r.PeakPowerW > s.MaxPeakPowerW {
		v += r.PeakPowerW/s.MaxPeakPowerW - 1
	}
	return v
}

// skippedAggregates is the set of Eq. 2/4 reductions that neither
// objectiveValue over objs nor specViolation over inst.Spec reads: a
// fitness evaluation leaves them out of its schedule.Result. Any change to
// either function must be mirrored here.
func skippedAggregates(inst *Instance, objs []SystemObjective) schedule.Aggregates {
	skip := schedule.AggMTTF | schedule.AggEnergy | schedule.AggPeakPower
	for _, o := range objs {
		switch o {
		case Makespan, AppErrProb:
		case Lifetime:
			skip &^= schedule.AggMTTF
		case Energy:
			skip &^= schedule.AggEnergy
		case PeakPower:
			skip &^= schedule.AggPeakPower
		default:
			panic(fmt.Sprintf("core: unknown system objective %d", int(o)))
		}
	}
	if inst.Spec.MinMTTFHours > 0 {
		skip &^= schedule.AggMTTF
	}
	if inst.Spec.MaxEnergyUJ > 0 {
		skip &^= schedule.AggEnergy
	}
	if inst.Spec.MaxPeakPowerW > 0 {
		skip &^= schedule.AggPeakPower
	}
	return skip
}

// totalViolation aggregates the Eq. 5 QoS violations with the optional
// storage-constraint violations.
func totalViolation(inst *Instance, r *schedule.Result) float64 {
	v := specViolation(inst.Spec, r)
	if inst.EnforceMemory {
		for _, over := range schedule.MemoryViolations(r, inst.Platform) {
			v += over
		}
	}
	return v
}

func mod(x, n int) int {
	if n <= 0 {
		panic("core: modulo of empty range")
	}
	x %= n
	if x < 0 {
		x += n
	}
	return x
}
