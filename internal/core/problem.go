package core

import (
	"fmt"
	"math/rand"
	"sync"

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
	// fixedGenes, when non-nil, pins each task's PE binding and
	// implementation choice to the given baseline design: only the free
	// layer fields remain degrees of freedom (the Π C_t space of Eq. 5).
	fixedGenes []moea.Gene
}

// allFree is the unrestricted cross-layer search space of fcCLR.
var allFree = layerRestriction{freeModes: true, freeHW: true, freeSSW: true, freeASW: true}

// metricsKey memoizes task-level Markov evaluations: metrics depend only on
// the task type, base implementation, CLR assignment and PE type — not on
// the PE instance or the rest of the genome.
type metricsKey struct {
	taskType, impl int
	asg            relmodel.Assignment
}

// fcProblem is the full-configuration CLR task-mapping problem (fcCLR):
// gene fields select the base implementation, DVFS mode and one method per
// layer; Markov evaluations are memoized in the instance's shared sharded
// cache, so concurrent strategies on the same instance reuse each other's
// work (see cache.go).
type fcProblem struct {
	inst     *Instance
	restrict layerRestriction
	compat   [][]int // PE ids per PE type index
	maxModes int
	objs     []SystemObjective
	cache    *metricsCache

	// batchMu guards batchSeen, PrepareBatch's dedup scratch: the engines
	// call PrepareBatch from the engine goroutine, but one problem may
	// serve several concurrent runs.
	batchMu   sync.Mutex
	batchSeen map[metricsKey]struct{}
}

func newFCProblem(inst *Instance, restrict layerRestriction) *fcProblem {
	return &fcProblem{
		inst:     inst,
		restrict: restrict,
		compat:   compatiblePEs(inst.Platform),
		maxModes: maxModes(inst.Platform),
		objs:     inst.objectives(),
		cache:    inst.sharedMetrics(),
	}
}

func (p *fcProblem) NumTasks() int      { return p.inst.Graph.NumTasks() }
func (p *fcProblem) NumObjectives() int { return len(p.objs) }

func (p *fcProblem) RandomGene(rng *rand.Rand, task int) moea.Gene {
	tt := p.inst.Graph.Task(task).Type
	var g moea.Gene
	if p.restrict.fixedGenes != nil {
		g = p.restrict.fixedGenes[task]
		g.Mode, g.HW, g.SSW, g.ASW = 0, 0, 0, 0
	} else {
		g = moea.Gene{
			Impl: rng.Intn(len(p.inst.Lib.ImplsShared(tt))),
			PE:   rng.Intn(p.inst.Platform.NumPEs()),
		}
	}
	if p.restrict.freeModes {
		g.Mode = rng.Intn(p.maxModes)
	}
	if p.restrict.freeHW {
		g.HW = rng.Intn(len(p.inst.Catalog.HW))
	}
	if p.restrict.freeSSW {
		g.SSW = rng.Intn(len(p.inst.Catalog.SSW))
	}
	if p.restrict.freeASW {
		g.ASW = rng.Intn(len(p.inst.Catalog.ASW))
	}
	return g
}

func (p *fcProblem) MutateGene(rng *rand.Rand, task int, g moea.Gene) moea.Gene {
	// Single-point configuration mutation: re-randomize one free field.
	var fields []int
	if p.restrict.fixedGenes == nil {
		fields = []int{0, 1} // impl and pe are mapping decisions
	}
	if p.restrict.freeModes {
		fields = append(fields, 2)
	}
	if p.restrict.freeHW {
		fields = append(fields, 3)
	}
	if p.restrict.freeSSW {
		fields = append(fields, 4)
	}
	if p.restrict.freeASW {
		fields = append(fields, 5)
	}
	if len(fields) == 0 {
		return g
	}
	tt := p.inst.Graph.Task(task).Type
	switch fields[rng.Intn(len(fields))] {
	case 0:
		g.Impl = rng.Intn(len(p.inst.Lib.ImplsShared(tt)))
	case 1:
		g.PE = rng.Intn(p.inst.Platform.NumPEs())
	case 2:
		g.Mode = rng.Intn(p.maxModes)
	case 3:
		g.HW = rng.Intn(len(p.inst.Catalog.HW))
	case 4:
		g.SSW = rng.Intn(len(p.inst.Catalog.SSW))
	case 5:
		g.ASW = rng.Intn(len(p.inst.Catalog.ASW))
	}
	return g
}

// decodeGene resolves a gene into the concrete (implementation, assignment,
// PE id) triple. The PE field indexes into the PEs compatible with the
// chosen implementation's PE type (modulo), so every gene decodes validly.
func (p *fcProblem) decodeGene(task int, g moea.Gene) (relmodel.Impl, relmodel.Assignment, int) {
	tt := p.inst.Graph.Task(task).Type
	impls := p.inst.Lib.ImplsShared(tt)
	implIdx := mod(g.Impl, len(impls))
	impl := impls[implIdx]
	pt := p.inst.Platform.Types()[impl.PETypeIndex]
	asg := relmodel.Assignment{
		Mode: mod(g.Mode, len(pt.Modes)),
		HW:   mod(g.HW, len(p.inst.Catalog.HW)),
		SSW:  mod(g.SSW, len(p.inst.Catalog.SSW)),
		ASW:  mod(g.ASW, len(p.inst.Catalog.ASW)),
	}
	if !p.restrict.freeModes {
		asg.Mode = 0
	}
	if !p.restrict.freeHW {
		asg.HW = 0
	}
	if !p.restrict.freeSSW {
		asg.SSW = 0
	}
	if !p.restrict.freeASW {
		asg.ASW = 0
	}
	peList := p.compat[impl.PETypeIndex]
	pe := peList[mod(g.PE, len(peList))]
	return impl, asg, pe
}

func (p *fcProblem) taskMetrics(task int, g moea.Gene) (relmodel.Metrics, int) {
	impl, asg, pe := p.decodeGene(task, g)
	tt := p.inst.Graph.Task(task).Type
	impls := p.inst.Lib.ImplsShared(tt)
	key := metricsKey{taskType: tt, impl: mod(g.Impl, len(impls)), asg: asg}
	m := p.cache.lookup(key, func() relmodel.Metrics {
		pt := p.inst.Platform.Types()[impl.PETypeIndex]
		var m relmodel.Metrics
		var err error
		if p.inst.Faults != nil {
			// The checkpoint-policy axis is a tDSE decision carried by
			// pfCLR candidates, not an fcCLR gene: full-configuration
			// genomes evaluate at the zero policy.
			m, err = relmodel.EvaluateFM(impl, asg, pt, p.inst.Catalog,
				p.inst.Faults.For(pt.Name), faultmodel.CheckpointPolicy{})
		} else {
			m, err = relmodel.Evaluate(impl, asg, pt, p.inst.Catalog)
		}
		if err != nil {
			// Decoding guarantees validity; an error here is a programming
			// error, surfaced loudly.
			panic("core: task metrics evaluation failed: " + err.Error())
		}
		return m
	})
	return m, pe
}

// PrepareBatch implements moea.BatchProblem for the fcCLR problem: before
// a generation's offspring fan out to the evaluation workers, the distinct
// task configurations that differ from their parents' are decoded once on
// the engine goroutine, warming the shared Markov-metric cache in a single
// deduplicated pass (each warm solves the task's timing and functional
// chains as one batched pair, see relmodel.AnalyzeChains). Workers then
// hit warm entries instead of serializing on the cache's single-flight
// slots. Purely a cache effect — evaluation results are unchanged.
func (p *fcProblem) PrepareBatch(items []moea.BatchItem) {
	p.batchMu.Lock()
	defer p.batchMu.Unlock()
	if p.batchSeen == nil {
		p.batchSeen = make(map[metricsKey]struct{}, 64)
	}
	warmed := 0
	for _, it := range items {
		if it.Genome == nil {
			continue
		}
		for t, gene := range it.Genome.Genes {
			if it.Parent != nil && gene == it.Parent.Genes[t] {
				continue
			}
			key := p.metricsKeyFor(t, gene)
			if _, ok := p.batchSeen[key]; ok {
				continue
			}
			p.batchSeen[key] = struct{}{}
			p.taskMetrics(t, gene)
			warmed++
		}
	}
	clear(p.batchSeen)
	if warmed > 0 {
		accelCounters.batchWarmed.Add(uint64(warmed))
	}
}

// metricsKeyFor builds the metric-cache key of one task's gene, mirroring
// taskMetrics' key construction.
func (p *fcProblem) metricsKeyFor(task int, g moea.Gene) metricsKey {
	_, asg, _ := p.decodeGene(task, g)
	tt := p.inst.Graph.Task(task).Type
	return metricsKey{taskType: tt, impl: mod(g.Impl, len(p.inst.Lib.ImplsShared(tt))), asg: asg}
}

// decodeDecision resolves one task's gene into its schedule decision — the
// per-task decode step shared by full and delta evaluation.
func (p *fcProblem) decodeDecision(task int, g moea.Gene) schedule.TaskDecision {
	m, pe := p.taskMetrics(task, g)
	d := schedule.TaskDecision{PE: pe, Metrics: m}
	if p.inst.EnforceMemory {
		impl, asg, _ := p.decodeGene(task, g)
		d.MemKB = relmodel.EffectiveFootprintKB(impl, asg, p.inst.Catalog)
	}
	return d
}

// problemCore accessors (see delta.go).
func (p *fcProblem) instance() *Instance        { return p.inst }
func (p *fcProblem) sysObjs() []SystemObjective { return p.objs }

// decisionsInto resolves the genome into per-task schedule decisions,
// reusing dst's capacity.
func (p *fcProblem) decisionsInto(dst []schedule.TaskDecision, g *moea.Genome) []schedule.TaskDecision {
	return decisionsIntoCore(p, dst, g)
}

// NewEvaluator implements moea.ScratchProblem.
func (p *fcProblem) NewEvaluator() moea.Evaluator { return newCoreEvaluator(p) }

func (p *fcProblem) Evaluate(g *moea.Genome) moea.Evaluation {
	return p.NewEvaluator().Evaluate(g)
}

// decodeResult re-runs the scheduler for reporting purposes.
func (p *fcProblem) decodeResult(g *moea.Genome) *schedule.Result {
	res, err := schedule.RunWithComm(p.inst.Graph, p.inst.Platform, g.Order, p.decisionsInto(nil, g), p.inst.Comm)
	if err != nil {
		panic("core: schedule decoding failed: " + err.Error())
	}
	return res
}

// pfProblem is the Pareto-filtered task-mapping problem (pfCLR): the Impl
// gene indexes into the tDSE-filtered candidate list of the task's type,
// whose metrics are already evaluated — fitness evaluation reduces to
// scheduling plus the TABLE III estimators.
type pfProblem struct {
	inst   *Instance
	flib   *tdse.Library
	compat [][]int
	objs   []SystemObjective
}

func newPFProblem(inst *Instance, flib *tdse.Library) *pfProblem {
	return &pfProblem{
		inst:   inst,
		flib:   flib,
		compat: compatiblePEs(inst.Platform),
		objs:   inst.objectives(),
	}
}

func (p *pfProblem) NumTasks() int      { return p.inst.Graph.NumTasks() }
func (p *pfProblem) NumObjectives() int { return len(p.objs) }

func (p *pfProblem) RandomGene(rng *rand.Rand, task int) moea.Gene {
	tt := p.inst.Graph.Task(task).Type
	return moea.Gene{
		Impl: rng.Intn(len(p.flib.Impls(tt))),
		PE:   rng.Intn(p.inst.Platform.NumPEs()),
	}
}

func (p *pfProblem) MutateGene(rng *rand.Rand, task int, g moea.Gene) moea.Gene {
	tt := p.inst.Graph.Task(task).Type
	if rng.Intn(2) == 0 {
		g.Impl = rng.Intn(len(p.flib.Impls(tt)))
	} else {
		g.PE = rng.Intn(p.inst.Platform.NumPEs())
	}
	return g
}

// decodeGene resolves a gene into its Pareto-filtered candidate and PE id.
// The candidate is returned by pointer into the library, which is never
// mutated, to keep the hot decode path free of struct copies.
func (p *pfProblem) decodeGene(task int, g moea.Gene) (*tdse.Candidate, int) {
	tt := p.inst.Graph.Task(task).Type
	cands := p.flib.Impls(tt)
	c := &cands[mod(g.Impl, len(cands))]
	peList := p.compat[c.Base.PETypeIndex]
	pe := peList[mod(g.PE, len(peList))]
	return c, pe
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

// decisionsInto resolves the genome against the Pareto-filtered candidate
// library, reusing dst's capacity.
func (p *pfProblem) decisionsInto(dst []schedule.TaskDecision, g *moea.Genome) []schedule.TaskDecision {
	return decisionsIntoCore(p, dst, g)
}

// NewEvaluator implements moea.ScratchProblem.
func (p *pfProblem) NewEvaluator() moea.Evaluator { return newCoreEvaluator(p) }

func (p *pfProblem) Evaluate(g *moea.Genome) moea.Evaluation {
	return p.NewEvaluator().Evaluate(g)
}

func (p *pfProblem) decodeResult(g *moea.Genome) *schedule.Result {
	res, err := schedule.RunWithComm(p.inst.Graph, p.inst.Platform, g.Order, p.decisionsInto(nil, g), p.inst.Comm)
	if err != nil {
		panic("core: schedule decoding failed: " + err.Error())
	}
	return res
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
