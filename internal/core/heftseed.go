package core

import (
	"fmt"
	"math"

	"repro/internal/heft"
	"repro/internal/moea"
	"repro/internal/schedule"
	"repro/internal/tdse"
)

// HEFTSeed constructs a pfCLR genome from a HEFT schedule: for every task
// the fastest Pareto-filtered candidate per PE is offered to the heuristic,
// which picks mappings by earliest finish time. The genome seeds the GA's
// initial population (use PfCLRWithSeeds), giving the stochastic search a
// strong constructive starting point on the makespan axis.
func HEFTSeed(inst *Instance, flib *tdse.Library) (*moea.Genome, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := checkFilteredLibrary(inst, flib); err != nil {
		return nil, err
	}
	n := inst.Graph.NumTasks()
	nPE := inst.Platform.NumPEs()
	compat := compatiblePEs(inst.Platform)

	// fastest[t][pe] is the index (within the task type's candidate list)
	// of the lowest-AvgExT candidate compatible with PE pe, or -1.
	fastest := make([][]int, n)
	costs := heft.Costs{ExecUS: make([][]float64, n)}
	for t := 0; t < n; t++ {
		tt := inst.Graph.Task(t).Type
		cands := flib.Impls(tt)
		fastest[t] = make([]int, nPE)
		costs.ExecUS[t] = make([]float64, nPE)
		for pe := 0; pe < nPE; pe++ {
			fastest[t][pe] = -1
			costs.ExecUS[t][pe] = math.Inf(1)
		}
		for ci, c := range cands {
			for _, pe := range compat[c.Base.PETypeIndex] {
				if c.Metrics.AvgExTimeUS < costs.ExecUS[t][pe] {
					costs.ExecUS[t][pe] = c.Metrics.AvgExTimeUS
					fastest[t][pe] = ci
				}
			}
		}
	}
	if comm := inst.Comm; comm.StartupUS != 0 || comm.PerKBUS != 0 {
		costs.CommUS = map[[2]int]float64{}
		for _, e := range inst.Graph.Edges() {
			costs.CommUS[[2]int{e.From, e.To}] = comm.Delay(e.DataKB)
		}
	}

	res, err := heft.Schedule(inst.Graph, inst.Platform, costs)
	if err != nil {
		return nil, fmt.Errorf("core: HEFT seeding: %w", err)
	}
	g := &moea.Genome{Order: res.Order, Genes: make([]moea.Gene, n)}
	for t := 0; t < n; t++ {
		pe := res.PE[t]
		ci := fastest[t][pe]
		if ci < 0 {
			return nil, fmt.Errorf("core: HEFT placed task %d on incompatible PE %d", t, pe)
		}
		tt := inst.Graph.Task(t).Type
		c := flib.Impls(tt)[ci]
		// Find the PE's position within its type's compatibility list —
		// the pfProblem decodes the PE gene modulo that list.
		sub := -1
		for i, id := range compat[c.Base.PETypeIndex] {
			if id == pe {
				sub = i
			}
		}
		if sub < 0 {
			return nil, fmt.Errorf("core: PE %d missing from its compatibility list", pe)
		}
		g.Genes[t] = moea.Gene{Impl: int32(ci), PE: int32(sub)}
	}
	return g, nil
}

// PfCLRWithSeeds is PfCLR with caller-provided initial genomes (e.g. from
// HEFTSeed) injected into the GA's first population.
func PfCLRWithSeeds(inst *Instance, cfg RunConfig, flib *tdse.Library, seeds []*moea.Genome) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := checkFilteredLibrary(inst, flib); err != nil {
		return nil, err
	}
	p := newPFProblem(inst, flib)
	return runProblem(p, cfg, seeds, "pfclr")
}

// EvaluatePFMapping decodes a pfCLR-encoded genome (as produced by
// HEFTSeed or PfCLR fronts) under the instance's models.
func EvaluatePFMapping(inst *Instance, flib *tdse.Library, g *moea.Genome) (*schedule.Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := checkFilteredLibrary(inst, flib); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(g.Genes) != inst.Graph.NumTasks() {
		return nil, fmt.Errorf("core: genome has %d genes, application has %d tasks",
			len(g.Genes), inst.Graph.NumTasks())
	}
	p := newPFProblem(inst, flib)
	return decodeResult(p, g), nil
}
