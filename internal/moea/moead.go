package moea

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// RunMOEAD executes a MOEA/D-style decomposition search on the problem: the
// multi-objective problem is split into PopSize scalar subproblems via
// uniformly spread weight vectors and the Tchebycheff scalarization, and
// each subproblem evolves by mating within its weight-space neighborhood.
// It is the decomposition-based alternative to the NSGA-II-style Run (the
// paper's toolkit, PYGMO, ships both families; ref. [7] of the paper argues
// for decomposition on many-core mapping problems). Constraint violations
// are added as penalties to the scalarized objective.
//
// params.TournamentK is unused; params.Neighbors (via DefaultMOEADNeighbors
// when zero) controls the mating neighborhood. The result's Front is the
// external archive of feasible non-dominated solutions, as in Run.
func RunMOEAD(p Problem, params Params, seeds []*Genome) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	m := p.NumObjectives()
	if m < 2 {
		return nil, fmt.Errorf("moea: MOEA/D needs ≥ 2 objectives, problem has %d", m)
	}
	if params.Surrogate.Enabled {
		return nil, fmt.Errorf("moea: surrogate screening requires the NSGA-II engine")
	}
	if params.Migration != nil {
		return nil, fmt.Errorf("moea: island migration requires the NSGA-II engine")
	}
	useDelta := !params.DisableDelta
	n := p.NumTasks()
	src := newCountingSource(params.Seed)
	rng := rand.New(src)

	weights := weightVectors(params.PopSize, m)

	// Ideal point z* (component-wise minimum over every evaluation so far).
	ideal := make([]float64, m)
	for j := range ideal {
		ideal[j] = math.Inf(1)
	}
	updateIdeal := func(e Evaluation) {
		for j, v := range e.Objectives {
			if v < ideal[j] {
				ideal[j] = v
			}
		}
	}

	archiveCap := params.ArchiveCap
	if archiveCap <= 0 {
		archiveCap = 256
	}
	// Selection machinery shared with the NSGA-II engine: the incremental
	// archive (the scratch backs its truncation crowding) and the plateau
	// tracker, inert unless TerminateOnPlateau.
	sc := new(selScratch)
	arch := newArchiveState(archiveCap, sc)
	plateau := newPlateauState(params, m)
	arch.plateau = plateau
	res := &Result{}
	var pop []*solution
	startGen := 0
	doneGen := 0
	defer func() {
		flushSelectionTotals(sc, arch, plateau, startGen, doneGen, params.Generations, res.PlateauStopped)
	}()
	if params.Resume != nil {
		cp := params.Resume
		if err := validateResume(cp, params); err != nil {
			return nil, err
		}
		if len(cp.Ideal) != m {
			return nil, fmt.Errorf("moea: checkpoint ideal point has %d components, problem has %d",
				len(cp.Ideal), m)
		}
		var err error
		if pop, err = restoreSolutions(cp.Population, n, m); err != nil {
			return nil, err
		}
		var archive []*solution
		if archive, err = restoreSolutions(cp.Archive, n, m); err != nil {
			return nil, err
		}
		arch.restore(archive)
		if err := plateau.restore(cp.Plateau, arch.members); err != nil {
			return nil, err
		}
		for j, b := range cp.Ideal {
			ideal[j] = math.Float64frombits(b)
		}
		src.FastForward(cp.Draws)
		res.Evaluations = cp.Evaluations
		startGen = cp.Generation
		doneGen = startGen
		params.emit(startGen, res.Evaluations, len(arch.members))
	} else {
		pop = make([]*solution, len(weights))
		for i := range pop {
			if i < len(seeds) {
				if err := seeds[i].Validate(); err != nil {
					return nil, fmt.Errorf("moea: invalid seed: %w", err)
				}
				if len(seeds[i].Genes) != n {
					return nil, fmt.Errorf("moea: seed has %d genes, want %d", len(seeds[i].Genes), n)
				}
				pop[i] = &solution{genome: seeds[i].Clone()}
			} else {
				pop[i] = &solution{genome: RandomGenome(rng, p)}
			}
		}
		if params.FixedOrder != nil {
			if len(params.FixedOrder) != n {
				return nil, fmt.Errorf("moea: fixed order has %d entries, want %d", len(params.FixedOrder), n)
			}
			for _, s := range pop {
				s.genome.Order = append([]int(nil), params.FixedOrder...)
			}
		}
		if err := params.cancelled(); err != nil {
			return nil, err
		}
		evaluate(p, pop, params.Workers, useDelta)
		res.Evaluations = len(pop)
		for _, s := range pop {
			updateIdeal(s.eval)
		}
		arch.add(pop)
		plateau.observe(arch)
		params.emit(0, res.Evaluations, len(arch.members))
	}

	ev := newEvaluator(p)
	// Only the first child of a mating survives, so the second parent is
	// copied into one per-run genome instead of being cloned.
	mate := &Genome{Order: make([]int, n), Genes: make([]Gene, n)}
	var osc orderScratch
	neighbors := neighborhoods(weights, defaultNeighbors(params))
	snapshotMOEAD := func(gen int) *Checkpoint {
		cp := snapshotRun(gen, res.Evaluations, src.Draws(), pop, arch.members).withPlateau(plateau)
		cp.Ideal = make([]uint64, m)
		for j, v := range ideal {
			cp.Ideal[j] = math.Float64bits(v)
		}
		return cp
	}

	for gen := startGen; gen < params.Generations; gen++ {
		if err := params.cancelled(); err != nil {
			params.checkpointOnCancel(snapshotMOEAD(gen))
			return nil, err
		}
		for i := range pop {
			nb := neighbors[i]
			pa := pop[nb[rng.Intn(len(nb))]]
			a := pa.genome.Clone()
			pb := pop[nb[rng.Intn(len(nb))]].genome
			copy(mate.Order, pb.Order)
			copy(mate.Genes, pb.Genes)
			if !params.DisableConfigCrossover && rng.Float64() < params.CrossoverProb {
				crossoverConfig(rng, a, mate)
			}
			if params.FixedOrder == nil && !params.DisableOrderCrossover && rng.Float64() < params.CrossoverProb {
				crossoverOrder(rng, a, mate, &osc)
			}
			child := a
			for t := 0; t < n; t++ {
				if rng.Float64() < params.MutationProb {
					child.Genes[t] = p.MutateGene(rng, t, child.Genes[t])
				}
			}
			if params.FixedOrder == nil && !params.DisableOrderMutation && rng.Float64() < params.MutationProb {
				mutateOrder(rng, child)
			}
			// The child started as pa's clone, so pa is its delta-evaluation
			// reference; pa stays valid even if a pop slot was replaced.
			cs := &solution{genome: child}
			if de, ok := ev.(DeltaEvaluator); ok && useDelta {
				cs.eval, cs.delta = de.EvaluateDelta(child, pa.genome, pa.delta)
			} else {
				cs.eval = ev.Evaluate(child)
			}
			res.Evaluations++
			updateIdeal(cs.eval)
			arch.addOne(cs)

			// Update neighbors whose subproblem the child improves.
			for _, j := range nb {
				if tchebycheff(cs.eval, weights[j], ideal) < tchebycheff(pop[j].eval, weights[j], ideal) {
					pop[j] = cs
				}
			}
		}
		doneGen = gen + 1
		stop := plateau.observe(arch)
		params.emit(gen+1, res.Evaluations, len(arch.members))
		if params.checkpointDue(gen + 1) {
			params.OnCheckpoint(snapshotMOEAD(gen + 1))
		}
		if stop {
			res.PlateauStopped = true
			break
		}
	}
	res.GenerationsRun = doneGen

	for _, s := range arch.members {
		res.Front = append(res.Front, Solution{
			Genome:     s.genome.Clone(),
			Objectives: append([]float64(nil), s.eval.Objectives...),
		})
	}
	return res, nil
}

// DefaultMOEADNeighbors is the mating neighborhood size when Params leaves
// it unspecified.
const DefaultMOEADNeighbors = 10

func defaultNeighbors(params Params) int {
	t := DefaultMOEADNeighbors
	if t > params.PopSize {
		t = params.PopSize
	}
	return t
}

// tchebycheff is the scalarized subproblem value max_i w_i·(f_i − z_i),
// penalized by constraint violation so infeasible children rarely win.
func tchebycheff(e Evaluation, w, ideal []float64) float64 {
	v := math.Inf(-1)
	for i := range w {
		wi := w[i]
		if wi < 1e-6 {
			wi = 1e-6
		}
		d := wi * (e.Objectives[i] - ideal[i])
		if d > v {
			v = d
		}
	}
	if e.Violation > 0 {
		v += e.Violation * 1e6
	}
	return v
}

// weightVectors spreads count vectors over the (m−1)-simplex. For two
// objectives this is the uniform line; higher dimensions use a deterministic
// low-discrepancy lattice, normalized.
func weightVectors(count, m int) [][]float64 {
	out := make([][]float64, count)
	if m == 2 {
		for i := range out {
			a := float64(i) / float64(count-1)
			out[i] = []float64{a, 1 - a}
		}
		return out
	}
	rng := rand.New(rand.NewSource(12345)) // fixed: weights are structure, not randomness
	for i := range out {
		w := make([]float64, m)
		sum := 0.0
		for j := range w {
			w[j] = -math.Log(1 - rng.Float64())
			sum += w[j]
		}
		for j := range w {
			w[j] /= sum
		}
		out[i] = w
	}
	return out
}

// neighborhoods returns, per weight vector, the indices of its t nearest
// neighbors (by Euclidean distance, including itself).
func neighborhoods(weights [][]float64, t int) [][]int {
	n := len(weights)
	out := make([][]int, n)
	for i := range weights {
		idx := make([]int, n)
		for j := range idx {
			idx[j] = j
		}
		sort.Slice(idx, func(a, b int) bool {
			return dist2(weights[i], weights[idx[a]]) < dist2(weights[i], weights[idx[b]])
		})
		out[i] = append([]int(nil), idx[:t]...)
	}
	return out
}

func dist2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
