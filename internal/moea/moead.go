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
// params.TournamentK is unused. The mating neighborhood is always the
// min(DefaultMOEADNeighbors, PopSize) nearest weight vectors. The result's
// Front is the external archive of feasible non-dominated solutions, as in
// Run.
func RunMOEAD(p Problem, params Params, seeds []*Genome) (*Result, error) {
	return drive(p, params, seeds, newMOEAD)
}

// moead is the decomposition engine: one subproblem per population slot,
// steady-state replacement within each neighborhood, and the ideal point
// z* (component-wise minimum over every evaluation so far).
type moead struct {
	weights   [][]float64
	neighbors [][]int
	ideal     []float64
	// Only the first child of a mating survives, so the second parent is
	// copied into one per-run genome instead of being cloned.
	mate *Genome
	osc  orderScratch
	// born lists one step's children in birth order, which join the
	// archive together at the end of the step; unplaced lists those that
	// took no population slot, with the members they were derived from.
	born     []*solution
	unplaced []orphan
}

// orphan is a child that took no population slot, and its parent.
type orphan struct{ s, parent *solution }

func newMOEAD(p Problem, params Params) (engine, error) {
	m := p.NumObjectives()
	if m < 2 {
		return nil, fmt.Errorf("moea: MOEA/D needs ≥ 2 objectives, problem has %d", m)
	}
	n := p.NumTasks()
	weights := weightVectors(params.PopSize, m)
	return &moead{
		weights:   weights,
		neighbors: neighborhoods(weights, min(DefaultMOEADNeighbors, params.PopSize)),
		ideal:     make([]float64, m),
		mate:      &Genome{Order: make([]int, n), Genes: make([]Gene, n)},
	}, nil
}

// start restores the ideal point from the checkpoint, or initializes it
// from the evaluated initial population. It cannot be recomputed on
// resume: it aggregates over every child ever evaluated.
func (e *moead) start(r *runState, cp *Checkpoint) error {
	if cp != nil {
		if len(cp.Ideal) != len(e.ideal) {
			return fmt.Errorf("moea: checkpoint ideal point has %d components, problem has %d",
				len(cp.Ideal), len(e.ideal))
		}
		for j, b := range cp.Ideal {
			e.ideal[j] = math.Float64frombits(b)
		}
		return nil
	}
	for j := range e.ideal {
		e.ideal[j] = math.Inf(1)
	}
	for _, s := range r.pop {
		e.updateIdeal(s.eval)
	}
	return nil
}

func (e *moead) updateIdeal(ev Evaluation) {
	for j, v := range ev.Objectives {
		if v < e.ideal[j] {
			e.ideal[j] = v
		}
	}
}

func (e *moead) step(r *runState) {
	params, rng, pop := &r.params, r.rng, r.pop
	ev := r.evaluators(1)[0]
	for i := range pop {
		nb := e.neighbors[i]
		pa := pop[nb[rng.Intn(len(nb))]]
		child := r.child(pa.genome)
		pb := pop[nb[rng.Intn(len(nb))]].genome
		copy(e.mate.Order, pb.Order)
		copy(e.mate.Genes, pb.Genes)
		if !params.DisableConfigCrossover && rng.Float64() < params.CrossoverProb {
			crossoverConfig(rng, child, e.mate)
		}
		if !params.DisableOrderCrossover && rng.Float64() < params.CrossoverProb {
			crossoverOrder(rng, child, e.mate, &e.osc)
		}
		r.mutate(child)
		// The child started as a copy of pa, so pa is its delta-evaluation
		// reference; pa stays valid even if a pop slot was replaced.
		cs := &solution{genome: child, parent: pa}
		evalOne(ev, cs)
		cs.parent = nil
		r.evals++
		e.updateIdeal(cs.eval)

		// Update neighbors whose subproblem the child improves.
		placed := false
		for _, j := range nb {
			if tchebycheff(cs.eval, e.weights[j], e.ideal) < tchebycheff(pop[j].eval, e.weights[j], e.ideal) {
				pop[j] = cs
				placed = true
			}
		}
		e.born = append(e.born, cs)
		if !placed {
			e.unplaced = append(e.unplaced, orphan{cs, pa})
		}
	}
	// Nothing in the step reads the archive, so the children join it now,
	// in birth order and each followed by its own truncation: the archive
	// evolves exactly as if each had joined at birth. A child in no
	// population slot and not archived is read by nothing again.
	r.arch.addEach(e.born)
	for _, o := range e.unplaced {
		if !o.s.archived {
			r.discard(o.s, o.parent)
		}
	}
	clear(e.born)
	clear(e.unplaced)
	e.born, e.unplaced = e.born[:0], e.unplaced[:0]
}

func (e *moead) save(cp *Checkpoint) {
	cp.Ideal = make([]uint64, len(e.ideal))
	for j, v := range e.ideal {
		cp.Ideal[j] = math.Float64bits(v)
	}
}

// DefaultMOEADNeighbors is the mating neighborhood size (capped at the
// population size).
const DefaultMOEADNeighbors = 10

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
