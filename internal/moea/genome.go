// Package moea implements the multi-objective evolutionary optimization
// engine of Section V of the paper: a genetic algorithm over the encoding of
// Fig. 5 with NSGA-II-style non-dominated sorting and crowding-distance
// survivor selection (the role DEAP/PYGMO play for the authors), the paper's
// crossover and mutation operators, tournament selection with k = 5,
// constraint-domination, and directed seeding of the initial population —
// the mechanism the proposed two-stage methodology uses to inject pfCLR
// results into the fcCLR search.
package moea

import (
	"fmt"
	"math/rand"
)

// Gene holds the per-task design decisions of one individual (the
// sub-sequence s(i,q) of Fig. 5): the PE binding, the implementation index
// and — for full-configuration CLR — the DVFS mode and the per-layer
// reliability method indices. Problems that do not use a field (e.g. pfCLR
// folds the CLR choice into Impl) simply ignore it. The fields are int32,
// 24 bytes a gene, because every offspring copies its parent's genes; the
// values are small indices, and their JSON form is that of plain ints.
type Gene struct {
	PE   int32
	Impl int32
	Mode int32
	HW   int32
	SSW  int32
	ASW  int32
}

// Genome is one individual: a scheduling order (the sequence position of
// each task encodes its scheduling priority) plus one Gene per task,
// indexed by task ID.
type Genome struct {
	Order []int
	Genes []Gene
}

// Clone deep-copies the genome.
func (g *Genome) Clone() *Genome {
	return &Genome{
		Order: append([]int(nil), g.Order...),
		Genes: append([]Gene(nil), g.Genes...),
	}
}

// Validate checks structural sanity: Order is a permutation of [0,n) and
// Genes has one entry per task.
func (g *Genome) Validate() error {
	n := len(g.Genes)
	if len(g.Order) != n {
		return fmt.Errorf("moea: order length %d, genes %d", len(g.Order), n)
	}
	seen := make([]bool, n)
	for _, t := range g.Order {
		if t < 0 || t >= n || seen[t] {
			return fmt.Errorf("moea: order is not a permutation")
		}
		seen[t] = true
	}
	return nil
}

// Evaluation is the outcome of evaluating one genome.
type Evaluation struct {
	// Objectives are minimization objectives.
	Objectives []float64
	// Violation quantifies constraint violation; 0 means feasible.
	// Infeasible individuals are dominated by all feasible ones, and among
	// infeasible ones the smaller violation wins (constraint-domination).
	Violation float64
}

// Problem is the interface a DSE strategy implements to run under the GA.
type Problem interface {
	// NumTasks is the sequence length of every genome.
	NumTasks() int
	// NumObjectives is the dimensionality of the objective vectors.
	NumObjectives() int
	// RandomGene draws a uniformly random valid gene for the task.
	RandomGene(rng *rand.Rand, task int) Gene
	// MutateGene returns a mutated variant of the task's gene (the
	// single-point configuration mutation of §V.C).
	MutateGene(rng *rand.Rand, task int, g Gene) Gene
	// Evaluate computes the objectives of a structurally valid genome.
	Evaluate(g *Genome) Evaluation
}

// Evaluator computes genome fitness. Every Problem is an Evaluator;
// ScratchProblem implementations mint evaluators that carry reusable
// per-worker scratch.
type Evaluator interface {
	Evaluate(g *Genome) Evaluation
}

// ScratchProblem is a Problem whose fitness evaluation benefits from
// goroutine-local reusable state (decision buffers, schedule working sets).
// The engines call NewEvaluator once per evaluation worker and route all of
// that worker's evaluations through it, so steady-state generations
// allocate near zero. Evaluators must be independent: two evaluators of
// one problem may run concurrently.
type ScratchProblem interface {
	Problem
	// NewEvaluator returns a fresh evaluator for exclusive use by one
	// goroutine. Results must be identical to Problem.Evaluate.
	NewEvaluator() Evaluator
}

// newEvaluator returns a scratch-backed evaluator when the problem offers
// one, or the problem itself otherwise.
func newEvaluator(p Problem) Evaluator {
	if sp, ok := p.(ScratchProblem); ok {
		return sp.NewEvaluator()
	}
	return p
}

// DeltaEvaluator is an Evaluator that can reuse work from a previously
// evaluated parent genome. EvaluateDelta returns the evaluation plus an
// opaque replay state; the engines thread a parent's state into its
// offspring's call. parent and parentState may be nil (no usable parent),
// in which case the call is a full evaluation that still captures state.
// Implementations must be exact: EvaluateDelta returns bit-identical
// evaluations to Evaluate for every genome, parent or not. States are
// immutable once returned and may be shared by several offspring; only a
// StateReleaser may reuse one, once the engine has released it.
type DeltaEvaluator interface {
	Evaluator
	EvaluateDelta(g *Genome, parent *Genome, parentState any) (Evaluation, any)
}

// StateReleaser is a DeltaEvaluator that can recycle the replay state of
// a child that died in its birth generation. The engines call Release on
// one of the run's evaluators, between evaluation batches, once per dead
// child, with the state its EvaluateDelta returned and the parent state it
// was evaluated against (nil for none). The state is never used again, but
// it may be the parent's own state, which stays live, and it may share
// parts of the parent's; the implementation must recycle only what the
// child's evaluation allocated.
type StateReleaser interface {
	Release(state, parentState any)
}

// RandomGenome draws a uniformly random individual for the problem.
func RandomGenome(rng *rand.Rand, p Problem) *Genome {
	n := p.NumTasks()
	g := &Genome{
		Order: rng.Perm(n),
		Genes: make([]Gene, n),
	}
	for t := 0; t < n; t++ {
		g.Genes[t] = p.RandomGene(rng, t)
	}
	return g
}

// crossoverConfig performs the paper's two-point crossover on the
// configuration data: the genes of tasks with IDs in the cut range are
// exchanged between the two children (task identity, not sequence position,
// indexes the configuration, so this is always structurally valid).
func crossoverConfig(rng *rand.Rand, a, b *Genome) {
	n := len(a.Genes)
	if n < 2 {
		return
	}
	i, j := rng.Intn(n), rng.Intn(n)
	if i > j {
		i, j = j, i
	}
	for t := i; t <= j; t++ {
		a.Genes[t], b.Genes[t] = b.Genes[t], a.Genes[t]
	}
}

// orderScratch is a run's working set for crossoverOrder: a copy of the
// first parent's sequence and a task membership mask.
type orderScratch struct {
	perm []int
	used []bool
}

// crossoverOrder performs the paper's single-point scheduling crossover:
// each child keeps its own sequence up to the cut point and completes it
// with the remaining tasks in the other parent's relative order (an
// OX1-style operator, so the result is always a permutation). Both
// children are rewritten in their own Order arrays, which must not alias.
func crossoverOrder(rng *rand.Rand, a, b *Genome, sc *orderScratch) {
	n := len(a.Order)
	if n < 2 {
		return
	}
	cut := 1 + rng.Intn(n-1)
	sc.perm = append(sc.perm[:0], a.Order...)
	if cap(sc.used) < n {
		sc.used = make([]bool, n)
	}
	orderTail(a.Order, b.Order, cut, sc.used[:n])
	orderTail(b.Order, sc.perm, cut, sc.used[:n])
}

// orderTail keeps head[:cut] and refills head[cut:] with the tasks of the
// permutation tail that head[:cut] lacks, in tail's order. used must be
// all false on entry; every mark is cleared when tail passes its task, so
// it is all false again on return.
func orderTail(head, tail []int, cut int, used []bool) {
	for _, t := range head[:cut] {
		used[t] = true
	}
	k := cut
	for _, t := range tail {
		if used[t] {
			used[t] = false
			continue
		}
		head[k] = t
		k++
	}
}

// mutateOrder applies the paper's two-point scheduling mutation: the
// positions of two randomly selected sub-sequences are swapped. Equal-length
// non-overlapping segments keep the result a permutation.
func mutateOrder(rng *rand.Rand, g *Genome) {
	n := len(g.Order)
	if n < 2 {
		return
	}
	maxLen := n / 4
	if maxLen < 1 {
		maxLen = 1
	}
	l := 1 + rng.Intn(maxLen)
	if 2*l > n {
		l = 1
	}
	// Choose two non-overlapping start positions.
	i := rng.Intn(n - 2*l + 1)
	j := i + l + rng.Intn(n-2*l-i+1)
	for k := 0; k < l; k++ {
		g.Order[i+k], g.Order[j+k] = g.Order[j+k], g.Order[i+k]
	}
}
