package moea

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sweep"
)

// Params configures a GA run. The defaults of DefaultParams mirror §VI.A:
// crossover probability 0.8, mutation probability 0.05, tournament size 5.
type Params struct {
	PopSize       int
	Generations   int
	CrossoverProb float64
	MutationProb  float64
	TournamentK   int
	// Seed makes the run deterministic.
	Seed int64
	// Workers bounds parallel fitness evaluation; ≤ 0 means GOMAXPROCS.
	Workers int
	// DisableConfigCrossover / DisableOrderCrossover / DisableOrderMutation
	// switch off individual operators for ablation studies; the zero values
	// reproduce the paper's operator set (§V.C).
	DisableConfigCrossover bool
	DisableOrderCrossover  bool
	DisableOrderMutation   bool
	// Ctx, when non-nil, is polled between generations: once it is
	// cancelled the run stops before starting the next generation and
	// returns ctx.Err(). A run is therefore cancellable within one
	// generation's worth of work. Cancellation never affects the RNG
	// stream, so an uncancelled run is byte-identical with or without Ctx.
	Ctx context.Context
	// OnGeneration, when non-nil, is invoked synchronously after the
	// initial population evaluation (Generation 0) and after every
	// completed generation — the progress hook used by the service layer
	// to stream generation-by-generation updates. It must be fast: the GA
	// blocks on it.
	OnGeneration func(GenerationInfo)
	// OnCheckpoint, when non-nil with CheckpointEvery > 0, receives a
	// resumable snapshot after every CheckpointEvery completed generations,
	// and a final snapshot when the run is cancelled via Ctx (so an
	// interrupted run loses at most the generation in flight). The engine
	// blocks on the callback; snapshots are deep copies and may be retained.
	OnCheckpoint func(*Checkpoint)
	// CheckpointEvery is the generation period of OnCheckpoint snapshots;
	// ≤ 0 disables periodic snapshots (the cancellation snapshot still
	// fires when OnCheckpoint is set).
	CheckpointEvery int
	// Resume, when non-nil, restores a run from a checkpoint instead of
	// initializing a fresh population: the population, archive, evaluation
	// count and RNG position are restored, seeds are ignored, and the run
	// continues at Resume.Generation. Because every later decision depends
	// only on the restored state and the seeded RNG stream, the resumed
	// run's final front is byte-identical to the uninterrupted run's.
	Resume *Checkpoint

	// archiveLimit, when positive, bounds the archive in place of
	// archiveCap: tests use it to make small runs truncate.
	archiveLimit int
}

// archiveCap bounds the external non-dominated archive of every run.
const archiveCap = 256

// GenerationInfo is a per-generation progress report delivered through
// Params.OnGeneration.
type GenerationInfo struct {
	// Generation counts completed generations; 0 is the evaluated initial
	// population.
	Generation int
	// Generations is the run's total generation budget.
	Generations int
	// Evaluations counts fitness evaluations spent so far.
	Evaluations int
	// ArchiveSize is the current size of the external non-dominated
	// archive (feasible solutions only).
	ArchiveSize int
}

// cancelled reports the context error once the run's context is done.
func (p Params) cancelled() error {
	if p.Ctx != nil {
		select {
		case <-p.Ctx.Done():
			return p.Ctx.Err()
		default:
		}
	}
	return nil
}

// emit delivers a progress report to OnGeneration when set.
func (p Params) emit(gen, evals, archive int) {
	if p.OnGeneration != nil {
		p.OnGeneration(GenerationInfo{
			Generation:  gen,
			Generations: p.Generations,
			Evaluations: evals,
			ArchiveSize: archive,
		})
	}
}

// DefaultParams returns the evaluation configuration of the paper for a
// given population size and generation budget.
func DefaultParams(pop, gens int, seed int64) Params {
	return Params{
		PopSize:       pop,
		Generations:   gens,
		CrossoverProb: 0.8,
		MutationProb:  0.05,
		TournamentK:   5,
		Seed:          seed,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.PopSize < 2 {
		return fmt.Errorf("moea: population size %d must be ≥ 2", p.PopSize)
	}
	if p.Generations < 1 {
		return fmt.Errorf("moea: generations %d must be ≥ 1", p.Generations)
	}
	if p.CrossoverProb < 0 || p.CrossoverProb > 1 {
		return fmt.Errorf("moea: crossover probability %v outside [0,1]", p.CrossoverProb)
	}
	if p.MutationProb < 0 || p.MutationProb > 1 {
		return fmt.Errorf("moea: mutation probability %v outside [0,1]", p.MutationProb)
	}
	if p.TournamentK < 1 {
		return fmt.Errorf("moea: tournament size %d must be ≥ 1", p.TournamentK)
	}
	return nil
}

// Solution is one optimized design point returned to the caller.
type Solution struct {
	Genome     *Genome
	Objectives []float64
}

// Result of a GA run.
type Result struct {
	// Front is the feasible non-dominated set over the whole run (the
	// external archive), ready for hypervolume comparison.
	Front []Solution
	// Evaluations counts fitness evaluations performed.
	Evaluations int
}

// Run executes the GA on the problem. seeds, if any, are injected into the
// initial population (the directed-seeding mechanism of the proposed
// methodology, Fig. 4(b)); they are cloned, so callers keep ownership.
func Run(p Problem, params Params, seeds []*Genome) (*Result, error) {
	return drive(p, params, seeds, newNSGA2)
}

// nsga2 is the NSGA-II engine: tournament variation and elitist
// environmental selection by non-dominated rank and crowding distance.
type nsga2 struct {
	// Selection-path buffers, reused every generation: the
	// parents∪offspring union (exactly 2·PopSize), the offspring list, and
	// the ping-pong spare that becomes the next population while the
	// outgoing population's array is recycled, plus the order-crossover
	// scratch. Solutions themselves are freshly allocated per generation;
	// their genomes come from the run's free list (runState.child).
	unionBuf, offBuf, spare []*solution
	osc                     orderScratch
}

func newNSGA2(p Problem, params Params) (engine, error) {
	return &nsga2{
		unionBuf: make([]*solution, 0, 2*params.PopSize),
		offBuf:   make([]*solution, 0, params.PopSize),
		spare:    make([]*solution, 0, params.PopSize),
	}, nil
}

func (e *nsga2) start(r *runState, cp *Checkpoint) error {
	r.arch.sc.rankAndCrowd(r.pop)
	return nil
}

func (e *nsga2) step(r *runState) {
	params := &r.params
	// Variation: tournaments pick parents; the paper's two crossovers and
	// two mutations produce the offspring.
	rng := r.rng
	offspring := e.offBuf[:0]
	for len(offspring) < params.PopSize {
		pa := tournament(rng, r.pop, params.TournamentK)
		pb := tournament(rng, r.pop, params.TournamentK)
		a := r.child(pa.genome)
		b := r.child(pb.genome)
		if !params.DisableConfigCrossover && rng.Float64() < params.CrossoverProb {
			crossoverConfig(rng, a, b)
		}
		if !params.DisableOrderCrossover && rng.Float64() < params.CrossoverProb {
			crossoverOrder(rng, a, b, &e.osc)
		}
		// Each child is linked to the parent whose clone it started from:
		// after the cut-range exchanges it still shares most of its genes
		// with that parent, which is what delta evaluation exploits.
		for i, child := range []*Genome{a, b} {
			r.mutate(child)
			if len(offspring) < params.PopSize {
				par := pa
				if i == 1 {
					par = pb
				}
				offspring = append(offspring, &solution{genome: child, parent: par})
			} else {
				r.free = append(r.free, child)
			}
		}
	}
	r.evaluate(offspring)
	r.evals += len(offspring)
	r.arch.add(offspring)

	// Environmental selection over parents ∪ offspring.
	union := append(e.unionBuf[:0], r.pop...)
	union = append(union, offspring...)
	e.unionBuf = union[:0]
	next := e.spare[:0]
	for _, f := range r.arch.sc.nonDominatedSort(union) {
		r.arch.sc.assignCrowding(f)
		if len(next)+len(f) <= params.PopSize {
			next = append(next, f...)
			continue
		}
		// Partial front: keep the most crowding-distance-diverse. The front
		// slice is scratch-owned and not read again before the next sort,
		// so it can be reordered in place.
		slices.SortFunc(f, byCrowdDesc)
		next = append(next, f[:params.PopSize-len(next)]...)
		break
	}
	// Retire what selection dropped and the archive does not hold. Dead
	// offspring go first: their parents' replay states must still be
	// attached when the evaluator takes back the children's.
	for _, s := range next {
		s.survived = true
	}
	for _, s := range offspring {
		if !s.survived && !s.archived {
			r.discard(s, s.parent)
		}
		s.parent = nil
	}
	for _, s := range r.pop {
		if !s.survived && !s.archived {
			r.retire(s)
		}
	}
	for _, s := range next {
		s.survived = false
	}
	e.spare = r.pop[:0]
	r.pop = next
	r.arch.sc.rankAndCrowd(r.pop)
}

// save adds nothing: an NSGA-II run is fully described by its population,
// archive and RNG position.
func (e *nsga2) save(*Checkpoint) {}

// tournament returns the best of k randomly drawn members.
func tournament(rng *rand.Rand, pop []*solution, k int) *solution {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if better(c, best) {
			best = c
		}
	}
	return best
}

// evaluate computes fitness for all solutions, in parallel when beneficial.
// With Params.Workers ≤ 0 it claims CPU tokens from the process-wide
// budget shared with the sweep engine, so GA evaluators nested under
// parallel sweep cells divide GOMAXPROCS instead of oversubscribing it;
// the request is clamped to len(sols) up front so tokens a small batch
// could never use are not taken from concurrent runs even for an instant.
// Worker count never affects results: each solution's evaluation is
// independent and written to its own slot.
//
// When the problem's evaluators implement DeltaEvaluator, each solution
// with a recorded parent is evaluated incrementally against that parent's
// replay state — an exact optimization (results are bit-identical to full
// evaluation).
func (r *runState) evaluate(sols []*solution) {
	if len(sols) == 0 {
		return
	}
	workers := r.params.Workers
	if workers <= 0 {
		want := runtime.GOMAXPROCS(0)
		if want > len(sols) {
			want = len(sols)
		}
		acquired := sweep.AcquireWorkers(want)
		defer func() { sweep.ReleaseWorkers(acquired) }()
		workers = acquired
	} else if workers > len(sols) {
		workers = len(sols)
	}
	evs := r.evaluators(max(workers, 1))
	if workers <= 1 {
		for _, s := range sols {
			evalOne(evs[0], s)
		}
		return
	}
	// Index striding over a shared atomic counter: no channel sends per
	// solution and no per-item allocation on the dispatch path. Each worker
	// owns one evaluator, so scratch state is goroutine-local.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for _, ev := range evs {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sols) {
					return
				}
				evalOne(ev, sols[i])
			}
		}()
	}
	wg.Wait()
}

// evaluators returns k of the run's evaluators, minting any it lacks. They
// live as long as the run, so each keeps its scratch from one generation
// to the next.
func (r *runState) evaluators(k int) []Evaluator {
	for len(r.evs) < k {
		r.evs = append(r.evs, newEvaluator(r.p))
	}
	return r.evs[:k]
}

// evalOne scores one solution with ev: incrementally against its parent's
// replay state when ev is a DeltaEvaluator, in full otherwise.
func evalOne(ev Evaluator, s *solution) {
	if de, ok := ev.(DeltaEvaluator); ok {
		var pg *Genome
		var pst any
		if s.parent != nil {
			pg, pst = s.parent.genome, s.parent.delta
		}
		s.eval, s.delta = de.EvaluateDelta(s.genome, pg, pst)
	} else {
		s.eval = ev.Evaluate(s.genome)
		s.delta = nil
	}
}

// RandomSearch evaluates the given number of uniformly random genomes and
// returns the feasible non-dominated front — the problem-agnostic sanity
// baseline used by the ablation studies.
func RandomSearch(p Problem, evals int, seed int64) (*Result, error) {
	if evals < 1 {
		return nil, fmt.Errorf("moea: random search needs at least one evaluation")
	}
	rng := rand.New(rand.NewSource(seed))
	ev := newEvaluator(p)
	arch := newArchiveState(archiveCap, new(selScratch))
	batch := make([]*solution, 0, archiveCap)
	for i := 0; i < evals; i++ {
		s := &solution{genome: RandomGenome(rng, p)}
		s.eval = ev.Evaluate(s.genome)
		batch = append(batch, s)
		if len(batch) == cap(batch) || i == evals-1 {
			arch.add(batch)
			batch = batch[:0]
		}
	}
	return &Result{Front: arch.front(), Evaluations: evals}, nil
}
