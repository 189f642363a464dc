package moea

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
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
	// ArchiveCap bounds the external non-dominated archive (0 = 256).
	ArchiveCap int
	// DisableConfigCrossover / DisableOrderCrossover / DisableOrderMutation
	// switch off individual operators for ablation studies; the zero values
	// reproduce the paper's operator set (§V.C).
	DisableConfigCrossover bool
	DisableOrderCrossover  bool
	DisableOrderMutation   bool
	// FixedOrder, when non-nil, pins every genome's scheduling order to
	// this permutation and disables the order operators — the mode used by
	// configuration-only searches (Eq. 5's "cross-layer-reliability only"
	// space, where task mapping and scheduling are not degrees of freedom).
	FixedOrder []int
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
	// DisableDelta turns off delta evaluation on problems whose evaluators
	// implement DeltaEvaluator. Delta evaluation is exact — results are
	// bit-identical either way — so this switch exists for measurement and
	// as an escape hatch, not for correctness.
	DisableDelta bool
	// Migration, when non-nil, makes this run one island of an
	// island-model search (NSGA-II engine only): every Migration.Every
	// generations the run exchanges elite migrants with its ring
	// neighbors through Migration.Exchange. Selection uses a dedicated
	// epoch-seeded RNG and insertion is draw-free, so the main evolution
	// stream is byte-identical with or without migration.
	Migration *Migration
	// TerminateOnPlateau, when set, stops the run early once the archive
	// hypervolume has plateaued: PlateauWindow consecutive generations
	// with relative improvement below PlateauEps (defaults
	// DefaultPlateauWindow / DefaultPlateauEps when zero). The tracking is
	// observation-only — it consumes no RNG draws and perturbs no
	// selection decision — so a run that never hits the plateau is
	// byte-identical to one with termination off, and the default-off
	// setting preserves every pinned golden. Incompatible with Migration:
	// an early-stopping island would strand its peers at the epoch
	// barrier.
	TerminateOnPlateau bool
	// PlateauWindow is the plateau length in generations (0 = default).
	PlateauWindow int
	// PlateauEps is the relative hypervolume-improvement threshold below
	// which a generation counts toward the plateau (0 = default).
	PlateauEps float64
}

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
	if err := p.Migration.validate(p.PopSize); err != nil {
		return err
	}
	if p.TerminateOnPlateau {
		if p.Migration != nil {
			return fmt.Errorf("moea: plateau termination is incompatible with island migration")
		}
		if p.PlateauWindow < 0 {
			return fmt.Errorf("moea: plateau window %d must be ≥ 0", p.PlateauWindow)
		}
		if math.IsNaN(p.PlateauEps) || math.IsInf(p.PlateauEps, 0) || p.PlateauEps < 0 {
			return fmt.Errorf("moea: plateau epsilon %v must be finite and ≥ 0", p.PlateauEps)
		}
	} else if p.PlateauWindow != 0 || p.PlateauEps != 0 {
		return fmt.Errorf("moea: plateau window/epsilon require TerminateOnPlateau")
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
	// GenerationsRun counts completed generations — equal to the
	// configured budget unless plateau termination stopped the run early.
	GenerationsRun int
	// PlateauStopped reports that the run ended on a hypervolume plateau
	// before exhausting its generation budget.
	PlateauStopped bool
}

// Run executes the GA on the problem. seeds, if any, are injected into the
// initial population (the directed-seeding mechanism of the proposed
// methodology, Fig. 4(b)); they are cloned, so callers keep ownership.
func Run(p Problem, params Params, seeds []*Genome) (*Result, error) {
	return drive(p, params, seeds, newNSGA2)
}

// nsga2 is the NSGA-II engine: tournament variation, optional island
// migration, and elitist environmental selection by non-dominated rank and
// crowding distance.
type nsga2 struct {
	migLog []EpochMigrants
	// Selection-path buffers, reused every generation: the
	// parents∪offspring union (exactly 2·PopSize), the offspring list, and
	// the ping-pong spare that becomes the next population while the
	// outgoing population's array is recycled, plus the order-crossover
	// scratch. Solutions themselves are freshly allocated per generation;
	// only the pointer slices are reused.
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
	if cp != nil {
		e.migLog = cloneMigrantLog(cp.Migration)
	}
	r.arch.sc.rankAndCrowd(r.pop)
	return nil
}

func (e *nsga2) step(r *runState, gen int) error {
	params := &r.params
	if params.Migration.due(gen) {
		// Epoch boundary: exchange migrants before any variation of this
		// generation. Checkpoints at a boundary therefore hold
		// pre-migration state, and a resumed island re-posts the boundary
		// epoch byte-identically (the hub replays the cached exchange, so
		// peers that moved on are unaffected).
		if err := runMigration(params.Ctx, r.p, params, gen, r.pop, r.arch, &e.migLog); err != nil {
			return err
		}
	}
	// Variation: tournaments pick parents; the paper's two crossovers and
	// two mutations produce the offspring.
	rng := r.rng
	offspring := e.offBuf[:0]
	for len(offspring) < params.PopSize {
		pa := tournament(rng, r.pop, params.TournamentK)
		pb := tournament(rng, r.pop, params.TournamentK)
		a := pa.genome.Clone()
		b := pb.genome.Clone()
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
			}
		}
	}
	evaluate(r.p, offspring, params.Workers, r.useDelta)
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
		sort.Sort(crowdDescSorter(f))
		next = append(next, f[:params.PopSize-len(next)]...)
		break
	}
	e.spare = r.pop[:0]
	r.pop = next
	r.arch.sc.rankAndCrowd(r.pop)
	return nil
}

func (e *nsga2) save(cp *Checkpoint) { cp.Migration = cloneMigrantLog(e.migLog) }

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
// With workers ≤ 0 it claims CPU tokens from the process-wide budget shared
// with the sweep engine, so GA evaluators nested under parallel sweep cells
// divide GOMAXPROCS instead of oversubscribing it; the request is clamped
// to len(sols) up front so tokens a small batch could never use are not
// taken from concurrent runs even for an instant. Worker count never
// affects results: each solution's evaluation is independent and written to
// its own slot.
//
// When useDelta is set and the problem's evaluators implement
// DeltaEvaluator, each solution with a recorded parent is evaluated
// incrementally against that parent's replay state — an exact optimization
// (results are bit-identical to full evaluation). Parent links are cleared
// afterwards so retired generations can be collected.
func evaluate(p Problem, sols []*solution, workers int, useDelta bool) {
	if len(sols) == 0 {
		return
	}
	if bp, ok := p.(BatchProblem); ok {
		items := make([]BatchItem, len(sols))
		for i, s := range sols {
			items[i] = BatchItem{Genome: s.genome}
			if s.parent != nil {
				items[i].Parent = s.parent.genome
			}
		}
		bp.PrepareBatch(items)
	}
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
	if workers <= 1 {
		ev := newEvaluator(p)
		for _, s := range sols {
			evalOne(ev, s, useDelta)
		}
		return
	}
	// Index striding over a shared atomic counter: no channel sends per
	// solution and no per-item allocation on the dispatch path. Each worker
	// owns one evaluator, so scratch state is goroutine-local.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			ev := newEvaluator(p)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sols) {
					return
				}
				evalOne(ev, sols[i], useDelta)
			}
		}()
	}
	wg.Wait()
}

// evalOne scores one solution with ev: incrementally against its parent's
// replay state when delta evaluation applies, in full otherwise. The
// parent link is cleared afterwards so retired generations can be
// collected.
func evalOne(ev Evaluator, s *solution, useDelta bool) {
	if de, ok := ev.(DeltaEvaluator); ok && useDelta {
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
	s.parent = nil
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
	arch := newArchiveState(256, new(selScratch))
	batch := make([]*solution, 0, 256)
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
