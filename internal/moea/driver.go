package moea

import (
	"fmt"
	"math/rand"
)

// engine is one MOEA family run by the shared generation driver. The
// driver owns everything around the generation loop: parameter checks,
// the initial or restored population, the archive and plateau tracker,
// cancellation, progress reports, the checkpoint cadence and the final
// front. An engine supplies only what differs between families.
type engine interface {
	// start prepares the engine once the initial population is evaluated
	// (cp == nil) or a checkpointed one restored (cp is the checkpoint).
	start(r *runState, cp *Checkpoint) error
	// step advances r.pop by one generation. An error under a cancelled
	// context is reported as the cancellation, with a snapshot at gen.
	step(r *runState, gen int) error
	// save adds the engine's own state to a generation-boundary snapshot.
	save(cp *Checkpoint)
}

// runState is the run state the driver shares with its engine.
type runState struct {
	p        Problem
	params   Params
	rng      *rand.Rand
	useDelta bool
	arch     *archiveState
	pop      []*solution
	evals    int
}

// mutate applies the per-gene mutation and, unless switched off, the order
// mutation to one child — the mutation step both engines share.
func (r *runState) mutate(g *Genome) {
	for t := range g.Genes {
		if r.rng.Float64() < r.params.MutationProb {
			g.Genes[t] = r.p.MutateGene(r.rng, t, g.Genes[t])
		}
	}
	if !r.params.DisableOrderMutation && r.rng.Float64() < r.params.MutationProb {
		mutateOrder(r.rng, g)
	}
}

// drive runs one engine on the problem: seeds (cloned; truncated to
// PopSize) and random genomes form the initial population unless
// params.Resume restores a checkpointed run, and the generation loop
// continues until the budget is spent, the plateau detector fires or
// params.Ctx is cancelled. newEngine runs right after Params.Validate, so
// it can reject configurations its family does not support.
func drive(p Problem, params Params, seeds []*Genome, newEngine func(Problem, Params) (engine, error)) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(p, params)
	if err != nil {
		return nil, err
	}
	n, m := p.NumTasks(), p.NumObjectives()
	if params.FixedOrder != nil {
		if len(params.FixedOrder) != n {
			return nil, fmt.Errorf("moea: fixed order has %d entries, want %d", len(params.FixedOrder), n)
		}
		if err := (&Genome{Order: params.FixedOrder, Genes: make([]Gene, n)}).Validate(); err != nil {
			return nil, fmt.Errorf("moea: invalid fixed order: %w", err)
		}
		params.DisableOrderCrossover = true
		params.DisableOrderMutation = true
	}
	archiveCap := params.ArchiveCap
	if archiveCap <= 0 {
		archiveCap = 256
	}
	src := newCountingSource(params.Seed)
	// Per-run selection machinery: one scratch (islands run engines
	// concurrently, so nothing is shared across runs), the incremental
	// archive, and the plateau tracker (inert unless TerminateOnPlateau).
	r := &runState{
		p:        p,
		params:   params,
		rng:      rand.New(src),
		useDelta: !params.DisableDelta,
		arch:     newArchiveState(archiveCap, new(selScratch)),
	}
	plateau := newPlateauState(params, m)
	r.arch.plateau = plateau
	startGen, doneGen, stopped := 0, 0, false
	defer func() {
		flushSelectionTotals(r.arch.sc, r.arch, plateau, startGen, doneGen, params.Generations, stopped)
	}()
	snap := func(gen int) *Checkpoint {
		cp := &Checkpoint{
			Generation:  gen,
			Evaluations: r.evals,
			Draws:       src.Draws(),
			Population:  snapshotSolutions(r.pop),
			Archive:     snapshotSolutions(r.arch.members),
			Plateau:     plateau.snapshot(),
		}
		e.save(cp)
		return cp
	}

	if cp := params.Resume; cp != nil {
		// Restore the checkpointed state instead of initializing: the
		// population and archive carry bit-exact fitness values, and the
		// RNG fast-forwards past the draws the interrupted run consumed.
		if err := validateResume(cp, params); err != nil {
			return nil, err
		}
		if r.pop, err = restoreSolutions(cp.Population, n, m); err != nil {
			return nil, err
		}
		archive, err := restoreSolutions(cp.Archive, n, m)
		if err != nil {
			return nil, err
		}
		r.arch.restore(archive)
		if err := plateau.restore(cp.Plateau, r.arch.members); err != nil {
			return nil, err
		}
		src.FastForward(cp.Draws)
		r.evals = cp.Evaluations
		startGen, doneGen = cp.Generation, cp.Generation
		if err := e.start(r, cp); err != nil {
			return nil, err
		}
	} else {
		r.pop = make([]*solution, 0, params.PopSize)
		for _, s := range seeds {
			if len(r.pop) >= params.PopSize {
				break
			}
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("moea: invalid seed: %w", err)
			}
			if len(s.Genes) != n {
				return nil, fmt.Errorf("moea: seed has %d genes, want %d", len(s.Genes), n)
			}
			r.pop = append(r.pop, &solution{genome: s.Clone()})
		}
		for len(r.pop) < params.PopSize {
			r.pop = append(r.pop, &solution{genome: RandomGenome(r.rng, p)})
		}
		if params.FixedOrder != nil {
			for _, s := range r.pop {
				s.genome.Order = append([]int(nil), params.FixedOrder...)
			}
		}
		if err := params.cancelled(); err != nil {
			return nil, err
		}
		evaluate(p, r.pop, params.Workers, r.useDelta)
		r.evals = len(r.pop)
		r.arch.add(r.pop)
		plateau.observe(r.arch)
		if err := e.start(r, nil); err != nil {
			return nil, err
		}
	}
	params.emit(startGen, r.evals, len(r.arch.members))

	for gen := startGen; gen < params.Generations; gen++ {
		if err := params.cancelled(); err != nil {
			// The population is at the gen-generation boundary; snapshot
			// it so the interrupted run resumes here instead of restarting.
			params.checkpointOnCancel(snap(gen))
			return nil, err
		}
		if err := e.step(r, gen); err != nil {
			if ctxErr := params.cancelled(); ctxErr != nil {
				// Blocked through a shutdown (an island waiting at its
				// epoch barrier): the step left the population at the
				// boundary, so snapshot it and re-run the step on resume.
				params.checkpointOnCancel(snap(gen))
				return nil, ctxErr
			}
			return nil, err
		}
		doneGen = gen + 1
		stopped = plateau.observe(r.arch)
		params.emit(gen+1, r.evals, len(r.arch.members))
		if params.checkpointDue(gen + 1) {
			params.OnCheckpoint(snap(gen + 1))
		}
		if stopped {
			break
		}
	}
	return &Result{
		Front:          r.arch.front(),
		Evaluations:    r.evals,
		GenerationsRun: doneGen,
		PlateauStopped: stopped,
	}, nil
}
