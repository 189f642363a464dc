package moea

import (
	"fmt"
	"math/rand"
)

// engine is one MOEA family run by the shared generation driver. The
// driver owns everything around the generation loop: parameter checks,
// the initial or restored population, the archive, cancellation, progress
// reports, the checkpoint cadence and the final front. An engine supplies
// only what differs between families.
type engine interface {
	// start prepares the engine once the initial population is evaluated
	// (cp == nil) or a checkpointed one restored (cp is the checkpoint).
	start(r *runState, cp *Checkpoint) error
	// step advances r.pop by one generation.
	step(r *runState)
	// save adds the engine's own state to a generation-boundary snapshot.
	save(cp *Checkpoint)
}

// runState is the run state the driver shares with its engine.
type runState struct {
	p      Problem
	params Params
	rng    *rand.Rand
	arch   *archiveState
	pop    []*solution
	evals  int
	// evs are the run's per-worker evaluators (see evaluators).
	evs []Evaluator
	// free holds the genomes of solutions that left the run; children are
	// filled from it before a genome is allocated (see child).
	free []*Genome
}

// child returns a copy of src for a new offspring, reusing a free genome
// when there is one. Every genome of a run has the problem's task count.
func (r *runState) child(src *Genome) *Genome {
	k := len(r.free)
	if k == 0 {
		return src.Clone()
	}
	g := r.free[k-1]
	r.free = r.free[:k-1]
	copy(g.Order, src.Order)
	copy(g.Genes, src.Genes)
	return g
}

// retire puts the genome of a solution that is in no population slot and
// not archived on the free list: nothing reads such a solution again.
func (r *runState) retire(s *solution) {
	r.free = append(r.free, s.genome)
	s.genome = nil
}

// discard retires a child that died in its birth generation and hands its
// replay state back to the evaluator, which may recycle whatever the child
// allocated itself: only population members are ever parents, so no other
// solution can hold that state. parent is the solution the child was
// derived from.
func (r *runState) discard(s, parent *solution) {
	if s.delta != nil {
		if rel, ok := r.evs[0].(StateReleaser); ok {
			rel.Release(s.delta, parent.delta)
		}
		s.delta = nil
	}
	r.retire(s)
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
// continues until the budget is spent or params.Ctx is cancelled.
// newEngine runs right after Params.Validate, so it can reject
// configurations its family does not support.
func drive(p Problem, params Params, seeds []*Genome, newEngine func(Problem, Params) (engine, error)) (*Result, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(p, params)
	if err != nil {
		return nil, err
	}
	n, m := p.NumTasks(), p.NumObjectives()
	limit := archiveCap
	if params.archiveLimit > 0 {
		limit = params.archiveLimit
	}
	src := newCountingSource(params.Seed)
	// Per-run selection machinery: one scratch (Agnostic runs its layer
	// stages concurrently, so nothing is shared across runs) and the
	// incremental archive.
	r := &runState{
		p:      p,
		params: params,
		rng:    rand.New(src),
		arch:   newArchiveState(limit, new(selScratch)),
	}
	defer flushSelectionTotals(r.arch)
	startGen := 0
	snap := func(gen int) *Checkpoint {
		cp := &Checkpoint{
			Generation:  gen,
			Evaluations: r.evals,
			Draws:       src.Draws(),
			Population:  snapshotSolutions(r.pop),
			Archive:     snapshotSolutions(r.arch.members),
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
		src.FastForward(cp.Draws)
		r.evals = cp.Evaluations
		startGen = cp.Generation
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
		if err := params.cancelled(); err != nil {
			return nil, err
		}
		r.evaluate(r.pop)
		r.evals = len(r.pop)
		r.arch.add(r.pop)
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
		e.step(r)
		params.emit(gen+1, r.evals, len(r.arch.members))
		if params.checkpointDue(gen + 1) {
			params.OnCheckpoint(snap(gen + 1))
		}
	}
	return &Result{Front: r.arch.front(), Evaluations: r.evals}, nil
}
