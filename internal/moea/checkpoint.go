package moea

import (
	"fmt"
	"math"
	"math/rand"
)

// countingSource wraps a rand.Source and counts every draw taken from it.
// The count is the replay coordinate of a checkpointed GA run: a resumed
// run rebuilds the source from the same seed and fast-forwards it by the
// recorded number of draws, after which the RNG stream continues exactly
// where the interrupted run left off.
type countingSource struct {
	src rand.Source
	s64 rand.Source64 // non-nil when src natively implements Source64
	n   uint64
}

func newCountingSource(seed int64) *countingSource {
	src := rand.NewSource(seed)
	c := &countingSource{src: src}
	if s64, ok := src.(rand.Source64); ok {
		c.s64 = s64
	}
	return c
}

func (c *countingSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	if c.s64 != nil {
		c.n++
		return c.s64.Uint64()
	}
	// Two Int63 draws, composed the way rand.Rand does for plain sources.
	c.n += 2
	a, b := c.src.Int63(), c.src.Int63()
	return uint64(a)>>31 | uint64(b)<<32
}

func (c *countingSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// Draws reports the number of draws consumed since the seed.
func (c *countingSource) Draws() uint64 { return c.n }

// FastForward advances the freshly seeded source by n draws, replaying the
// prefix a checkpointed run already consumed.
func (c *countingSource) FastForward(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Int63()
	}
	c.n = n
}

// CheckpointSolution is one population or archive member in durable form.
// Objectives and the violation travel as float64 bit patterns so a resumed
// run carries bit-exact fitness values (ranking, crowding and archive
// updates recompute from them deterministically).
type CheckpointSolution struct {
	Order      []int    `json:"order"`
	Genes      []Gene   `json:"genes"`
	Objectives []uint64 `json:"obj_bits"`
	Violation  uint64   `json:"violation_bits"`
}

// Checkpoint is a resumable snapshot of a GA or MOEA/D run taken at a
// generation boundary. Together with the run's Params (same seed, budget
// and operators) it determines the remainder of the run completely: a run
// resumed from a checkpoint produces a byte-identical final front to the
// uninterrupted run.
type Checkpoint struct {
	// Generation counts completed generations at the snapshot point.
	Generation int `json:"generation"`
	// Evaluations is the fitness-evaluation count so far.
	Evaluations int `json:"evaluations"`
	// Draws is the number of RNG draws consumed since the seed; resume
	// fast-forwards a fresh source by this many draws.
	Draws uint64 `json:"rng_draws"`
	// Ideal is the MOEA/D ideal point z* as float bits (empty for NSGA-II).
	// It cannot be recomputed on resume: it aggregates over every child
	// ever evaluated, including ones no longer in the population.
	Ideal      []uint64             `json:"ideal_bits,omitempty"`
	Population []CheckpointSolution `json:"population"`
	Archive    []CheckpointSolution `json:"archive"`
}

// snapshotSolution deep-copies a live solution into durable form.
func snapshotSolution(s *solution) CheckpointSolution {
	out := CheckpointSolution{
		Order:      append([]int(nil), s.genome.Order...),
		Genes:      append([]Gene(nil), s.genome.Genes...),
		Objectives: make([]uint64, len(s.eval.Objectives)),
		Violation:  math.Float64bits(s.eval.Violation),
	}
	for i, v := range s.eval.Objectives {
		out.Objectives[i] = math.Float64bits(v)
	}
	return out
}

func snapshotSolutions(sols []*solution) []CheckpointSolution {
	out := make([]CheckpointSolution, len(sols))
	for i, s := range sols {
		out[i] = snapshotSolution(s)
	}
	return out
}

// restoreSolutions rebuilds live solutions from a checkpoint, validating
// them against the problem's dimensions.
func restoreSolutions(css []CheckpointSolution, nTasks, nObjs int) ([]*solution, error) {
	out := make([]*solution, len(css))
	for i, cs := range css {
		if len(cs.Order) != nTasks || len(cs.Genes) != nTasks {
			return nil, fmt.Errorf("moea: checkpoint solution %d has %d/%d genes, problem has %d tasks",
				i, len(cs.Order), len(cs.Genes), nTasks)
		}
		if len(cs.Objectives) != nObjs {
			return nil, fmt.Errorf("moea: checkpoint solution %d has %d objectives, problem has %d",
				i, len(cs.Objectives), nObjs)
		}
		g := &Genome{
			Order: append([]int(nil), cs.Order...),
			Genes: append([]Gene(nil), cs.Genes...),
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("moea: checkpoint solution %d: %w", i, err)
		}
		objs := make([]float64, len(cs.Objectives))
		for j, b := range cs.Objectives {
			objs[j] = math.Float64frombits(b)
		}
		out[i] = &solution{
			genome: g,
			eval:   Evaluation{Objectives: objs, Violation: math.Float64frombits(cs.Violation)},
		}
	}
	return out, nil
}

// validateResume sanity-checks a checkpoint against the run parameters.
func validateResume(cp *Checkpoint, params Params) error {
	if cp.Generation < 0 || cp.Generation > params.Generations {
		return fmt.Errorf("moea: checkpoint at generation %d outside run budget %d",
			cp.Generation, params.Generations)
	}
	if len(cp.Population) != params.PopSize {
		return fmt.Errorf("moea: checkpoint population %d, run wants %d",
			len(cp.Population), params.PopSize)
	}
	return nil
}

// checkpointDue reports whether a snapshot should be emitted after the
// given completed-generation count.
func (p Params) checkpointDue(gen int) bool {
	return p.OnCheckpoint != nil && p.CheckpointEvery > 0 &&
		gen%p.CheckpointEvery == 0 && gen < p.Generations
}

// checkpointOnCancel emits a final snapshot when a run is cancelled, so
// the work completed so far survives a shutdown and resumes later.
func (p Params) checkpointOnCancel(cp *Checkpoint) {
	if p.OnCheckpoint != nil {
		p.OnCheckpoint(cp)
	}
}
