package core

import (
	"math"

	"repro/internal/moea"
)

// Checkpointer is the durability hook of a strategy run. Strategies are
// sequences (or parallel sets) of named GA stages; the checkpointer
// receives mid-stage engine snapshots and completed stage fronts, and on a
// rerun of the same spec hands them back so the run continues where it
// stopped instead of restarting. Implementations must be safe for
// concurrent use: strategies with parallel stages (Agnostic) save from
// several goroutines.
//
// Determinism contract: stage names are unique within one strategy run,
// every stage is deterministic given its RunConfig, and moea checkpoints
// restore bit-exact state — so a run resumed through a Checkpointer yields
// a byte-identical front to an uninterrupted run of the same spec.
type Checkpointer interface {
	// SaveStage persists a mid-stage engine snapshot.
	SaveStage(stage string, cp *moea.Checkpoint)
	// SaveFront persists a completed stage's front.
	SaveFront(stage string, fs *FrontSnapshot)
	// ResumeStage returns the saved mid-stage snapshot, or nil.
	ResumeStage(stage string) *moea.Checkpoint
	// ResumeFront returns the saved front of a completed stage, or nil.
	ResumeFront(stage string) *FrontSnapshot
}

// FrontSnapshot is a completed stage's front in durable form: objective
// vectors as float bit patterns plus the full genomes. QoS metrics do not
// travel — decoding a genome is deterministic, so they are recomputed
// bit-exactly on restore.
type FrontSnapshot struct {
	Evaluations int                  `json:"evaluations"`
	Points      []FrontSnapshotPoint `json:"points"`
}

// FrontSnapshotPoint is one durable Pareto point.
type FrontSnapshotPoint struct {
	Objectives []uint64    `json:"obj_bits"`
	Order      []int       `json:"order"`
	Genes      []moea.Gene `json:"genes"`
}

// SnapshotFront converts a strategy-produced front (whose points carry
// genomes) into durable form.
func SnapshotFront(f *Front) *FrontSnapshot {
	out := &FrontSnapshot{Evaluations: f.Evaluations, Points: make([]FrontSnapshotPoint, len(f.Points))}
	for i, p := range f.Points {
		fp := FrontSnapshotPoint{
			Objectives: make([]uint64, len(p.Objectives)),
			Order:      append([]int(nil), p.Genome.Order...),
			Genes:      append([]moea.Gene(nil), p.Genome.Genes...),
		}
		for j, v := range p.Objectives {
			fp.Objectives[j] = math.Float64bits(v)
		}
		out.Points[i] = fp
	}
	return out
}

// restoreFront rebuilds a live front from its snapshot, re-deriving each
// point's QoS metrics through the stage's problem (archive order is
// preserved, so the restored front is byte-identical to the one saved).
func restoreFront(fs *FrontSnapshot, p problemCore) *Front {
	out := &Front{Evaluations: fs.Evaluations, Points: make([]Point, len(fs.Points))}
	for i, fp := range fs.Points {
		objs := make([]float64, len(fp.Objectives))
		for j, b := range fp.Objectives {
			objs[j] = math.Float64frombits(b)
		}
		g := &moea.Genome{
			Order: append([]int(nil), fp.Order...),
			Genes: append([]moea.Gene(nil), fp.Genes...),
		}
		out.Points[i] = Point{Objectives: objs, QoS: decodeResult(p, g), Genome: g}
	}
	return out
}

// DefaultCheckpointEvery is the generation period of durable snapshots
// when RunConfig enables checkpointing without choosing one.
const DefaultCheckpointEvery = 5
