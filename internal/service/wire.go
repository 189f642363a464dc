// Package service is what a CL(R)Early run is: the canonical job
// specification (JobSpec) with its normalization, content hash and
// validation, the builds and executions of a spec (Build, Execute*,
// DurableExecute with run checkpoints in a store), and the typed wire
// structs shared by the job API and the CLI's -json output. How jobs are
// served (admission, the job table, leases, the HTTP API) is
// internal/gateway's.
package service

import (
	"time"

	"repro/internal/core"
	"repro/internal/schedule"
)

// PointWire is one Pareto point on the wire: the raw objective vector the
// GA minimized plus the full system-level QoS metrics of the design.
type PointWire struct {
	Objectives    []float64 `json:"objectives"`
	MakespanUS    float64   `json:"makespan_us"`
	FunctionalRel float64   `json:"functional_rel"`
	ErrProb       float64   `json:"err_prob"`
	MTTFHours     float64   `json:"mttf_hours"`
	EnergyUJ      float64   `json:"energy_uj"`
	PeakPowerW    float64   `json:"peak_power_w"`
}

// FrontWire is a Pareto front on the wire.
type FrontWire struct {
	Points      []PointWire `json:"points"`
	Evaluations int         `json:"evaluations"`
}

// FrontToWire converts a core front into its wire form. Points keep the
// archive order of the run that produced them: runs are deterministic per
// normalized spec, so the archive order — and with it the serialized bytes
// — is canonical, and preserving it lets a remote sweep reconstruct the
// exact front a local run would have produced. (A
// re-sorting pass would also be unstable under duplicate QoS vectors.)
func FrontToWire(f *core.Front) *FrontWire {
	out := &FrontWire{Evaluations: f.Evaluations, Points: make([]PointWire, 0, len(f.Points))}
	for _, p := range f.Points {
		q := p.QoS
		out.Points = append(out.Points, PointWire{
			Objectives:    append([]float64(nil), p.Objectives...),
			MakespanUS:    q.MakespanUS,
			FunctionalRel: q.FunctionalRel,
			ErrProb:       q.ErrProb,
			MTTFHours:     q.MTTFHours,
			EnergyUJ:      q.EnergyUJ,
			PeakPowerW:    q.PeakPowerW,
		})
	}
	return out
}

// FrontFromWire reconstructs a core front from its wire form. Objective
// vectors, QoS metrics and the evaluation count survive the JSON round
// trip bit-exactly (encoding/json emits shortest-roundtrip float64), and
// archive order is preserved by FrontToWire, so downstream analyses
// (hypervolume, spacing, IGD) see the same bytes as a local run. Genomes
// do not travel on the wire; the reconstructed points carry nil genomes
// and QoS structs with only the wire metrics populated.
func FrontFromWire(fw *FrontWire) *core.Front {
	out := &core.Front{Evaluations: fw.Evaluations, Points: make([]core.Point, 0, len(fw.Points))}
	for _, p := range fw.Points {
		out.Points = append(out.Points, core.Point{
			Objectives: append([]float64(nil), p.Objectives...),
			QoS: &schedule.Result{
				MakespanUS:    p.MakespanUS,
				FunctionalRel: p.FunctionalRel,
				ErrProb:       p.ErrProb,
				MTTFHours:     p.MTTFHours,
				EnergyUJ:      p.EnergyUJ,
				PeakPowerW:    p.PeakPowerW,
			},
		})
	}
	return out
}

// ProgressWire is one generation-by-generation progress event of a running
// job, as streamed over SSE and embedded in job status responses.
type ProgressWire struct {
	// Stage names the GA stage emitting the event ("pfclr", "fcclr",
	// "mapping" or a reliability-layer name).
	Stage string `json:"stage"`
	// Generation / Generations are the completed count and budget within
	// the stage; TotalGenerations is the whole job's budget across stages.
	Generation       int `json:"generation"`
	Generations      int `json:"generations"`
	TotalGenerations int `json:"total_generations"`
	// Evaluations counts fitness evaluations spent in the stage so far.
	Evaluations int `json:"evaluations"`
	// ArchiveSize is the stage's current non-dominated archive size.
	ArchiveSize int `json:"archive_size"`
}

// ProgressToWire converts one engine progress event of a job whose
// budget across stages is total generations.
func ProgressToWire(e core.ProgressEvent, total int) ProgressWire {
	return ProgressWire{
		Stage:            e.Stage,
		Generation:       e.Generation,
		Generations:      e.Generations,
		TotalGenerations: total,
		Evaluations:      e.Evaluations,
		ArchiveSize:      e.ArchiveSize,
	}
}

// Job states as reported on the wire.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobWire is the status representation of one job.
type JobWire struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Method   string `json:"method"`
	SpecHash string `json:"spec_hash"`
	// Cached marks a job served from the result cache without running.
	Cached bool   `json:"cached,omitempty"`
	Error  string `json:"error,omitempty"`
	// Progress is the latest generation report (running or finished jobs).
	Progress    *ProgressWire `json:"progress,omitempty"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	// Front is present once the job is done.
	Front *FrontWire `json:"front,omitempty"`
}
