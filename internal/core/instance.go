// Package core implements the CL(R)Early system-level DSE methodology of
// Section V of the paper: CLR-integrated task mapping on a heterogeneous
// MPSoC via MOEA-based optimization, in three strategies —
//
//   - fcCLR: full-configuration CLR, the problem-agnostic baseline (the
//     Das-et-al-style approach): every CLR decision of every task is an
//     independent degree of freedom of the GA;
//   - pfCLR: the GA explores only the task-level Pareto-filtered
//     implementations produced by tDSE;
//   - proposed: the two-stage method of Fig. 4(b) — the pfCLR Pareto front
//     is decoded into full-configuration genomes and used to seed an fcCLR
//     run (directed search with design-space pruning);
//
// plus the single-layer baselines (DVFS-only, HWRel-only, SSWRel-only,
// ASWRel-only) whose merged fronts form the "Agnostic" comparison of
// Fig. 7 / TABLE V.
package core

import (
	"fmt"

	"repro/internal/characterize"
	"repro/internal/faultmodel"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
)

// SystemObjective identifies one system-level optimization objective of
// Eq. 5. All are minimized; Lifetime is negated internally.
type SystemObjective int

const (
	// Makespan minimizes S_app (Eq. 1).
	Makespan SystemObjective = iota
	// AppErrProb minimizes 1 − F_app (Eq. 3) — the "application error
	// probability" axis of the paper's figures.
	AppErrProb
	// Lifetime maximizes L_app = MTTF_sys (Eq. 2).
	Lifetime
	// Energy minimizes J_app (Eq. 4).
	Energy
	// PeakPower minimizes W_app (Eq. 4).
	PeakPower
)

// String names the objective.
func (o SystemObjective) String() string {
	switch o {
	case Makespan:
		return "makespan"
	case AppErrProb:
		return "app-error-probability"
	case Lifetime:
		return "lifetime"
	case Energy:
		return "energy"
	case PeakPower:
		return "peak-power"
	default:
		return fmt.Sprintf("SystemObjective(%d)", int(o))
	}
}

// DefaultObjectives returns the two objectives plotted throughout the
// paper's system-level evaluation: average makespan and application error
// probability.
func DefaultObjectives() []SystemObjective {
	return []SystemObjective{Makespan, AppErrProb}
}

// objectiveValue extracts a minimization value from a schedule result.
func objectiveValue(r *schedule.Result, o SystemObjective) float64 {
	switch o {
	case Makespan:
		return r.MakespanUS
	case AppErrProb:
		return r.ErrProb
	case Lifetime:
		return -r.MTTFHours
	case Energy:
		return r.EnergyUJ
	case PeakPower:
		return r.PeakPowerW
	default:
		panic(fmt.Sprintf("core: unknown system objective %d", int(o)))
	}
}

// Instance bundles one DSE problem: the application, the platform, the
// implementation characterizations, the reliability method catalog, the
// optimization objectives and the QoS constraints of Eq. 5.
type Instance struct {
	Graph      *taskgraph.Graph
	Platform   *platform.Platform
	Lib        *characterize.Library
	Catalog    *relmodel.Catalog
	Objectives []SystemObjective
	Spec       schedule.Spec
	// Comm enables the communication-aware scheduling extension; the zero
	// value reproduces the paper's communication-free estimation.
	Comm schedule.CommModel
	// EnforceMemory enables the storage-constraint extension: mappings
	// whose per-PE resident footprint exceeds the PE type's LocalMemKB are
	// treated as constraint violations. Off reproduces the paper's model.
	EnforceMemory bool
	// Faults, when non-nil, evaluates every task metric under the resolved
	// per-PE-type combined fault model (relmodel.EvaluateFM); nil keeps the
	// SEU-only path bit-identical to the base engine. The model is constant
	// per instance, so the shared metric table stays keyed by
	// (taskType, impl, assignment) alone — derive a fresh instance (as
	// WithPlatform does) rather than mutating this field on a live one.
	Faults *faultmodel.Model

	// metrics is the lazily created instance-level Markov-metric table
	// (see cache.go), shared by every fcCLR-encoded run on this instance. A
	// plain pointer keeps Instance values copyable; use WithPlatform when
	// deriving an instance whose metrics differ.
	metrics *metricsTable
}

// Validate checks cross-references between the instance's components.
func (in *Instance) Validate() error {
	if in.Graph == nil || in.Platform == nil || in.Lib == nil || in.Catalog == nil {
		return fmt.Errorf("core: instance has nil components")
	}
	if err := in.Catalog.Validate(); err != nil {
		return err
	}
	if err := in.Lib.Validate(in.Platform); err != nil {
		return err
	}
	if in.Graph.NumTypes() > in.Lib.NumTypes() {
		return fmt.Errorf("core: application uses %d task types, library characterizes %d",
			in.Graph.NumTypes(), in.Lib.NumTypes())
	}
	if len(in.Objectives) == 0 {
		return fmt.Errorf("core: no optimization objectives")
	}
	return in.checkPermanentExposure()
}

// MaxPermanentHits bounds the expected number of permanent-fault hits
// (the fault model's permanent rate plus the PE type's configuration-memory
// upsets) in one execution of any implementation, at its slowest DVFS mode
// and its slowest hardware and application-software methods.
//
// The bound keeps every reliability chain of the instance analyzable. A
// chain interval is left with probability at least
// pSurv·(1 − CovDet·MTol), where pSurv ≥ e^−MaxPermanentHits is the chance
// of no permanent hit and CovDet·MTol ≤ 0.9992·0.9998 is the largest
// rollback probability any built-in catalog and checkpoint mode reach
// (TestRollbackLoopsEscape). That is ≥ 4e−8, far above float64 rounding,
// so the (I − Q) systems stay non-singular whatever the transient rates.
// Without it, a permanent rate that makes a hit near certain combined
// with repair_prob 1 leaves a loop the chain never exits: the LU
// factorization fails ("chain is not absorbing"), tdse.Build returns the
// error and an fcCLR run panics on it. No physical fault environment comes
// near the bound; the FPGA family's configuration upsets stay below one
// hit per execution.
const MaxPermanentHits = 10

// checkPermanentExposure enforces MaxPermanentHits. Exposure grows with
// execution time alone, so each implementation is checked once, under the
// assignment that makes it slowest. A PE type without a permanent process
// (no permanent rate in its fault model, no configuration-memory upsets)
// exposes nothing: only its first implementation is checked, which still
// validates the type's fault model, as every later one would.
func (in *Instance) checkPermanentExposure() error {
	var slow relmodel.Assignment
	for i, m := range in.Catalog.HW {
		if m.TimeFactor > in.Catalog.HW[slow.HW].TimeFactor {
			slow.HW = i
		}
	}
	for i, m := range in.Catalog.ASW {
		if m.TimeFactor > in.Catalog.ASW[slow.ASW].TimeFactor {
			slow.ASW = i
		}
	}
	var unexposed uint64 // bit i: PE type i is checked and has no permanent process
	for tt := 0; tt < in.Lib.NumTypes(); tt++ {
		for _, impl := range in.Lib.ImplsShared(tt) {
			pti := impl.PETypeIndex
			if pti < 64 && unexposed&(1<<pti) != 0 {
				continue
			}
			pt := in.Platform.Types()[pti]
			asg := slow
			asg.Mode = len(pt.Modes) - 1 // modes are ordered nominal-first: the last is the slowest
			fm := in.Faults.For(pt.Name)
			p, err := relmodel.ChainParamsFor(impl, asg, pt, in.Catalog, fm, faultmodel.CheckpointPolicy{})
			if err != nil {
				return err
			}
			if fm.PermanentPerHour == 0 && pt.ConfigSEURatePerSec == 0 && pti < 64 {
				unexposed |= 1 << pti
			}
			if hits := p.PermPerUS * p.ExecTimeUS; !(hits <= MaxPermanentHits) {
				return fmt.Errorf("core: %.3g expected permanent-fault hits per execution of %q on %s exceed %d",
					hits, impl.Name, pt.Name, MaxPermanentHits)
			}
		}
	}
	return nil
}

// objectives returns the instance's objectives, defaulting to the paper's.
func (in *Instance) objectives() []SystemObjective {
	if len(in.Objectives) == 0 {
		return DefaultObjectives()
	}
	return in.Objectives
}

// compatiblePEs returns, per PE type index, the IDs of the platform's PEs
// of that type.
func compatiblePEs(p *platform.Platform) [][]int {
	out := make([][]int, len(p.Types()))
	for i, t := range p.Types() {
		out[i] = p.PEsOfType(t)
	}
	return out
}

// maxModes returns the largest DVFS mode count across PE types, the range
// of the genome's Mode field (decoded modulo the actual count).
func maxModes(p *platform.Platform) int {
	m := 0
	for _, t := range p.Types() {
		if len(t.Modes) > m {
			m = len(t.Modes)
		}
	}
	return m
}
