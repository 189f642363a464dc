// Package faultmodel generalizes the fault axis of the DSE beyond the
// SEU-only model of the base paper. A FaultModel composes three fault
// processes per PE type — transient (SEU) scaling, intermittent bursts, and
// permanent degradation with probabilistic repair — and a CheckpointPolicy
// makes heterogeneous checkpointing (none / local / TMR-voted) a first-class
// task-level DSE axis next to DVFS and the layer methods.
//
// The package is deliberately a leaf: it holds the model descriptions, their
// strict wire decoding, and process-wide counters. internal/relmodel consumes
// the resolved values when it builds the absorbing Markov chains (permanent
// faults become additional repair/absorbing states, see DESIGN.md §14), and
// internal/tdse enumerates CheckpointPolicy values alongside the per-layer
// methods.
//
// The zero FaultModel and the zero CheckpointPolicy mean "disabled": every
// consumer is gated so the default SEU-only path stays byte-identical to the
// pre-subsystem engine.
package faultmodel

import (
	"fmt"
	"math"
	"sync/atomic"
)

// FaultModel describes the fault processes seen by tasks on one PE type.
// The zero value is the legacy SEU-only model (no scaling, no intermittent
// or permanent process).
type FaultModel struct {
	// TransientScale multiplies the PE type's architectural SEU rate
	// (mission-environment scaling: altitude, solar activity, shielding).
	// 0 means 1 (unscaled) so the zero value stays a strict no-op.
	TransientScale float64
	// IntermittentPerSec is the onset rate of intermittent fault episodes
	// (marginal hardware, voltage droop) in 1/s of execution; 0 disables.
	IntermittentPerSec float64
	// IntermittentBurst is the mean number of correlated upsets per episode;
	// 0 means 1. Episodes add IntermittentPerSec·max(Burst,1) to the
	// effective transient rate — each burst upset walks the same
	// cross-layer masking stack as an SEU.
	IntermittentBurst float64
	// PermanentPerHour is the arrival rate of permanent degradation faults
	// (stuck-at, wear-out precursors, unrecoverable configuration-memory
	// corruption) in 1/h of execution; 0 disables the permanent process and
	// with it the extra chain states.
	PermanentPerHour float64
	// RepairProb is the probability a permanent hit is repairable in the
	// field (reconfiguration, spare swap-in, scrubbing). In [0,1].
	RepairProb float64
	// RepairTimeUS is the mean repair/reconfiguration time paid per
	// successful repair, in µs (timing-chain residence of the repair state).
	RepairTimeUS float64
}

// Enabled reports whether the model departs from the legacy SEU-only path.
func (f FaultModel) Enabled() bool {
	return f.TransientScale != 0 || f.IntermittentPerSec != 0 ||
		f.PermanentPerHour != 0
}

// LambdaScale returns the transient-rate multiplier (0 decodes to 1).
func (f FaultModel) LambdaScale() float64 {
	if f.TransientScale == 0 {
		return 1
	}
	return f.TransientScale
}

// IntermittentPerUS returns the effective additive transient rate of the
// intermittent process in 1/µs: onset rate × mean burst length.
func (f FaultModel) IntermittentPerUS() float64 {
	if f.IntermittentPerSec == 0 {
		return 0
	}
	burst := f.IntermittentBurst
	if burst < 1 {
		burst = 1
	}
	return f.IntermittentPerSec * burst / 1e6
}

// PermanentPerUS returns the permanent-fault rate in 1/µs.
func (f FaultModel) PermanentPerUS() float64 {
	return f.PermanentPerHour / 3.6e9
}

// Validate checks ranges; every rate must be finite and non-negative, every
// probability in [0,1].
func (f FaultModel) Validate() error {
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"transient_scale", f.TransientScale},
		{"intermittent_per_sec", f.IntermittentPerSec},
		{"intermittent_burst", f.IntermittentBurst},
		{"permanent_per_hour", f.PermanentPerHour},
		{"repair_time_us", f.RepairTimeUS},
	} {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) || k.v < 0 {
			return fmt.Errorf("faultmodel: %s = %v must be finite and non-negative", k.name, k.v)
		}
	}
	if math.IsNaN(f.RepairProb) || f.RepairProb < 0 || f.RepairProb > 1 {
		return fmt.Errorf("faultmodel: repair_prob = %v outside [0,1]", f.RepairProb)
	}
	if (f.RepairProb != 0 || f.RepairTimeUS != 0) && f.PermanentPerHour == 0 {
		return fmt.Errorf("faultmodel: repair knobs require permanent_per_hour > 0")
	}
	return nil
}

// Model resolves a FaultModel per PE type: PerType overrides (keyed by the
// platform's PEType.Name) fall back to Default. A nil *Model means the
// subsystem is off entirely.
type Model struct {
	Default FaultModel
	// PerType maps PE type names to type-specific overrides (an override
	// replaces the whole Default for that type, it does not merge).
	PerType map[string]FaultModel
}

// For returns the fault model governing the named PE type.
func (m *Model) For(typeName string) FaultModel {
	if m == nil {
		return FaultModel{}
	}
	if fm, ok := m.PerType[typeName]; ok {
		return fm
	}
	return m.Default
}

// Enabled reports whether any resolved model departs from SEU-only.
func (m *Model) Enabled() bool {
	if m == nil {
		return false
	}
	if m.Default.Enabled() {
		return true
	}
	for _, fm := range m.PerType {
		if fm.Enabled() {
			return true
		}
	}
	return false
}

// Validate checks the default and every per-type override.
func (m *Model) Validate() error {
	if m == nil {
		return nil
	}
	if err := m.Default.Validate(); err != nil {
		return err
	}
	for name, fm := range m.PerType {
		if name == "" {
			return fmt.Errorf("faultmodel: per-type override with empty PE type name")
		}
		if err := fm.Validate(); err != nil {
			return fmt.Errorf("faultmodel: type %q: %w", name, err)
		}
	}
	return nil
}

// CheckpointMode selects the checkpointing flavor of a task-level policy.
type CheckpointMode uint8

const (
	// CkptNone is the zero value: the policy axis is off for this task.
	CkptNone CheckpointMode = iota
	// CkptLocal snapshots task state to the PE's local memory: cheap to
	// create, moderate recovery coverage.
	CkptLocal
	// CkptTMR creates majority-voted triplicated checkpoints: expensive to
	// create (three copies + vote) but near-certain detection and recovery.
	CkptTMR
)

// String returns the wire name of the mode.
func (m CheckpointMode) String() string {
	switch m {
	case CkptNone:
		return "none"
	case CkptLocal:
		return "local"
	case CkptTMR:
		return "tmr"
	default:
		return fmt.Sprintf("CheckpointMode(%d)", int(m))
	}
}

// First-order overhead and coverage parameters of the two active checkpoint
// modes. Creation cost is per checkpoint as a fraction of the task's useful
// execution time; the detection/tolerance boosts combine multiplicatively
// with the SSW method's own coverages (1−(1−a)(1−b)).
const (
	localCkptTimeFrac = 0.04
	localCkptDet      = 0.90
	localCkptTol      = 0.95

	tmrCkptTimeFrac    = 0.09
	tmrCkptDet         = 0.99
	tmrCkptTol         = 0.99
	tmrCkptPowerFactor = 1.25
)

// CheckpointPolicy is one point on the task-level checkpointing axis: a mode
// and the number of checkpoints the policy inserts (on top of whatever the
// SSW-layer method already does). The zero value disables the axis.
type CheckpointPolicy struct {
	Mode CheckpointMode
	// Interval is the number of checkpoints inserted by the policy; the
	// task body gains Interval additional inter-checkpoint intervals.
	Interval int
}

// Enabled reports whether the policy changes the evaluation.
func (p CheckpointPolicy) Enabled() bool { return p.Mode != CkptNone && p.Interval > 0 }

// Extra returns the number of checkpoints the policy adds.
func (p CheckpointPolicy) Extra() int {
	if !p.Enabled() {
		return 0
	}
	return p.Interval
}

// TimeFrac returns the creation cost of one policy checkpoint as a fraction
// of the task's useful execution time.
func (p CheckpointPolicy) TimeFrac() float64 {
	switch {
	case !p.Enabled():
		return 0
	case p.Mode == CkptTMR:
		return tmrCkptTimeFrac
	default:
		return localCkptTimeFrac
	}
}

// DetBoost and TolBoost return the additional detection / recovery coverage
// contributed by the policy's checkpoint mechanism.
func (p CheckpointPolicy) DetBoost() float64 {
	switch {
	case !p.Enabled():
		return 0
	case p.Mode == CkptTMR:
		return tmrCkptDet
	default:
		return localCkptDet
	}
}

// TolBoost returns the recovery-coverage boost of the policy.
func (p CheckpointPolicy) TolBoost() float64 {
	switch {
	case !p.Enabled():
		return 0
	case p.Mode == CkptTMR:
		return tmrCkptTol
	default:
		return localCkptTol
	}
}

// PowerFactor returns the power multiplier of the policy (voted triplicated
// checkpoint state costs energy; local checkpoints are free to first order).
func (p CheckpointPolicy) PowerFactor() float64 {
	if p.Enabled() && p.Mode == CkptTMR {
		return tmrCkptPowerFactor
	}
	return 1
}

// Validate checks the policy.
func (p CheckpointPolicy) Validate() error {
	switch p.Mode {
	case CkptNone, CkptLocal, CkptTMR:
	default:
		return fmt.Errorf("faultmodel: unknown checkpoint mode %d", int(p.Mode))
	}
	if p.Interval < 0 {
		return fmt.Errorf("faultmodel: checkpoint interval %d must be non-negative", p.Interval)
	}
	if p.Mode == CkptNone && p.Interval != 0 {
		return fmt.Errorf("faultmodel: checkpoint interval %d requires a mode", p.Interval)
	}
	if p.Mode != CkptNone && p.Interval == 0 {
		return fmt.Errorf("faultmodel: checkpoint mode %s requires interval ≥ 1", p.Mode)
	}
	if p.Interval > 16 {
		return fmt.Errorf("faultmodel: checkpoint interval %d exceeds the 16-checkpoint cap", p.Interval)
	}
	return nil
}

// Combine returns 1−(1−a)(1−b): the coverage of two independent mechanisms
// acting in series. Exact identity when either side is 0.
func Combine(a, b float64) float64 {
	if b == 0 {
		return a
	}
	if a == 0 {
		return b
	}
	return 1 - (1-a)*(1-b)
}

// Process-wide counters behind the /metrics fault_model block: how many
// task-metric evaluations ran with the subsystem active, how many absorbing
// chains carried permanent/repair states, and how many evaluations applied a
// checkpoint policy.
var totals struct {
	evals, permChains, ckptPolicies atomic.Uint64
}

// CountEval records one fault-model-aware task evaluation.
func CountEval() { totals.evals.Add(1) }

// CountPermChain records one chain pair built with permanent-fault states.
func CountPermChain() { totals.permChains.Add(1) }

// CountCheckpointPolicy records one evaluation under an active policy.
func CountCheckpointPolicy() { totals.ckptPolicies.Add(1) }

// Stats is the snapshot form of the package counters.
type Stats struct {
	// Evals counts task-metric evaluations with an enabled fault model or
	// checkpoint policy; PermChains counts chain pairs that carried
	// permanent/repair states; CheckpointPolicies counts evaluations under
	// an active checkpoint policy.
	Evals, PermChains, CheckpointPolicies uint64
}

// Totals returns the accumulated process-wide counters.
func Totals() Stats {
	return Stats{
		Evals:              totals.evals.Load(),
		PermChains:         totals.permChains.Load(),
		CheckpointPolicies: totals.ckptPolicies.Load(),
	}
}
