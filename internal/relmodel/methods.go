// Package relmodel implements the cross-layer reliability (CLR) model of
// Sections III.C and IV of the paper: reliability methods at three
// abstraction layers, CLR configurations as combinations of methods across
// the layers, Markov-chain models of a task executing under an arbitrary
// CLR configuration, and the task-level performance metrics of TABLE II
// (minimum/average execution time, error probability, MTTF, power).
//
// The three layers and their redundancy types follow TABLE II:
//
//	Hardware (HWRel)             spatial      partial TMR, circuit hardening
//	System software (SSWRel)     temporal     retry, checkpointing
//	Application software (ASWRel) information checksum, Hamming, code tripling
//
// DVFS, which the paper lists at the hardware layer, is modeled as the DVFS
// mode field of an Assignment so the single-layer "DVFS only" baseline of
// the evaluation can vary it independently.
package relmodel

import "fmt"

// HWMethod is a spatial-redundancy (hardware layer) reliability method.
// Its fault-masking acts before any software-layer handling (state HWRel in
// Fig. 3), at the cost of execution-time and power overheads.
type HWMethod struct {
	Name string
	// Masking is m_HW: the probability that a raw error is masked by the
	// spatial redundancy. In [0, 1].
	Masking float64
	// TimeFactor ≥ 1 inflates execution time (e.g. voting latency).
	TimeFactor float64
	// PowerFactor ≥ 1 inflates power (e.g. replicated logic).
	PowerFactor float64
	// Repair is the probability the spatial redundancy repairs a permanent
	// hit in the field (TMR-with-repair, scrubbed configuration frames):
	// it combines multiplicatively with the fault model's own repair
	// probability. In [0,1]; 0 (every legacy method) means the method
	// offers no permanent-fault repair.
	Repair float64
}

// SSWMethod is a temporal-redundancy (system software layer) method. It
// detects errors that escaped the hardware layer and the implicit masking of
// the software stack, and recovers by re-execution — from the last
// checkpoint when Checkpoints > 0, from the start otherwise (retry).
type SSWMethod struct {
	Name string
	// DetectionCoverage is cov_Det: the probability an error reaching the
	// SSW layer is detected.
	DetectionCoverage float64
	// DetectionTimeFrac is T_Det as a fraction of the inter-checkpoint
	// useful execution time; detection runs on every interval regardless of
	// whether an error occurred (it is part of state ExecICI's residence).
	DetectionTimeFrac float64
	// ToleranceCoverage is m_Tol: the probability that recovery of a
	// detected error succeeds.
	ToleranceCoverage float64
	// ToleranceTimeFrac is T_Tol (rollback/restart overhead) as a fraction
	// of the inter-checkpoint execution time; it is only paid when an error
	// is detected (state SSWTol).
	ToleranceTimeFrac float64
	// Checkpoints is the number of checkpoints inserted into the task;
	// the task body splits into Checkpoints+1 inter-checkpoint intervals.
	Checkpoints int
	// CheckpointTimeFrac is T_Chk, the cost of creating one checkpoint, as
	// a fraction of the task's total useful execution time.
	CheckpointTimeFrac float64
	// CheckpointMemFrac is the local-memory cost of holding one checkpoint,
	// as a fraction of the implementation's base footprint (storage
	// constraint extension).
	CheckpointMemFrac float64
}

// ASWMethod is an information-redundancy (application software layer)
// method. It masks errors that escaped detection at the SSW layer (state
// ASWRel in Fig. 3), at the cost of inflated execution time.
type ASWMethod struct {
	Name string
	// Masking is m_ASW: the probability an error reaching the ASW layer is
	// masked/corrected by the information redundancy.
	Masking float64
	// TimeFactor ≥ 1 inflates execution time (encoded operations).
	TimeFactor float64
	// MemFactor ≥ 1 inflates the implementation's memory footprint
	// (replicated code/data); zero is treated as 1.
	MemFactor float64
}

// Catalog holds the selectable methods of each layer. Index 0 of each layer
// is by convention the "none" method (no redundancy, no overhead).
type Catalog struct {
	HW  []HWMethod
	SSW []SSWMethod
	ASW []ASWMethod
}

// Validate checks every method's parameters.
func (c *Catalog) Validate() error {
	if len(c.HW) == 0 || len(c.SSW) == 0 || len(c.ASW) == 0 {
		return fmt.Errorf("relmodel: catalog must have at least one method per layer")
	}
	for _, m := range c.HW {
		if m.Masking < 0 || m.Masking > 1 {
			return fmt.Errorf("relmodel: HW method %q masking %v outside [0,1]", m.Name, m.Masking)
		}
		if m.TimeFactor < 1 || m.PowerFactor < 1 {
			return fmt.Errorf("relmodel: HW method %q factors must be ≥ 1", m.Name)
		}
		if m.Repair < 0 || m.Repair > 1 {
			return fmt.Errorf("relmodel: HW method %q repair %v outside [0,1]", m.Name, m.Repair)
		}
	}
	for _, m := range c.SSW {
		if m.DetectionCoverage < 0 || m.DetectionCoverage > 1 {
			return fmt.Errorf("relmodel: SSW method %q coverage %v outside [0,1]", m.Name, m.DetectionCoverage)
		}
		if m.ToleranceCoverage < 0 || m.ToleranceCoverage > 1 {
			return fmt.Errorf("relmodel: SSW method %q tolerance %v outside [0,1]", m.Name, m.ToleranceCoverage)
		}
		if m.DetectionTimeFrac < 0 || m.ToleranceTimeFrac < 0 || m.CheckpointTimeFrac < 0 {
			return fmt.Errorf("relmodel: SSW method %q has negative time fraction", m.Name)
		}
		if m.Checkpoints < 0 {
			return fmt.Errorf("relmodel: SSW method %q has negative checkpoint count", m.Name)
		}
		if m.Checkpoints > 0 && m.ToleranceCoverage == 0 {
			return fmt.Errorf("relmodel: SSW method %q has checkpoints but no tolerance", m.Name)
		}
		if m.CheckpointMemFrac < 0 {
			return fmt.Errorf("relmodel: SSW method %q has negative checkpoint memory fraction", m.Name)
		}
	}
	for _, m := range c.ASW {
		if m.Masking < 0 || m.Masking > 1 {
			return fmt.Errorf("relmodel: ASW method %q masking %v outside [0,1]", m.Name, m.Masking)
		}
		if m.TimeFactor < 1 {
			return fmt.Errorf("relmodel: ASW method %q time factor must be ≥ 1", m.Name)
		}
		if m.MemFactor != 0 && m.MemFactor < 1 {
			return fmt.Errorf("relmodel: ASW method %q memory factor must be ≥ 1 (or 0 for default)", m.Name)
		}
	}
	return nil
}

// DefaultCatalog returns the method set used throughout the evaluation:
// the named methods of TABLE II with representative parameters, each layer
// led by a "none" entry.
func DefaultCatalog() *Catalog {
	return &Catalog{
		HW: []HWMethod{
			{Name: "none", Masking: 0, TimeFactor: 1, PowerFactor: 1},
			{Name: "hardened", Masking: 0.40, TimeFactor: 1.04, PowerFactor: 1.20},
			{Name: "partial-TMR", Masking: 0.75, TimeFactor: 1.10, PowerFactor: 1.95},
			{Name: "TMR", Masking: 0.95, TimeFactor: 1.16, PowerFactor: 2.90},
		},
		SSW: []SSWMethod{
			{Name: "none"},
			{
				Name:              "retry",
				DetectionCoverage: 0.88,
				DetectionTimeFrac: 0.06,
				ToleranceCoverage: 0.97,
				ToleranceTimeFrac: 0.04,
			},
			{
				Name:               "chkpt-2",
				DetectionCoverage:  0.92,
				DetectionTimeFrac:  0.08,
				ToleranceCoverage:  0.98,
				ToleranceTimeFrac:  0.06,
				Checkpoints:        2,
				CheckpointTimeFrac: 0.05,
				CheckpointMemFrac:  0.25,
			},
			{
				Name:               "chkpt-4",
				DetectionCoverage:  0.92,
				DetectionTimeFrac:  0.08,
				ToleranceCoverage:  0.98,
				ToleranceTimeFrac:  0.06,
				Checkpoints:        4,
				CheckpointTimeFrac: 0.05,
				CheckpointMemFrac:  0.25,
			},
		},
		ASW: []ASWMethod{
			{Name: "none", Masking: 0, TimeFactor: 1},
			{Name: "checksum", Masking: 0.55, TimeFactor: 1.22, MemFactor: 1.10},
			{Name: "hamming", Masking: 0.72, TimeFactor: 1.48, MemFactor: 1.45},
			{Name: "code-tripling", Masking: 0.88, TimeFactor: 2.60, MemFactor: 2.90},
		},
	}
}

// Assignment selects one method per layer plus a DVFS mode: it is the C_t
// of §V.A (the cross-layer configuration of one task) together with the
// DVFS degree of freedom.
type Assignment struct {
	Mode int // DVFS mode index of the hosting PE type
	HW   int // index into Catalog.HW
	SSW  int // index into Catalog.SSW
	ASW  int // index into Catalog.ASW
}

// CheckAgainst validates the assignment's indices against the catalog and
// the number of DVFS modes available.
func (a Assignment) CheckAgainst(c *Catalog, numModes int) error {
	if a.Mode < 0 || a.Mode >= numModes {
		return fmt.Errorf("relmodel: DVFS mode %d outside [0,%d)", a.Mode, numModes)
	}
	if a.HW < 0 || a.HW >= len(c.HW) {
		return fmt.Errorf("relmodel: HW method index %d outside [0,%d)", a.HW, len(c.HW))
	}
	if a.SSW < 0 || a.SSW >= len(c.SSW) {
		return fmt.Errorf("relmodel: SSW method index %d outside [0,%d)", a.SSW, len(c.SSW))
	}
	if a.ASW < 0 || a.ASW >= len(c.ASW) {
		return fmt.Errorf("relmodel: ASW method index %d outside [0,%d)", a.ASW, len(c.ASW))
	}
	return nil
}

// NumConfigs returns |C_t| for the catalog with the given number of DVFS
// modes: the size of the cross-layer configuration space of one task
// (the FM_CL factor of §V.B).
func (c *Catalog) NumConfigs(numModes int) int {
	return numModes * len(c.HW) * len(c.SSW) * len(c.ASW)
}
