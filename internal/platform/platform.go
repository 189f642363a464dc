// Package platform models the hardware architecture of Section III.A of the
// paper: a heterogeneous MPSoC (HMPSoC) with P processing elements (PEs) of
// several types, a distributed shared memory and centralized control of task
// remapping. Each PE type carries
//
//   - an aging-related fault profile: the Weibull shape parameter β and a
//     reference scale parameter η at a reference temperature,
//   - a soft-error masking factor (the complement of the architectural
//     vulnerability factor, AVF),
//   - a set of DVFS modes (voltage/frequency pairs) with first-order models
//     for how a mode scales execution time, power, soft-error rate and aging.
//
// The quantitative mode models follow the treatment the paper adopts from
// Das et al. (DATE 2014): execution time scales inversely with frequency,
// dynamic power with V²·f, the single-event-upset (SEU) rate grows
// exponentially as the supply voltage drops, and the aging scale parameter η
// shrinks with steady-state temperature via an Arrhenius factor.
package platform

import (
	"fmt"
	"math"
)

// PEClass distinguishes the broad kinds of processing elements in the
// architecture template (Fig. 2(a)).
type PEClass int

const (
	// GeneralPurpose is an embedded processor core.
	GeneralPurpose PEClass = iota
	// Reconfigurable is a partially reconfigurable fabric region hosting a
	// hardware accelerator implementation of a task.
	Reconfigurable
)

// String returns a readable class name.
func (c PEClass) String() string {
	switch c {
	case GeneralPurpose:
		return "general-purpose"
	case Reconfigurable:
		return "reconfigurable"
	default:
		return fmt.Sprintf("PEClass(%d)", int(c))
	}
}

// DVFSMode is one voltage/frequency operating point of a PE type.
type DVFSMode struct {
	Name     string
	VoltageV float64 // supply voltage in volts
	FreqMHz  float64 // clock frequency in MHz
}

// PEType describes one kind of processing element.
type PEType struct {
	Name  string
	Class PEClass

	// MaskingFactor is the fraction of raw soft errors masked by the
	// micro-architecture (1 − AVF). In [0, 1).
	MaskingFactor float64

	// WeibullBeta is the shape parameter β of the Weibull lifetime
	// distribution of the PE (β > 1: wear-out dominated).
	WeibullBeta float64

	// EtaRefHours is the Weibull scale parameter η at ReferenceTempC,
	// in hours of accumulated stress.
	EtaRefHours float64

	// BaseSEURatePerSec is the raw SEU arrival rate λ₀ at the nominal
	// (highest) DVFS mode, before architectural masking, in 1/second.
	BaseSEURatePerSec float64

	// Modes is the list of DVFS modes, ordered from nominal (index 0,
	// highest V/f) to the most aggressive low-power mode.
	Modes []DVFSMode

	// ThermalResistance is the steady-state junction-to-ambient thermal
	// resistance in °C per watt, used by the first-order thermal model.
	ThermalResistance float64

	// LocalMemKB is the capacity of the PE's local memory in kilobytes;
	// the storage-constraint extension rejects mappings whose resident
	// footprint exceeds it. Zero means unconstrained (the paper's model).
	LocalMemKB float64

	// ThermalTimeConstS is the first-order thermal RC time constant in
	// seconds, used by the transient thermal trace; zero means
	// instantaneous (steady-state-only) behavior.
	ThermalTimeConstS float64

	// ConfigSEURatePerSec is the upset rate of the PE's configuration
	// memory in 1/second (FPGA platform family). A configuration upset
	// halts correct execution until the scrubber rewrites the frame, so
	// the reliability model treats it as a repairable permanent hit rather
	// than a datapath SEU. Zero (all non-FPGA types) disables the process
	// entirely.
	ConfigSEURatePerSec float64

	// ScrubPeriodUS is the period of the configuration-memory scrubber in
	// µs; a pending upset waits on average half a period for repair. Zero
	// with a non-zero ConfigSEURatePerSec means unscrubbed configuration
	// memory (upsets are unrepairable at the hardware layer).
	ScrubPeriodUS float64
}

// Constants of the first-order physical models.
const (
	// AmbientTempC is the ambient temperature assumed by the thermal model.
	AmbientTempC = 45.0
	// ReferenceTempC is the temperature at which EtaRefHours is specified.
	ReferenceTempC = 60.0
	// ActivationEnergyEV is the activation energy of the dominant wear-out
	// mechanism (electromigration-class), in electron-volts.
	ActivationEnergyEV = 0.48
	// BoltzmannEVPerK is the Boltzmann constant in eV/K.
	BoltzmannEVPerK = 8.617e-5
	// SEUVoltageStep controls the exponential SEU-rate increase at
	// reduced supply voltage: each SEUVoltageStep drop in V multiplies the
	// rate by 10.
	SEUVoltageStep = 0.30
)

// Validate checks the physical sanity of the PE type parameters.
func (pt *PEType) Validate() error {
	if pt.Name == "" {
		return fmt.Errorf("platform: PE type has empty name")
	}
	if pt.MaskingFactor < 0 || pt.MaskingFactor >= 1 {
		return fmt.Errorf("platform: PE type %q masking factor %v outside [0,1)", pt.Name, pt.MaskingFactor)
	}
	if pt.WeibullBeta <= 0 {
		return fmt.Errorf("platform: PE type %q Weibull beta %v must be positive", pt.Name, pt.WeibullBeta)
	}
	if pt.EtaRefHours <= 0 {
		return fmt.Errorf("platform: PE type %q eta %v must be positive", pt.Name, pt.EtaRefHours)
	}
	if pt.BaseSEURatePerSec <= 0 {
		return fmt.Errorf("platform: PE type %q SEU rate %v must be positive", pt.Name, pt.BaseSEURatePerSec)
	}
	if len(pt.Modes) == 0 {
		return fmt.Errorf("platform: PE type %q has no DVFS modes", pt.Name)
	}
	for i, m := range pt.Modes {
		if m.VoltageV <= 0 || m.FreqMHz <= 0 {
			return fmt.Errorf("platform: PE type %q mode %d has non-positive V/f", pt.Name, i)
		}
		if i > 0 && m.FreqMHz > pt.Modes[i-1].FreqMHz {
			return fmt.Errorf("platform: PE type %q modes not ordered nominal-first", pt.Name)
		}
	}
	if pt.ThermalResistance <= 0 {
		return fmt.Errorf("platform: PE type %q thermal resistance %v must be positive", pt.Name, pt.ThermalResistance)
	}
	if pt.LocalMemKB < 0 {
		return fmt.Errorf("platform: PE type %q local memory %v must be non-negative", pt.Name, pt.LocalMemKB)
	}
	if pt.ThermalTimeConstS < 0 {
		return fmt.Errorf("platform: PE type %q thermal time constant %v must be non-negative", pt.Name, pt.ThermalTimeConstS)
	}
	if math.IsNaN(pt.ConfigSEURatePerSec) || math.IsInf(pt.ConfigSEURatePerSec, 0) || pt.ConfigSEURatePerSec < 0 {
		return fmt.Errorf("platform: PE type %q config SEU rate %v must be finite and non-negative", pt.Name, pt.ConfigSEURatePerSec)
	}
	if math.IsNaN(pt.ScrubPeriodUS) || math.IsInf(pt.ScrubPeriodUS, 0) || pt.ScrubPeriodUS < 0 {
		return fmt.Errorf("platform: PE type %q scrub period %v must be finite and non-negative", pt.Name, pt.ScrubPeriodUS)
	}
	if pt.ScrubPeriodUS > 0 && pt.ConfigSEURatePerSec == 0 {
		return fmt.Errorf("platform: PE type %q has a scrub period but no config SEU rate", pt.Name)
	}
	return nil
}

// PowerScale returns the dynamic-power multiplier of mode m relative to the
// nominal mode, using the V²·f model (≤ 1 for slower modes).
func (pt *PEType) PowerScale(m int) float64 {
	pt.checkMode(m)
	nom, mode := pt.Modes[0], pt.Modes[m]
	return (mode.VoltageV * mode.VoltageV * mode.FreqMHz) /
		(nom.VoltageV * nom.VoltageV * nom.FreqMHz)
}

// SEURate returns the effective SEU rate (per second) seen by software on
// this PE type in mode m, after architectural masking. Lower supply voltage
// raises the raw rate exponentially (one decade per SEUVoltageStep volts).
func (pt *PEType) SEURate(m int) float64 {
	pt.checkMode(m)
	dv := pt.Modes[0].VoltageV - pt.Modes[m].VoltageV
	raw := pt.BaseSEURatePerSec * math.Pow(10, dv/SEUVoltageStep)
	return raw * (1 - pt.MaskingFactor)
}

// SteadyTempC returns the first-order steady-state temperature of the PE
// when dissipating the given power.
func (pt *PEType) SteadyTempC(powerW float64) float64 {
	return AmbientTempC + pt.ThermalResistance*powerW
}

// EtaHours returns the Weibull scale parameter η for operation at the given
// steady-state temperature, via the Arrhenius acceleration model: higher
// temperature shortens η.
func (pt *PEType) EtaHours(tempC float64) float64 {
	tK := tempC + 273.15
	refK := ReferenceTempC + 273.15
	accel := math.Exp(ActivationEnergyEV / BoltzmannEVPerK * (1/tK - 1/refK))
	return pt.EtaRefHours * accel
}

func (pt *PEType) checkMode(m int) {
	if m < 0 || m >= len(pt.Modes) {
		panic(fmt.Sprintf("platform: PE type %q has no mode %d", pt.Name, m))
	}
}

// PE is one processing element instance: an (ID, type) tuple per §III.A.
type PE struct {
	ID   int
	Type *PEType
}

// Platform is the HMPSoC: an indexed set of PEs.
type Platform struct {
	PEs   []PE
	types []*PEType
}

// New assembles a platform from PE types and a per-PE type assignment.
// counts[i] is the number of PE instances of types[i].
func New(types []*PEType, counts []int) (*Platform, error) {
	if len(types) != len(counts) {
		return nil, fmt.Errorf("platform: %d types but %d counts", len(types), len(counts))
	}
	p := &Platform{}
	id := 0
	for i, t := range types {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if counts[i] <= 0 {
			return nil, fmt.Errorf("platform: count %d for type %q must be positive", counts[i], t.Name)
		}
		p.types = append(p.types, t)
		for k := 0; k < counts[i]; k++ {
			p.PEs = append(p.PEs, PE{ID: id, Type: t})
			id++
		}
	}
	if len(p.PEs) == 0 {
		return nil, fmt.Errorf("platform: no PEs")
	}
	return p, nil
}

// NumPEs returns the number of processing elements.
func (p *Platform) NumPEs() int { return len(p.PEs) }

// Types returns the distinct PE types in declaration order.
func (p *Platform) Types() []*PEType { return p.types }

// PEsOfType returns the IDs of all PEs with the given type.
func (p *Platform) PEsOfType(t *PEType) []int {
	var out []int
	for _, pe := range p.PEs {
		if pe.Type == t {
			out = append(out, pe.ID)
		}
	}
	return out
}

// Default returns the evaluation platform of §VI.A: six PEs of three types —
// four embedded processors split across two masking factors, plus two
// partially reconfigurable regions.
func Default() *Platform {
	procModes := []DVFSMode{
		{Name: "1.2V,900MHz", VoltageV: 1.20, FreqMHz: 900},
		{Name: "1.1V,600MHz", VoltageV: 1.10, FreqMHz: 600},
		{Name: "1.06V,300MHz", VoltageV: 1.06, FreqMHz: 300},
	}
	lowMask := &PEType{
		Name:              "proc-lowmask",
		Class:             GeneralPurpose,
		MaskingFactor:     0.20,
		WeibullBeta:       2.0,
		EtaRefHours:       8.0e4,
		BaseSEURatePerSec: 60.0,
		Modes:             procModes,
		ThermalResistance: 18,
		LocalMemKB:        512,
		ThermalTimeConstS: 0.05,
	}
	highMask := &PEType{
		Name:              "proc-highmask",
		Class:             GeneralPurpose,
		MaskingFactor:     0.45,
		WeibullBeta:       2.2,
		EtaRefHours:       7.0e4,
		BaseSEURatePerSec: 60.0,
		Modes:             procModes,
		ThermalResistance: 18,
		LocalMemKB:        512,
		ThermalTimeConstS: 0.05,
	}
	reconf := &PEType{
		Name:          "reconf-region",
		Class:         Reconfigurable,
		MaskingFactor: 0.10,
		WeibullBeta:   1.8,
		EtaRefHours:   6.0e4,
		// SRAM configuration memory makes the fabric more upset-prone.
		BaseSEURatePerSec: 100.0,
		Modes: []DVFSMode{
			{Name: "1.0V,250MHz", VoltageV: 1.00, FreqMHz: 250},
			{Name: "0.95V,150MHz", VoltageV: 0.95, FreqMHz: 150},
		},
		ThermalResistance: 14,
		LocalMemKB:        256,
		ThermalTimeConstS: 0.03,
	}
	p, err := New(
		[]*PEType{lowMask, highMask, reconf},
		[]int{2, 2, 2},
	)
	if err != nil {
		panic("platform: default platform invalid: " + err.Error())
	}
	return p
}
