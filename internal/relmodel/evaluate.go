package relmodel

import (
	"fmt"
	"math"

	"repro/internal/faultmodel"
	"repro/internal/platform"
)

// Impl is one base implementation of a task type (§III.B): a binding to a
// PE type together with its characterization (cycle count and power from
// the Gem5/McPAT-style substrate) and the implicit masking of its system
// software stack (bare-metal ≈ 0, OS-based > 0).
type Impl struct {
	Name string
	// PETypeIndex is the index of the compatible PE type within the
	// platform's Types() list.
	PETypeIndex int
	// Cycles is the task's cycle count on that PE type (nominal mode);
	// execution time at f MHz is Cycles/f microseconds.
	Cycles float64
	// PowerW is the average power at the nominal mode, before any
	// hardware-layer redundancy overhead.
	PowerW float64
	// ImplicitMasking is m_implSSW: the probability an error is masked by
	// the system software stack of this implementation (state SSWImpl).
	ImplicitMasking float64
	// FootprintKB is the resident local-memory footprint of the
	// implementation in kilobytes, before any CLR-induced inflation
	// (storage constraint extension; zero = negligible).
	FootprintKB float64
}

// Validate checks the implementation's parameters.
func (im *Impl) Validate() error {
	if im.Cycles <= 0 {
		return fmt.Errorf("relmodel: impl %q cycles %v must be positive", im.Name, im.Cycles)
	}
	if im.PowerW <= 0 {
		return fmt.Errorf("relmodel: impl %q power %v must be positive", im.Name, im.PowerW)
	}
	if im.ImplicitMasking < 0 || im.ImplicitMasking >= 1 {
		return fmt.Errorf("relmodel: impl %q implicit masking %v outside [0,1)", im.Name, im.ImplicitMasking)
	}
	if im.PETypeIndex < 0 {
		return fmt.Errorf("relmodel: impl %q has negative PE type index", im.Name)
	}
	if im.FootprintKB < 0 {
		return fmt.Errorf("relmodel: impl %q has negative footprint", im.Name)
	}
	return nil
}

// EffectiveFootprintKB returns the local-memory footprint of the
// implementation under the given CLR assignment: the base footprint
// inflated by the information redundancy's memory factor, plus checkpoint
// storage.
func EffectiveFootprintKB(impl Impl, asg Assignment, cat *Catalog) float64 {
	asw := cat.ASW[asg.ASW]
	ssw := cat.SSW[asg.SSW]
	mf := asw.MemFactor
	if mf == 0 {
		mf = 1
	}
	fp := impl.FootprintKB * mf
	fp += float64(ssw.Checkpoints) * ssw.CheckpointMemFrac * impl.FootprintKB
	return fp
}

// Metrics are the task-level performance metrics of TABLE II for one
// (implementation, CLR configuration, PE type) combination.
type Metrics struct {
	// EtaHours is the Weibull scale parameter η(t,i) — the aging-stress
	// indicator, a function of the thermal profile of the configuration.
	EtaHours float64
	// MinExTimeUS is the minimum (error-free) execution time.
	MinExTimeUS float64
	// AvgExTimeUS is the average execution time from the timing chain.
	AvgExTimeUS float64
	// ErrProb is the probability the task fails to deliver a correct
	// result: an error surviving the CLR stack plus — when the combined
	// fault model is active — an unrepaired permanent loss. With the
	// subsystem off it is exactly the functional-chain error probability
	// of the base paper.
	ErrProb float64
	// PermFailProb is the permanent-loss component of ErrProb (absorption
	// in PermFail); 0 whenever the permanent process is off.
	PermFailProb float64
	// MTTFHours is η·Γ(1+1/β) on the hosting PE type at this thermal
	// profile.
	MTTFHours float64
	// PowerW is the average power dissipation.
	PowerW float64
	// EnergyUJ is AvgExTimeUS × PowerW (microjoules).
	EnergyUJ float64
	// TempC is the steady-state temperature of the thermal model.
	TempC float64
}

// Evaluate computes the task-level metrics of TABLE II for implementation
// impl running on PE type pt under assignment asg (DVFS mode + one method
// per layer from cat). The functional and timing figures come from the
// Markov chains of Fig. 3; power, temperature, η and MTTF from the
// first-order physical models in the platform package. It is EvaluateFM
// with the fault-model subsystem off — the legacy SEU-only path.
func Evaluate(impl Impl, asg Assignment, pt *platform.PEType, cat *Catalog) (Metrics, error) {
	return EvaluateFM(impl, asg, pt, cat, faultmodel.FaultModel{}, faultmodel.CheckpointPolicy{})
}

// ChainParamsFor derives the Fig. 3 chain parameters of implementation impl
// on PE type pt under assignment asg, fault model fm and checkpoint policy
// ckpt — the chain half of EvaluateFM, which analyzes them with
// AnalyzeChains.
func ChainParamsFor(impl Impl, asg Assignment, pt *platform.PEType, cat *Catalog,
	fm faultmodel.FaultModel, ckpt faultmodel.CheckpointPolicy) (ChainParams, error) {
	if err := checkInputs(&impl, asg, pt, cat, fm, ckpt); err != nil {
		return ChainParams{}, err
	}
	ft := newFaultTerms(pt, fm)
	return chainParams(&impl, asg, pt, cat, &ft, ckpt), nil
}

// checkInputs validates the inputs of one task evaluation.
func checkInputs(impl *Impl, asg Assignment, pt *platform.PEType, cat *Catalog,
	fm faultmodel.FaultModel, ckpt faultmodel.CheckpointPolicy) error {
	if err := impl.Validate(); err != nil {
		return err
	}
	if err := asg.CheckAgainst(cat, len(pt.Modes)); err != nil {
		return err
	}
	if err := fm.Validate(); err != nil {
		return fmt.Errorf("relmodel: evaluating %q: %w", impl.Name, err)
	}
	if err := ckpt.Validate(); err != nil {
		return fmt.Errorf("relmodel: evaluating %q: %w", impl.Name, err)
	}
	return nil
}

// The helpers below are the formulas of a task evaluation, split by the
// enumeration axis they depend on so that Space.Estimate computes each
// once per axis value. EvaluateFM, EstimateFM and ChainParamsFor call the
// same helpers with the same left-to-right arithmetic, so the metrics
// agree bit for bit. None of them validates its inputs.

// faultTerms are the fault rates of one PE type under one fault model:
// the transient scaling, and the permanent process with its repair before
// the hardware method's own.
type faultTerms struct {
	fmOn                                bool
	lambdaScale, intermittentPerUS      float64
	permPerUS, repairProb, repairTimeUS float64
}

func newFaultTerms(pt *platform.PEType, fm faultmodel.FaultModel) faultTerms {
	ft := faultTerms{fmOn: fm.Enabled()}
	if ft.fmOn {
		ft.lambdaScale = fm.LambdaScale()
		ft.intermittentPerUS = fm.IntermittentPerUS()
		ft.permPerUS = fm.PermanentPerUS()
		ft.repairProb = fm.RepairProb
		ft.repairTimeUS = fm.RepairTimeUS
	}
	if pt.ConfigSEURatePerSec > 0 {
		// Configuration-memory upsets halt correct execution until the
		// scrubber rewrites the frame: a repairable permanent hit whose
		// repair waits on average half the scrub period. Unscrubbed
		// configuration memory is unrepairable at this layer.
		ft.permPerUS += pt.ConfigSEURatePerSec / 1e6
		if pt.ScrubPeriodUS > 0 {
			ft.repairProb = faultmodel.Combine(ft.repairProb, scrubRepairProb)
			ft.repairTimeUS += pt.ScrubPeriodUS / 2
		}
	}
	return ft
}

// lambda returns the effective transient rate in 1/µs in DVFS mode m.
func (ft *faultTerms) lambda(pt *platform.PEType, m int) float64 {
	lambda := pt.SEURate(m) / 1e6
	if ft.fmOn {
		lambda = lambda*ft.lambdaScale + ft.intermittentPerUS
	}
	return lambda
}

// repair returns the repair probability of a permanent hit under hardware
// method hw.
func (ft *faultTerms) repair(hw *HWMethod) float64 {
	if ft.permPerUS > 0 && hw.Repair > 0 {
		return faultmodel.Combine(ft.repairProb, hw.Repair)
	}
	return ft.repairProb
}

// hwExecUS is the execution time of impl at freqMHz under hardware method
// hw, before the application-layer inflation.
func hwExecUS(impl *Impl, freqMHz float64, hw *HWMethod) float64 {
	return impl.Cycles / freqMHz * hw.TimeFactor
}

// chainParams derives the chain parameters of one candidate.
func chainParams(impl *Impl, asg Assignment, pt *platform.PEType, cat *Catalog,
	ft *faultTerms, ckpt faultmodel.CheckpointPolicy) ChainParams {
	hw := &cat.HW[asg.HW]
	return ft.params(impl, hwExecUS(impl, pt.Modes[asg.Mode].FreqMHz, hw), ft.lambda(pt, asg.Mode),
		ft.repair(hw), hw, &cat.SSW[asg.SSW], &cat.ASW[asg.ASW], ckpt)
}

// params finishes the chain parameters from the per-axis terms: the
// execution time before the ASW inflation, the transient rate and the
// permanent repair probability.
func (ft *faultTerms) params(impl *Impl, hwExecUS, lambda, repairProb float64,
	hw *HWMethod, ssw *SSWMethod, asw *ASWMethod, ckpt faultmodel.CheckpointPolicy) ChainParams {
	execUS := hwExecUS * asw.TimeFactor
	checkpoints := ssw.Checkpoints
	chkTimeUS := ssw.CheckpointTimeFrac * execUS
	detCov := ssw.DetectionCoverage
	tolCov := ssw.ToleranceCoverage
	if ckpt.Enabled() {
		// Policy checkpoints stack on the SSW method's own; the chain's
		// single per-checkpoint cost becomes the count-weighted mean of the
		// two mechanisms' creation costs.
		total := checkpoints + ckpt.Extra()
		chkTimeUS = (ssw.CheckpointTimeFrac*float64(checkpoints) +
			ckpt.TimeFrac()*float64(ckpt.Extra())) / float64(total) * execUS
		checkpoints = total
		detCov = faultmodel.Combine(detCov, ckpt.DetBoost())
		tolCov = faultmodel.Combine(tolCov, ckpt.TolBoost())
	}

	n := float64(checkpoints + 1)
	return ChainParams{
		ExecTimeUS:            execUS,
		LambdaPerUS:           lambda,
		Checkpoints:           checkpoints,
		DetTimeUS:             ssw.DetectionTimeFrac * execUS / n,
		TolTimeUS:             ssw.ToleranceTimeFrac * execUS / n,
		ChkTimeUS:             chkTimeUS,
		MHW:                   hw.Masking,
		MImplSSW:              impl.ImplicitMasking,
		CovDet:                detCov,
		MTol:                  tolCov,
		MASW:                  asw.Masking,
		ModelCheckpointErrors: true,
		PermPerUS:             ft.permPerUS,
		RepairProb:            repairProb,
		RepairTimeUS:          ft.repairTimeUS,
	}
}

// weibullGamma is Γ(1+1/β) of the PE type: MTTF = η·Γ(1+1/β).
func weibullGamma(pt *platform.PEType) float64 {
	return math.Gamma(1 + 1/pt.WeibullBeta)
}

// hwPowerW is the power of impl in DVFS mode m under hardware method hw,
// before the checkpoint policy's factor.
func hwPowerW(impl *Impl, pt *platform.PEType, m int, hw *HWMethod) float64 {
	return impl.PowerW * pt.PowerScale(m) * hw.PowerFactor
}

// thermal holds the metrics fixed by a candidate's power: power,
// temperature, η and the aging MTTF.
type thermal struct {
	powerW, tempC, etaHours, mttfHours float64
}

func newThermal(pt *platform.PEType, hwPowerW, gamma float64, ckpt faultmodel.CheckpointPolicy) thermal {
	power := hwPowerW
	if ckpt.Enabled() {
		power *= ckpt.PowerFactor()
	}
	temp := pt.SteadyTempC(power)
	eta := pt.EtaHours(temp)
	return thermal{powerW: power, tempC: temp, etaHours: eta, mttfHours: eta * gamma}
}

// metrics combines the chain figures with the thermal ones.
func (th *thermal) metrics(rel *TaskReliability) Metrics {
	out := Metrics{
		EtaHours:     th.etaHours,
		MinExTimeUS:  rel.MinExTimeUS,
		AvgExTimeUS:  rel.AvgExTimeUS,
		ErrProb:      rel.ErrProb,
		PermFailProb: rel.PermFailProb,
		MTTFHours:    th.mttfHours,
		PowerW:       th.powerW,
		EnergyUJ:     rel.AvgExTimeUS * th.powerW,
		TempC:        th.tempC,
	}
	if rel.PermFailProb > 0 {
		// Joint lifetime: the aging process (Weibull MTTF) and the fatal
		// permanent-fault process compose as competing risks. The fatal
		// rate per hour comes from the per-execution loss probability at
		// continuous operation; both gates keep the formula a strict no-op
		// when the permanent process is off (1/(1/x) ≠ x in floating
		// point).
		fatalPerHour := rel.PermFailProb * (3.6e9 / rel.AvgExTimeUS)
		out.MTTFHours = 1 / (1/out.MTTFHours + fatalPerHour)
		// A permanently lost task delivers no result: count it alongside
		// the surviving-error probability.
		out.ErrProb = rel.ErrProb + rel.PermFailProb
	}
	return out
}

// EvaluateFM is Evaluate under a composable fault model and a task-level
// checkpoint policy (the fault-model subsystem, DESIGN.md §14):
//
//   - fm scales the transient SEU rate, adds the intermittent process to it,
//     and turns on the permanent process (PermHit/PermFail chain states).
//   - A PE type with configuration memory (FPGA family) contributes its
//     config-upset rate to the permanent process; the scrubber repairs those
//     hits with mean latency of half the scrub period.
//   - The hardware method's Repair (TMR-with-repair) and the fault model's
//     RepairProb combine as independent repair mechanisms.
//   - ckpt inserts additional checkpoints of the selected mode on top of the
//     SSW method's own, boosting detection/recovery coverage and paying the
//     mode's creation cost (and, for TMR-voted checkpoints, power).
//
// With both knobs zero on a configuration-memory-free PE type, the call is
// bit-identical to Evaluate.
func EvaluateFM(impl Impl, asg Assignment, pt *platform.PEType, cat *Catalog,
	fm faultmodel.FaultModel, ckpt faultmodel.CheckpointPolicy) (Metrics, error) {
	return evaluateFM(impl, asg, pt, cat, fm, ckpt, true)
}

// EstimateFM is EvaluateFM with the chain analysis replaced by its closed
// form (EstimateChains): MinExTimeUS, EtaHours, PowerW and TempC are
// bit-identical to EvaluateFM's, and the chain-derived AvgExTimeUS,
// ErrProb, PermFailProb, MTTFHours and EnergyUJ agree to rounding. It
// counts nothing in the fault-model counters, which count analyses.
// Space.Estimate computes the same metrics, bit for bit, for a whole
// design space at once.
func EstimateFM(impl Impl, asg Assignment, pt *platform.PEType, cat *Catalog,
	fm faultmodel.FaultModel, ckpt faultmodel.CheckpointPolicy) (Metrics, error) {
	return evaluateFM(impl, asg, pt, cat, fm, ckpt, false)
}

// evaluateFM is EvaluateFM (exact) or EstimateFM: both share everything
// but the chain half.
func evaluateFM(impl Impl, asg Assignment, pt *platform.PEType, cat *Catalog,
	fm faultmodel.FaultModel, ckpt faultmodel.CheckpointPolicy, exact bool) (Metrics, error) {
	if err := checkInputs(&impl, asg, pt, cat, fm, ckpt); err != nil {
		return Metrics{}, err
	}
	ft := newFaultTerms(pt, fm)
	params := chainParams(&impl, asg, pt, cat, &ft, ckpt)
	var rel TaskReliability
	var err error
	if exact {
		rel, err = AnalyzeChains(params)
	} else {
		rel, err = EstimateChains(params)
	}
	if err != nil {
		return Metrics{}, fmt.Errorf("relmodel: evaluating %q: %w", impl.Name, err)
	}
	th := newThermal(pt, hwPowerW(&impl, pt, asg.Mode, &cat.HW[asg.HW]), weibullGamma(pt), ckpt)
	out := th.metrics(&rel)
	if exact && (ft.fmOn || ckpt.Enabled() || pt.ConfigSEURatePerSec > 0) {
		faultmodel.CountEval()
		if params.PermPerUS > 0 {
			faultmodel.CountPermChain()
		}
		if ckpt.Enabled() {
			faultmodel.CountCheckpointPolicy()
		}
	}
	return out, nil
}

// scrubRepairProb is the probability one scrub cycle restores a corrupted
// configuration frame (blind scrubbing misses multi-frame and interconnect
// corruption).
const scrubRepairProb = 0.9
