package relmodel

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/markov"
	"repro/internal/sweep"
)

// ChainParams are the primitive quantities from which the Markov chains of
// Fig. 3 are built for one task under one CLR configuration. Times are in
// microseconds; LambdaPerUS is the effective SEU rate in 1/µs.
type ChainParams struct {
	// ExecTimeUS is the useful execution time of the whole task (after
	// DVFS, HW and ASW time inflation), split evenly across the
	// inter-checkpoint intervals.
	ExecTimeUS float64
	// LambdaPerUS is the post-architectural-masking SEU rate.
	LambdaPerUS float64

	// Checkpoints is the number of checkpoints (intervals = Checkpoints+1).
	Checkpoints int
	// IntervalFracs optionally assigns unequal fractions of ExecTimeUS to
	// the Checkpoints+1 inter-checkpoint intervals (must be positive and
	// sum to 1). Nil means equal intervals. The Markov formulation handles
	// either, as §IV.A notes.
	IntervalFracs []float64
	// DetTimeUS is the error-detection time added to every interval.
	DetTimeUS float64
	// TolTimeUS is the recovery (rollback/restart) time paid per detected
	// error.
	TolTimeUS float64
	// ChkTimeUS is the time to create one checkpoint.
	ChkTimeUS float64

	// MHW is the hardware-layer masking probability m_HW.
	MHW float64
	// MImplSSW is the implicit masking of the system-software stack.
	MImplSSW float64
	// CovDet is the SSW detection coverage cov_Det.
	CovDet float64
	// MTol is the SSW tolerance (recovery success) probability m_Tol.
	MTol float64
	// MASW is the application-software masking probability m_ASW.
	MASW float64

	// ModelCheckpointErrors enables the dotted-line extension of Fig. 3(b):
	// errors during checkpoint creation itself.
	ModelCheckpointErrors bool

	// PermPerUS is the permanent-fault arrival rate in 1/µs (fault-model
	// subsystem). When positive, every interval gains a PermHit repair
	// state and both chains gain a PermFail absorbing state: a hit is
	// repaired (probability RepairProb, residence RepairTimeUS in the
	// timing chain) and the interval re-executes, or the task is
	// permanently lost. Zero — the legacy SEU-only model — builds exactly
	// the chains of Fig. 3, bit for bit.
	PermPerUS float64
	// RepairProb is the probability a permanent hit is repaired in the
	// field (scrubbing, partial reconfiguration, spare swap-in). In [0,1].
	RepairProb float64
	// RepairTimeUS is the repair residence time paid per permanent hit
	// (diagnosis + reconfiguration), whether or not the repair succeeds.
	RepairTimeUS float64
}

// Validate checks the parameters' ranges.
func (p *ChainParams) Validate() error {
	if p.ExecTimeUS <= 0 {
		return fmt.Errorf("relmodel: exec time %v must be positive", p.ExecTimeUS)
	}
	if p.LambdaPerUS < 0 {
		return fmt.Errorf("relmodel: lambda %v must be non-negative", p.LambdaPerUS)
	}
	if p.Checkpoints < 0 {
		return fmt.Errorf("relmodel: checkpoint count %d must be non-negative", p.Checkpoints)
	}
	if p.DetTimeUS < 0 || p.TolTimeUS < 0 || p.ChkTimeUS < 0 {
		return fmt.Errorf("relmodel: negative overhead time")
	}
	if p.IntervalFracs != nil {
		if len(p.IntervalFracs) != p.Checkpoints+1 {
			return fmt.Errorf("relmodel: %d interval fractions for %d intervals",
				len(p.IntervalFracs), p.Checkpoints+1)
		}
		sum := 0.0
		for _, f := range p.IntervalFracs {
			if f <= 0 {
				return fmt.Errorf("relmodel: non-positive interval fraction %v", f)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("relmodel: interval fractions sum to %v, want 1", sum)
		}
	}
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"MHW", p.MHW}, {"MImplSSW", p.MImplSSW}, {"CovDet", p.CovDet},
		{"MTol", p.MTol}, {"MASW", p.MASW},
	} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("relmodel: probability %s = %v outside [0,1]", pr.name, pr.v)
		}
	}
	if math.IsNaN(p.PermPerUS) || math.IsInf(p.PermPerUS, 0) || p.PermPerUS < 0 {
		return fmt.Errorf("relmodel: permanent rate %v must be finite and non-negative", p.PermPerUS)
	}
	if p.RepairProb < 0 || p.RepairProb > 1 || math.IsNaN(p.RepairProb) {
		return fmt.Errorf("relmodel: probability RepairProb = %v outside [0,1]", p.RepairProb)
	}
	if p.RepairTimeUS < 0 {
		return fmt.Errorf("relmodel: negative repair time")
	}
	return nil
}

// pPerm returns the probability interval i suffers a permanent hit.
func (p *ChainParams) pPerm(i int) float64 {
	if p.PermPerUS == 0 {
		return 0
	}
	return -math.Expm1(-p.PermPerUS * p.intervalExec(i))
}

// intervalExec returns the useful execution time of interval i.
func (p *ChainParams) intervalExec(i int) float64 {
	if p.IntervalFracs != nil {
		return p.ExecTimeUS * p.IntervalFracs[i]
	}
	return p.ExecTimeUS / float64(p.Checkpoints+1)
}

// pNoError returns p_ne = e^(−λ·T_exec) for interval i.
func (p *ChainParams) pNoError(i int) float64 {
	return math.Exp(-p.LambdaPerUS * p.intervalExec(i))
}

// pChkError returns the probability of an error during one checkpoint
// creation, p_Chke of Fig. 3(b).
func (p *ChainParams) pChkError() float64 {
	if !p.ModelCheckpointErrors {
		return 0
	}
	return 1 - math.Exp(-p.LambdaPerUS*p.ChkTimeUS)
}

// BuildTimingChain constructs the absorbing Markov chain of Fig. 3(a): one
// ExecICI / HWRel / SSWImpl / SSWDet / SSWTol / ASWRel stage per
// inter-checkpoint interval, checkpoint-creation states between intervals,
// and a single absorbing End state. Residence times encode T_exec + T_Det
// on the execution states, T_Tol on the tolerance states and T_Chk on the
// checkpoint states; the expected time to absorption is the task's average
// execution time.
func BuildTimingChain(p ChainParams) (*markov.Chain, error) {
	c := markov.New()
	if err := buildTimingChainInto(c, nil, p); err != nil {
		return nil, err
	}
	return c, nil
}

// buildTimingChainInto assembles the timing chain into c (which must be
// fresh or Reset). execStates, when non-nil, is reused as the per-interval
// state-handle scratch — the allocation-free path of AnalyzeChains.
func buildTimingChainInto(c *markov.Chain, execStates []int, p ChainParams) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n := p.Checkpoints + 1

	end := c.AddAbsorbing("End")
	// Permanent faults (fault-model subsystem) add one PermFail absorbing
	// state and a per-interval PermHit repair state; both exist only when
	// the rate is positive so the legacy chain stays bit-identical.
	perm := p.PermPerUS > 0
	var permFail int
	if perm {
		permFail = c.AddAbsorbing("PermFail")
	}
	// next[i] is the state entered after interval i completes cleanly.
	execStates = growInts(execStates, n)
	for i := 0; i < n; i++ {
		execStates[i] = c.AddStateIdx("ExecICI", i, p.intervalExec(i)+p.DetTimeUS)
	}
	for i := 0; i < n; i++ {
		pne := p.pNoError(i)
		exec := execStates[i]
		var next int
		if i == n-1 {
			next = end
		} else {
			chk := c.AddStateIdx("Chkpnt", i, p.ChkTimeUS)
			// A detected-and-tolerated error during checkpoint creation
			// redoes the checkpoint; anything else proceeds (the failure,
			// if any, is the functional chain's concern).
			pRedo := p.pChkError() * p.CovDet * p.MTol
			c.Transition(chk, chk, pRedo)
			c.Transition(chk, execStates[i+1], 1-pRedo)
			next = chk
		}

		hw := c.AddStateIdx("HWRel", i, 0)
		sswImpl := c.AddStateIdx("SSWImpl", i, 0)
		sswDet := c.AddStateIdx("SSWDet", i, 0)
		sswTol := c.AddStateIdx("SSWTol", i, p.TolTimeUS)
		asw := c.AddStateIdx("ASWRel", i, 0)

		// A permanent hit preempts the transient outcome of the interval:
		// repair re-executes it (paying the repair residence), a failed
		// repair is fatal. pSurv = 1 keeps the legacy path exact (×1.0 is
		// an IEEE identity).
		pSurv := 1.0
		if perm {
			pp := p.pPerm(i)
			pSurv = 1 - pp
			permHit := c.AddStateIdx("PermHit", i, p.RepairTimeUS)
			c.Transition(exec, permHit, pp)
			c.Transition(permHit, exec, p.RepairProb)
			c.Transition(permHit, permFail, 1-p.RepairProb)
		}
		c.Transition(exec, next, pne*pSurv)
		c.Transition(exec, hw, (1-pne)*pSurv)

		c.Transition(hw, next, p.MHW)
		c.Transition(hw, sswImpl, 1-p.MHW)

		c.Transition(sswImpl, next, p.MImplSSW)
		c.Transition(sswImpl, sswDet, 1-p.MImplSSW)

		c.Transition(sswDet, sswTol, p.CovDet)
		c.Transition(sswDet, asw, 1-p.CovDet)

		// Successful tolerance rolls back to re-execute this interval;
		// failed tolerance lets execution run on to completion (the error
		// shows up in the functional model, not the timing model).
		c.Transition(sswTol, exec, p.MTol)
		c.Transition(sswTol, next, 1-p.MTol)

		// The ASW layer's masking (or failure to mask) does not change the
		// timing: information redundancy overhead is already folded into
		// the execution time.
		c.Transition(asw, next, 1)
	}
	c.SetStart(execStates[0])
	return nil
}

// BuildFunctionalChain constructs the absorbing Markov chain of Fig. 3(b)
// for the same configuration: two absorbing states, noError and Error, and
// the absorption probability of noError is the task's functional
// reliability. With ModelCheckpointErrors set, checkpoint-creation states
// can themselves fail (the dotted p_Chke edge of Fig. 3(b)).
func BuildFunctionalChain(p ChainParams) (*markov.Chain, error) {
	c := markov.New()
	if err := buildFunctionalChainInto(c, nil, p); err != nil {
		return nil, err
	}
	return c, nil
}

// buildFunctionalChainInto assembles the functional chain into c (fresh or
// Reset), reusing execStates as scratch when non-nil.
func buildFunctionalChainInto(c *markov.Chain, execStates []int, p ChainParams) error {
	if err := p.Validate(); err != nil {
		return err
	}
	n := p.Checkpoints + 1
	pChkE := p.pChkError()

	noErr := c.AddAbsorbing("noError")
	errS := c.AddAbsorbing("Error")
	// Permanent-fault states mirror the timing chain (zero residence: the
	// functional chain resolves probabilities, not time).
	perm := p.PermPerUS > 0
	var permFail int
	if perm {
		permFail = c.AddAbsorbing("PermFail")
	}
	execStates = growInts(execStates, n)
	for i := 0; i < n; i++ {
		execStates[i] = c.AddStateIdx("ExecICI", i, 0)
	}
	for i := 0; i < n; i++ {
		pne := p.pNoError(i)
		exec := execStates[i]
		var next int
		if i == n-1 {
			next = noErr
		} else {
			chk := c.AddStateIdx("Chkpnt", i, 0)
			// Checkpoint-creation errors (the dotted p_Chke edge of
			// Fig. 3(b)) are themselves subject to the SSW layer's
			// detection and tolerance: detected-and-tolerated errors redo
			// the checkpoint, the rest corrupt the state.
			pRedo := pChkE * p.CovDet * p.MTol
			c.Transition(chk, chk, pRedo)
			c.Transition(chk, errS, pChkE-pRedo)
			c.Transition(chk, execStates[i+1], 1-pChkE)
			next = chk
		}

		hw := c.AddStateIdx("HWRel", i, 0)
		sswImpl := c.AddStateIdx("SSWImpl", i, 0)
		sswDet := c.AddStateIdx("SSWDet", i, 0)
		sswTol := c.AddStateIdx("SSWTol", i, 0)
		asw := c.AddStateIdx("ASWRel", i, 0)

		pSurv := 1.0
		if perm {
			pp := p.pPerm(i)
			pSurv = 1 - pp
			permHit := c.AddStateIdx("PermHit", i, 0)
			c.Transition(exec, permHit, pp)
			c.Transition(permHit, exec, p.RepairProb)
			c.Transition(permHit, permFail, 1-p.RepairProb)
		}
		c.Transition(exec, next, pne*pSurv)
		c.Transition(exec, hw, (1-pne)*pSurv)

		c.Transition(hw, next, p.MHW)
		c.Transition(hw, sswImpl, 1-p.MHW)

		c.Transition(sswImpl, next, p.MImplSSW)
		c.Transition(sswImpl, sswDet, 1-p.MImplSSW)

		c.Transition(sswDet, sswTol, p.CovDet)
		c.Transition(sswDet, asw, 1-p.CovDet)

		// Successful recovery re-executes the interval (a fresh chance of
		// error-free completion); failed recovery is a functional error.
		c.Transition(sswTol, exec, p.MTol)
		c.Transition(sswTol, errS, 1-p.MTol)

		// Undetected errors reach the information redundancy: masked →
		// correct result, unmasked → wrong result.
		c.Transition(asw, next, p.MASW)
		c.Transition(asw, errS, 1-p.MASW)
	}
	c.SetStart(execStates[0])
	return nil
}

// TaskReliability bundles the two chain analyses for one configuration.
type TaskReliability struct {
	// AvgExTimeUS is the expected execution time (timing chain).
	AvgExTimeUS float64
	// MinExTimeUS is the error-free execution time: all intervals plus
	// detection overheads plus checkpoint creation, no recoveries.
	MinExTimeUS float64
	// ErrProb is the probability of an erroneous result (functional chain).
	ErrProb float64
	// PermFailProb is the probability the task is lost to an unrepaired
	// permanent fault during one execution (absorption in PermFail).
	// Always 0 when ChainParams.PermPerUS is 0.
	PermFailProb float64
}

// chainScratch is the reusable working set of one AnalyzeChains call: one
// chain per model (both alive at once so they can be analyzed as a pair),
// the per-interval state-handle buffer and both analysis results. Kept on a
// free list so the task-metric hot path builds and solves both chains
// without allocating.
type chainScratch struct {
	timing, functional *markov.Chain
	execStates         []int
	tr, fr             markov.Result
}

var chainPool = sweep.FreeList[*chainScratch]{New: func() *chainScratch {
	return &chainScratch{timing: markov.New(), functional: markov.New()}
}}

// pairSolveTotals counts, process-wide, how many timing/functional chain
// pairs were answered with one shared factorization (paired) versus two
// independent solves (solo). Checkpoint-free configurations share; chains
// with checkpoints have genuinely different transient systems and solve
// separately.
var pairSolveTotals struct {
	paired, solo atomic.Uint64
}

// PairSolveStats reports the process-wide batched-chain-solve counters.
type PairSolveStats struct {
	// Paired counts chain pairs solved through one shared factorization;
	// Solo counts pairs that fell back to two independent solves.
	Paired, Solo uint64
}

// PairSolveTotals returns the accumulated counters of AnalyzeChains' paired
// solving, the source of the eval_accel gauges in clrearlyd's /metrics.
func PairSolveTotals() PairSolveStats {
	return PairSolveStats{
		Paired: pairSolveTotals.paired.Load(),
		Solo:   pairSolveTotals.solo.Load(),
	}
}

// growInts returns s resized to n entries, reusing capacity.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// AnalyzeChains builds and solves both chains of Fig. 3 for the parameters.
// The two chains are analyzed as a pair: checkpoint-free configurations
// have bit-identical (I − Q)ᵀ systems for the timing and functional models,
// so one LU factorization and one solve answer both (markov.AnalyzePair
// verifies the sharing bitwise; results are exactly those of two
// independent analyses).
func AnalyzeChains(p ChainParams) (TaskReliability, error) {
	var out TaskReliability
	sc := chainPool.Get()
	defer chainPool.Put(sc)
	sc.execStates = growInts(sc.execStates, p.Checkpoints+1)

	tc := sc.timing
	tc.Reset()
	if err := buildTimingChainInto(tc, sc.execStates, p); err != nil {
		return out, err
	}
	fc := sc.functional
	fc.Reset()
	if err := buildFunctionalChainInto(fc, sc.execStates, p); err != nil {
		return out, err
	}
	tr, fr := &sc.tr, &sc.fr
	shared, err := markov.AnalyzePairInto(tc, fc, tr, fr)
	if err != nil {
		return out, fmt.Errorf("relmodel: chain analysis: %w", err)
	}
	if shared {
		pairSolveTotals.paired.Add(1)
	} else {
		pairSolveTotals.solo.Add(1)
	}
	out.AvgExTimeUS = tr.ExpectedTime

	pErr, ok := fc.AbsorptionProbability(fr, "Error")
	if !ok {
		return out, fmt.Errorf("relmodel: functional chain lacks Error state")
	}
	if p.PermPerUS > 0 {
		pPerm, ok := fc.AbsorptionProbability(fr, "PermFail")
		if !ok {
			return out, fmt.Errorf("relmodel: functional chain lacks PermFail state")
		}
		out.PermFailProb = pPerm
	}
	n := float64(p.Checkpoints + 1)
	out.MinExTimeUS = p.ExecTimeUS + n*p.DetTimeUS + float64(p.Checkpoints)*p.ChkTimeUS
	out.ErrProb = pErr
	return out, nil
}
