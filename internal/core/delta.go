package core

import (
	"math"

	"repro/internal/moea"
	"repro/internal/schedule"
)

// problemCore is the shared shape of the fcCLR and pfCLR problem
// formulations: both decode genes task-by-task into schedule decisions and
// evaluate them against the same instance, so one evaluator implementation
// (coreEvaluator) serves both.
type problemCore interface {
	moea.Problem
	instance() *Instance
	sysObjs() []SystemObjective
	fitCache() *fitnessCache
	// decodeDecision resolves one task's gene into its schedule decision.
	decodeDecision(task int, g moea.Gene) schedule.TaskDecision
}

// decisionsIntoCore resolves a whole genome into per-task schedule
// decisions, reusing dst's capacity.
func decisionsIntoCore(p problemCore, dst []schedule.TaskDecision, g *moea.Genome) []schedule.TaskDecision {
	n := p.NumTasks()
	if cap(dst) < n {
		dst = make([]schedule.TaskDecision, n)
	}
	dst = dst[:n]
	for t := 0; t < n; t++ {
		dst[t] = p.decodeDecision(t, g.Genes[t])
	}
	return dst
}

// Key layout (see appendFitnessKey): word 0 is the task count n, words
// [1, 1+n) the priority permutation, then 10 words per task — the PE id
// followed by the 8 metric fields and the footprint as float64 bits.
const decisionWords = 10

func decisionBase(n, task int) int { return 1 + n + decisionWords*task }

// encodeDecision writes the 10-word canonical encoding of one decision,
// mirroring appendFitnessKey's per-task block exactly.
func encodeDecision(dst *[decisionWords]uint64, d schedule.TaskDecision) {
	dst[0] = uint64(d.PE)
	dst[1] = math.Float64bits(d.Metrics.EtaHours)
	dst[2] = math.Float64bits(d.Metrics.MinExTimeUS)
	dst[3] = math.Float64bits(d.Metrics.AvgExTimeUS)
	dst[4] = math.Float64bits(d.Metrics.ErrProb)
	dst[5] = math.Float64bits(d.Metrics.MTTFHours)
	dst[6] = math.Float64bits(d.Metrics.PowerW)
	dst[7] = math.Float64bits(d.Metrics.EnergyUJ)
	dst[8] = math.Float64bits(d.Metrics.TempC)
	dst[9] = math.Float64bits(d.MemKB)
}

// decisionsFromKey reconstructs the decision slice a key encodes. Bit
// patterns round-trip exactly, so the reconstruction is bit-identical to
// the decisions the key was built from.
func decisionsFromKey(dst []schedule.TaskDecision, key []uint64) []schedule.TaskDecision {
	n := int(key[0])
	if cap(dst) < n {
		dst = make([]schedule.TaskDecision, n)
	}
	dst = dst[:n]
	for t := 0; t < n; t++ {
		b := key[decisionBase(n, t):]
		d := &dst[t]
		d.PE = int(b[0])
		d.Metrics.EtaHours = math.Float64frombits(b[1])
		d.Metrics.MinExTimeUS = math.Float64frombits(b[2])
		d.Metrics.AvgExTimeUS = math.Float64frombits(b[3])
		d.Metrics.ErrProb = math.Float64frombits(b[4])
		d.Metrics.MTTFHours = math.Float64frombits(b[5])
		d.Metrics.PowerW = math.Float64frombits(b[6])
		d.Metrics.EnergyUJ = math.Float64frombits(b[7])
		d.Metrics.TempC = math.Float64frombits(b[8])
		d.MemKB = math.Float64frombits(b[9])
	}
	return dst
}

// coreEvaluator is the per-worker evaluation scratch shared by both
// problem formulations: a reusable decision buffer, a reusable schedule
// evaluator, the fitness-cache key scratch and the delta change mask. It
// implements moea.DeltaEvaluator; delta evaluation is exact — every path
// produces bit-identical evaluations to Evaluate.
type coreEvaluator struct {
	p         problemCore
	sched     *schedule.Evaluator
	decisions []schedule.TaskDecision
	key       []uint64
	changed   []bool
}

func (e *coreEvaluator) Evaluate(g *moea.Genome) moea.Evaluation {
	e.decisions = decisionsIntoCore(e.p, e.decisions, g)
	fit := e.p.fitCache()
	if fit == nil {
		return e.run(g.Order, nil, nil)
	}
	e.key = appendFitnessKey(e.key[:0], g.Order, e.decisions)
	return fit.lookup(fitnessHash(e.key), e.key, func() ([]float64, float64) {
		ev := e.run(g.Order, nil, nil)
		return ev.Objectives, ev.Violation
	})
}

// run schedules the already-decoded decisions and derives the evaluation,
// capturing the replay artifact when capture is non-nil. A non-nil prev
// replays that schedule's prefix up to the first task set in e.changed.
func (e *coreEvaluator) run(order []int, prev, capture *schedule.SeqTimes) moea.Evaluation {
	inst := e.p.instance()
	var res *schedule.Result
	var err error
	if prev != nil {
		res, err = e.sched.RunWithCommDelta(inst.Graph, inst.Platform, order, e.decisions, inst.Comm, prev, e.changed, capture)
	} else {
		res, err = e.sched.RunWithCommCapture(inst.Graph, inst.Platform, order, e.decisions, inst.Comm, capture)
	}
	if err != nil {
		panic("core: schedule evaluation failed: " + err.Error())
	}
	return moea.Evaluation{
		Objectives: objectiveVector(res, e.p.sysObjs()),
		Violation:  totalViolation(inst, res),
	}
}

// EvaluateDelta implements moea.DeltaEvaluator. The replay state is the
// genome's *fitnessEntry (see fitnessEntry). With a usable parent state it
// decodes only the genes that differ from the parent, patches the parent's
// fitness key in the worker's scratch, and — when the scheduling order is
// unchanged — replays the parent's schedule prefix up to the first
// affected task. Every shortcut is exactness-preserving:
//
//   - fitness depends only on the key (order + decoded decisions), so an
//     unchanged key returns the parent's evaluation verbatim;
//   - the schedule prefix replay is bit-identical to a full run (see
//     schedule.RunWithCommDelta);
//   - the fitness cache is still consulted with the patched key, so delta
//     and full evaluation populate and hit the same entries.
func (e *coreEvaluator) EvaluateDelta(g *moea.Genome, parent *moea.Genome, parentState any) (moea.Evaluation, any) {
	st, ok := parentState.(*fitnessEntry)
	if parent == nil || !ok || st == nil {
		return e.evaluateRetain(g)
	}
	n := e.p.NumTasks()

	// Patch a copy of the parent's key: order words first, then the
	// 10-word decision block of every task whose gene changed.
	e.key = append(e.key[:0], st.key...)
	sameOrder := true
	for i, t := range g.Order {
		if w := uint64(t); e.key[1+i] != w {
			e.key[1+i] = w
			sameOrder = false
		}
	}
	if cap(e.changed) < n {
		e.changed = make([]bool, n)
	}
	e.changed = e.changed[:n]
	anyChanged := false
	reused := 0
	var buf [decisionWords]uint64
	for t := 0; t < n; t++ {
		e.changed[t] = false
		if g.Genes[t] == parent.Genes[t] {
			reused++
			continue
		}
		encodeDecision(&buf, e.p.decodeDecision(t, g.Genes[t]))
		b := decisionBase(n, t)
		if !keyEqual(e.key[b:b+decisionWords], buf[:]) {
			copy(e.key[b:b+decisionWords], buf[:])
			e.changed[t] = true
			anyChanged = true
		}
	}
	if reused > 0 {
		accelCounters.metricsReused.Add(uint64(reused))
	}
	if sameOrder && !anyChanged {
		// Identical schedule inputs: the parent's evaluation is the
		// child's, no scheduling and no cache traffic at all.
		accelCounters.deltaParentReuse.Add(1)
		return st.eval, st
	}

	ent := e.p.fitCache().entry(fitnessHash(e.key), e.key)
	ent.once.Do(func() {
		e.decisions = decisionsFromKey(e.decisions, ent.key)
		var prev *schedule.SeqTimes
		if sameOrder && st.times.Seq != nil {
			accelCounters.deltaPrefixRuns.Add(1)
			prev = &st.times
		} else {
			accelCounters.deltaFullRuns.Add(1)
		}
		ent.eval = e.run(g.Order, prev, &ent.times)
	})
	return ent.eval, ent
}

// evaluateRetain is a full evaluation that additionally captures the
// replay state a later EvaluateDelta call can build on — the path taken
// for initial-population members and parentless offspring.
func (e *coreEvaluator) evaluateRetain(g *moea.Genome) (moea.Evaluation, any) {
	e.decisions = decisionsIntoCore(e.p, e.decisions, g)
	e.key = appendFitnessKey(e.key[:0], g.Order, e.decisions)
	ent := e.p.fitCache().entry(fitnessHash(e.key), e.key)
	ent.once.Do(func() {
		accelCounters.deltaFullRuns.Add(1)
		ent.eval = e.run(g.Order, nil, &ent.times)
	})
	return ent.eval, ent
}
