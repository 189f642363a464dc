package core

import (
	"math"
	"slices"

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

// sameDecision reports whether two decisions are bitwise equal in every
// field the schedule reads: the PE, the metric fields and the footprint.
func sameDecision(a, b *schedule.TaskDecision) bool {
	bits := math.Float64bits
	return a.PE == b.PE &&
		bits(a.Metrics.EtaHours) == bits(b.Metrics.EtaHours) &&
		bits(a.Metrics.MinExTimeUS) == bits(b.Metrics.MinExTimeUS) &&
		bits(a.Metrics.AvgExTimeUS) == bits(b.Metrics.AvgExTimeUS) &&
		bits(a.Metrics.ErrProb) == bits(b.Metrics.ErrProb) &&
		bits(a.Metrics.MTTFHours) == bits(b.Metrics.MTTFHours) &&
		bits(a.Metrics.PowerW) == bits(b.Metrics.PowerW) &&
		bits(a.Metrics.EnergyUJ) == bits(b.Metrics.EnergyUJ) &&
		bits(a.Metrics.TempC) == bits(b.Metrics.TempC) &&
		bits(a.MemKB) == bits(b.MemKB)
}

// replayState is the delta-evaluation replay state of one evaluated genome
// (the opaque state coreEvaluator.EvaluateDelta returns): the decoded
// schedule inputs, the evaluation, and the captured schedule times. A
// record is immutable once returned, so offspring may share it. It costs
// ≈ 88·n bytes of decisions plus ≈ 20·n bytes of times per live genome.
type replayState struct {
	decisions []schedule.TaskDecision
	eval      moea.Evaluation
	times     schedule.SeqTimes
}

// coreEvaluator is the per-worker evaluation scratch shared by both
// problem formulations: a reusable decision buffer, a reusable schedule
// evaluator and the delta change mask. It implements moea.DeltaEvaluator;
// delta evaluation is exact — every path produces bit-identical
// evaluations to Evaluate.
type coreEvaluator struct {
	p         problemCore
	sched     *schedule.Evaluator
	decisions []schedule.TaskDecision
	changed   []bool
}

func (e *coreEvaluator) Evaluate(g *moea.Genome) moea.Evaluation {
	e.decisions = decisionsIntoCore(e.p, e.decisions, g)
	return e.run(g.Order, e.decisions, nil, nil)
}

// run schedules the decoded decisions and derives the evaluation,
// capturing the replay artifact when capture is non-nil. A non-nil prev
// replays that schedule's prefix up to the first task set in e.changed.
func (e *coreEvaluator) run(order []int, decisions []schedule.TaskDecision, prev, capture *schedule.SeqTimes) moea.Evaluation {
	inst := e.p.instance()
	var res *schedule.Result
	var err error
	if prev != nil {
		res, err = e.sched.RunWithCommDelta(inst.Graph, inst.Platform, order, decisions, inst.Comm, prev, e.changed, capture)
	} else {
		res, err = e.sched.RunWithCommCapture(inst.Graph, inst.Platform, order, decisions, inst.Comm, capture)
	}
	if err != nil {
		panic("core: schedule evaluation failed: " + err.Error())
	}
	return moea.Evaluation{
		Objectives: objectiveVector(res, e.p.sysObjs()),
		Violation:  totalViolation(inst, res),
	}
}

// EvaluateDelta implements moea.DeltaEvaluator; the replay state is a
// *replayState. With a usable parent record it decodes only the genes that
// differ from the parent and — when the scheduling order is unchanged —
// replays the parent's schedule prefix up to the first affected task.
// Every shortcut is exactness-preserving:
//
//   - fitness depends only on the order and the decoded decisions, so a
//     child whose inputs equal the parent's returns the parent's record;
//   - the schedule prefix replay is bit-identical to a full run (see
//     schedule.RunWithCommDelta).
func (e *coreEvaluator) EvaluateDelta(g *moea.Genome, parent *moea.Genome, parentState any) (moea.Evaluation, any) {
	st, ok := parentState.(*replayState)
	if parent == nil || !ok || st == nil {
		return e.evaluateRetain(g)
	}
	n := e.p.NumTasks()

	// An evaluated genome is never mutated, so parent.Order is the order
	// st was scheduled with.
	sameOrder := slices.Equal(g.Order, parent.Order)
	if cap(e.changed) < n {
		e.changed = make([]bool, n)
	}
	e.changed = e.changed[:n]
	var decisions []schedule.TaskDecision // the parent's, copied on first change
	reused := 0
	for t := 0; t < n; t++ {
		e.changed[t] = false
		if g.Genes[t] == parent.Genes[t] {
			reused++
			continue
		}
		d := e.p.decodeDecision(t, g.Genes[t])
		if sameDecision(&d, &st.decisions[t]) {
			continue
		}
		if decisions == nil {
			decisions = slices.Clone(st.decisions)
		}
		decisions[t] = d
		e.changed[t] = true
	}
	if reused > 0 {
		accelCounters.metricsReused.Add(uint64(reused))
	}
	if decisions == nil {
		if sameOrder {
			// Identical schedule inputs: the parent's evaluation is the
			// child's, no scheduling at all.
			accelCounters.deltaParentReuse.Add(1)
			return st.eval, st
		}
		// Only the order changed: records are immutable, so the child's
		// may share the parent's decisions.
		decisions = st.decisions
	}

	rec := &replayState{decisions: decisions}
	var prev *schedule.SeqTimes
	if sameOrder {
		accelCounters.deltaPrefixRuns.Add(1)
		prev = &st.times
	} else {
		accelCounters.deltaFullRuns.Add(1)
	}
	rec.eval = e.run(g.Order, rec.decisions, prev, &rec.times)
	return rec.eval, rec
}

// evaluateRetain is a full evaluation that additionally captures the
// replay state a later EvaluateDelta call can build on — the path taken
// for initial-population members and parentless offspring.
func (e *coreEvaluator) evaluateRetain(g *moea.Genome) (moea.Evaluation, any) {
	accelCounters.deltaFullRuns.Add(1)
	rec := &replayState{decisions: decisionsIntoCore(e.p, nil, g)}
	rec.eval = e.run(g.Order, rec.decisions, nil, &rec.times)
	return rec.eval, rec
}
