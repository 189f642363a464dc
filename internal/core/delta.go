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

// decisionsInto resolves a whole genome into per-task schedule decisions,
// reusing dst's capacity.
func decisionsInto(p problemCore, dst []schedule.TaskDecision, g *moea.Genome) []schedule.TaskDecision {
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

// decodeResult re-runs the scheduler on a genome for reporting: the QoS of
// a front point.
func decodeResult(p problemCore, g *moea.Genome) *schedule.Result {
	inst := p.instance()
	res, err := schedule.RunWithComm(inst.Graph, inst.Platform, g.Order, decisionsInto(p, nil, g), inst.Comm)
	if err != nil {
		panic("core: schedule decoding failed: " + err.Error())
	}
	return res
}

// sameDecision reports whether two decisions are bitwise equal in every
// field: the PE, the metric fields and the footprint. A record's pages
// therefore always equal its genome's decode bit for bit.
func sameDecision(a, b *schedule.TaskDecision) bool {
	bits := math.Float64bits
	return a.PE == b.PE &&
		bits(a.Metrics.EtaHours) == bits(b.Metrics.EtaHours) &&
		bits(a.Metrics.MinExTimeUS) == bits(b.Metrics.MinExTimeUS) &&
		bits(a.Metrics.AvgExTimeUS) == bits(b.Metrics.AvgExTimeUS) &&
		bits(a.Metrics.ErrProb) == bits(b.Metrics.ErrProb) &&
		bits(a.Metrics.PermFailProb) == bits(b.Metrics.PermFailProb) &&
		bits(a.Metrics.MTTFHours) == bits(b.Metrics.MTTFHours) &&
		bits(a.Metrics.PowerW) == bits(b.Metrics.PowerW) &&
		bits(a.Metrics.EnergyUJ) == bits(b.Metrics.EnergyUJ) &&
		bits(a.Metrics.TempC) == bits(b.Metrics.TempC) &&
		bits(a.MemKB) == bits(b.MemKB)
}

// pageSize is the number of consecutive tasks whose decisions share one
// replay page. A child copies a whole page to change one decision in it,
// so smaller pages copy less per change while larger ones keep the page
// table shorter; 8 tasks make a 704-byte page.
const pageSize = 8

// decisionPage holds the decisions of tasks [k·pageSize, (k+1)·pageSize)
// of page k. The last page of a genome whose length is not a multiple of
// pageSize leaves its tail zero.
type decisionPage [pageSize]schedule.TaskDecision

// numPages is the page count of an n-task genome.
func numPages(n int) int { return (n + pageSize - 1) / pageSize }

// replayState is the delta-evaluation replay state of one evaluated genome
// (the opaque state coreEvaluator.EvaluateDelta returns): the decoded
// schedule inputs as copy-on-write pages, the evaluation, and the captured
// schedule times. A record and its pages are immutable once returned, so
// offspring share them: a child allocates only the pages that hold one of
// its changed decisions and points at its parent's for the rest. A record
// costs its page table (8 bytes per page) plus its new pages (704 bytes
// each) and ≈ 20·n bytes of times; a record built from scratch owns every
// page, ≈ 88·n bytes.
type replayState struct {
	pages []*decisionPage
	eval  moea.Evaluation
	times schedule.SeqTimes
}

// coreEvaluator is the per-worker evaluation scratch shared by both
// problem formulations: the contiguous decision buffer the scheduler
// reads, a reusable schedule evaluator and the delta change mask. It
// implements moea.DeltaEvaluator; delta evaluation is exact — every path
// produces bit-identical evaluations to Evaluate.
type coreEvaluator struct {
	p         problemCore
	sched     *schedule.Evaluator
	decisions []schedule.TaskDecision
	changed   []bool
}

// newCoreEvaluator returns p's evaluation scratch, its schedule evaluator
// computing only the aggregates p's objectives and constraints read.
func newCoreEvaluator(p problemCore) *coreEvaluator {
	skip := skippedAggregates(p.instance(), p.sysObjs())
	return &coreEvaluator{p: p, sched: &schedule.Evaluator{Skip: skip}}
}

func (e *coreEvaluator) Evaluate(g *moea.Genome) moea.Evaluation {
	e.decisions = decisionsInto(e.p, e.decisions, g)
	return e.run(g.Order, e.decisions, nil, nil)
}

// load copies pages into the contiguous decision buffer the scheduler
// reads and returns the buffer.
func (e *coreEvaluator) load(pages []*decisionPage) []schedule.TaskDecision {
	n := e.p.NumTasks()
	if cap(e.decisions) < n {
		e.decisions = make([]schedule.TaskDecision, n)
	}
	e.decisions = e.decisions[:n]
	for k, pg := range pages {
		copy(e.decisions[k*pageSize:], pg[:])
	}
	return e.decisions
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
// differ from the parent, copies only the pages holding a changed
// decision, and — when the scheduling order is unchanged — replays the
// parent's schedule prefix up to the first affected task. Every shortcut
// is exactness-preserving:
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
	var pages []*decisionPage // the parent's page table, copied on first change
	reused := 0
	for t := 0; t < n; t++ {
		e.changed[t] = false
		if g.Genes[t] == parent.Genes[t] {
			reused++
			continue
		}
		d := e.p.decodeDecision(t, g.Genes[t])
		k := t / pageSize
		if sameDecision(&d, &st.pages[k][t%pageSize]) {
			continue
		}
		if pages == nil {
			pages = slices.Clone(st.pages)
		}
		if pages[k] == st.pages[k] {
			pg := new(decisionPage)
			*pg = *st.pages[k]
			pages[k] = pg
		}
		pages[k][t%pageSize] = d
		e.changed[t] = true
	}
	if reused > 0 {
		accelCounters.metricsReused.Add(uint64(reused))
	}
	if pages == nil {
		if sameOrder {
			// Identical schedule inputs: the parent's evaluation is the
			// child's, no scheduling at all.
			accelCounters.deltaParentReuse.Add(1)
			return st.eval, st
		}
		// Only the order changed: the child shares all of the parent's
		// pages.
		pages = st.pages
	}

	rec := &replayState{pages: pages}
	var prev *schedule.SeqTimes
	if sameOrder {
		accelCounters.deltaPrefixRuns.Add(1)
		prev = &st.times
	} else {
		accelCounters.deltaFullRuns.Add(1)
	}
	rec.eval = e.run(g.Order, e.load(pages), prev, &rec.times)
	return rec.eval, rec
}

// evaluateRetain is a full evaluation that additionally captures the
// replay state a later EvaluateDelta call can build on — the path taken
// for initial-population members and parentless offspring. Each page is
// its own allocation, so a descendant that shares one page keeps only
// that page alive.
func (e *coreEvaluator) evaluateRetain(g *moea.Genome) (moea.Evaluation, any) {
	accelCounters.deltaFullRuns.Add(1)
	e.decisions = decisionsInto(e.p, e.decisions, g)
	rec := &replayState{pages: make([]*decisionPage, numPages(len(e.decisions)))}
	for k := range rec.pages {
		pg := new(decisionPage)
		copy(pg[:], e.decisions[k*pageSize:])
		rec.pages[k] = pg
	}
	rec.eval = e.run(g.Order, e.decisions, nil, &rec.times)
	return rec.eval, rec
}
