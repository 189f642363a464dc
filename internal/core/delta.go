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
	publishLookups(p, n)
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
// schedule times. A record and its pages are immutable once returned
// (until Release recycles a dead child's), so offspring share them: a
// child allocates only the pages that hold one of its changed decisions
// and points at its parent's for the rest. A record
// costs its page table (8 bytes per page) plus its new pages (704 bytes
// each) and ≈ 20·n bytes of times; a record built from scratch owns every
// page, ≈ 88·n bytes. owner is the evaluator whose free lists the record
// and its own pages return to (see Release).
type replayState struct {
	pages []*decisionPage
	eval  moea.Evaluation
	times schedule.SeqTimes
	owner *coreEvaluator
}

// coreEvaluator is the per-worker evaluation scratch shared by both
// problem formulations: the contiguous decision buffer the scheduler
// reads, a reusable schedule evaluator, the delta change mask, and free
// lists of the replay records and pages it made for children that died
// at birth. It implements moea.DeltaEvaluator and moea.StateReleaser;
// delta evaluation is exact — every path produces bit-identical
// evaluations to Evaluate.
type coreEvaluator struct {
	p         problemCore
	sched     *schedule.Evaluator
	decisions []schedule.TaskDecision
	changed   []bool
	freeRecs  []*replayState
	freePages []*decisionPage
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
	var rec *replayState // the child's record, taken on its first change
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
		if rec == nil {
			rec = e.record()
			rec.pages = append(rec.pages[:0], st.pages...)
		}
		if rec.pages[k] == st.pages[k] {
			pg := e.page()
			*pg = *st.pages[k]
			rec.pages[k] = pg
		}
		rec.pages[k][t%pageSize] = d
		e.changed[t] = true
	}
	if reused > 0 {
		accelCounters.metricsReused.Add(uint64(reused))
	}
	publishLookups(e.p, n-reused)
	if rec == nil {
		if sameOrder {
			// Identical schedule inputs: the parent's evaluation is the
			// child's, no scheduling at all.
			accelCounters.deltaParentReuse.Add(1)
			return st.eval, st
		}
		// Only the order changed: the child shares the parent's page
		// table.
		rec = e.record()
		rec.pages = st.pages
	}

	var prev *schedule.SeqTimes
	if sameOrder {
		accelCounters.deltaPrefixRuns.Add(1)
		prev = &st.times
	} else {
		accelCounters.deltaFullRuns.Add(1)
	}
	rec.eval = e.run(g.Order, e.load(rec.pages), prev, &rec.times)
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
	rec := e.record()
	rec.pages = rec.pages[:0]
	for k := range numPages(len(e.decisions)) {
		pg := e.page()
		if c := copy(pg[:], e.decisions[k*pageSize:]); c < pageSize {
			clear(pg[c:])
		}
		rec.pages = append(rec.pages, pg)
	}
	rec.eval = e.run(g.Order, e.decisions, nil, &rec.times)
	return rec.eval, rec
}

// record returns an empty replay record owned by e, recycled when one is
// free. A recycled record keeps the buffers it owns: its page table, its
// times and a Seq of its own.
func (e *coreEvaluator) record() *replayState {
	k := len(e.freeRecs)
	if k == 0 {
		return &replayState{owner: e}
	}
	rec := e.freeRecs[k-1]
	e.freeRecs = e.freeRecs[:k-1]
	return rec
}

// page returns a decision page for e's caller to overwrite, recycled when
// one is free.
func (e *coreEvaluator) page() *decisionPage {
	k := len(e.freePages)
	if k == 0 {
		return new(decisionPage)
	}
	pg := e.freePages[k-1]
	e.freePages = e.freePages[:k-1]
	return pg
}

// Release implements moea.StateReleaser. It takes back the record of a
// child that died in its birth generation, and returns to the free lists
// only what that child's evaluation allocated:
//
//   - nothing for the parent-reuse path, whose state is the parent's
//     record;
//   - the pages the parent's table does not hold (every page of a record
//     built from scratch), and the record with its own page table, times
//     and Seq;
//   - but never the parent's table, which an order-only child shares, nor
//     a Seq aliased from the parent, which every prefix replay shares.
//
// Both go back to the record's owner, whichever evaluator is called: each
// evaluator then holds at most what it allocated itself, so its free lists
// stay within the run's peak live set however the engine spreads children
// over workers. Release must not run concurrently with the owner's
// evaluations.
func (e *coreEvaluator) Release(state, parentState any) {
	rec, _ := state.(*replayState)
	if rec == nil || state == parentState {
		return
	}
	o := rec.owner
	pst, _ := parentState.(*replayState)
	if pst != nil && sameArray(rec.pages, pst.pages) {
		rec.pages = nil
	} else {
		for k, pg := range rec.pages {
			if pst == nil || pg != pst.pages[k] {
				o.freePages = append(o.freePages, pg)
			}
		}
	}
	if pst != nil && sameArray(rec.times.Seq, pst.times.Seq) {
		rec.times.Seq = nil
	}
	rec.eval = moea.Evaluation{}
	o.freeRecs = append(o.freeRecs, rec)
}

// sameArray reports whether two non-empty slices start at the same
// element, that is, share their backing array from the start.
func sameArray[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}
