package schedule

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// Evaluator holds the working set of one list-scheduling evaluation — the
// Result buffers, the per-PE and per-task bookkeeping arrays, the ready
// set, the pop sequence and the power-event lists — so repeated
// evaluations of the same graph/platform shape reuse storage instead of
// allocating it. The dependency structure it walks is the graph's own
// (taskgraph.Adjacency), so an Evaluator holds nothing per graph. One
// Evaluator serves one goroutine at a time; the GA's parallel fitness
// workers each own one (see moea.ScratchProblem).
//
// The *Result returned by Run/RunWithComm points into the Evaluator's
// buffers and is valid only until the next call on the same Evaluator;
// callers that retain results across calls must copy what they keep.
type Evaluator struct {
	// Skip names the Eq. 2/4 reductions to leave out; each skipped field
	// of the Result reads NaN. The zero value computes every aggregate.
	Skip Aggregates

	res    Result
	seen   []bool
	peFree []float64
	indeg  []int32
	pos    []int32 // task → position in the priority permutation
	ready  readySet
	seq    []int32 // pop order of the last full run
	events []powerEvent
	merge  []powerEvent // merge target of the power-event sort
	damage []float64
}

// NewEvaluator returns an empty Evaluator; buffers grow on first use.
func NewEvaluator() *Evaluator { return &Evaluator{} }

// Aggregates is a set of the optional system-level reductions of a
// schedule evaluation. Makespan, functional reliability, ErrProb and the
// per-PE busy and footprint sums are always computed.
type Aggregates uint8

const (
	// AggMTTF is the Eq. 2 lifetime reduction (Result.MTTFHours).
	AggMTTF Aggregates = 1 << iota
	// AggEnergy is the Eq. 4 energy sum (Result.EnergyUJ).
	AggEnergy
	// AggPeakPower is the Eq. 4 peak-power sweep (Result.PeakPowerW), the
	// only reduction that sorts.
	AggPeakPower
)

// powerEvent is one edge of the power profile: delta is +PowerW at a task's
// start and −PowerW at its end.
type powerEvent struct {
	at    float64
	delta float64
}

// eventLess is the Eq. 4 sweep order: by time, releases before
// acquisitions at equal instants so back-to-back tasks on one PE do not
// double-count. Inputs are finite (prep rejects the rest), so only
// value-equal events are unordered and the sorted sequence is unique.
func eventLess(a, b powerEvent) bool {
	return a.at < b.at || a.at == b.at && a.delta < b.delta
}

// insertionMovesPerEvent caps the element moves sortEvents spends on
// insertion sort, per event, before it falls back to merging runs. 8 is
// the smallest budget at which sort time on sampled pop-order inputs
// reaches the pure insertion sort's (100-task pfCLR schedules of the
// clrbench ga-mapping workload, 2-vCPU Xeon: 4.0 µs per schedule at 6,
// 3.3 at 8, 3.4 at 32; 2% of its schedules fall back). Larger budgets
// only slow the grouped-by-PE shape (n=400: 34 µs at 8, 45 at 16, 76 at
// 32). Merging alone is 3× slower on the sampled inputs: their ascending
// runs are a few events long. In a GA the sort runs only when peak power
// is an objective or a constraint, which no clrbench workload sets;
// power_oracle_test.go and the ScheduleEvaluator* benchmark rows cover it.
const insertionMovesPerEvent = 8

// sortEvents sorts ev.events, listed in pop order, and returns the sorted
// slice: ev.events itself or the merge buffer. Pop order is nearly sorted
// already — on each PE tasks start in pop order — so insertion sort
// usually finishes in a few moves per event. Inputs far from sorted
// (independent tasks whose priorities are grouped by PE) use up the move
// budget; the rest is then sorted by merging ascending runs pairwise,
// which takes one pass per doubling of run length. Both yield the same
// unique sorted sequence, and the choice depends only on how disordered
// the input is.
func (ev *Evaluator) sortEvents() []powerEvent {
	e := ev.events
	budget := insertionMovesPerEvent * len(e)
	for i := 1; i < len(e); i++ {
		x := e[i]
		j := i
		for j > 0 && eventLess(x, e[j-1]) {
			e[j] = e[j-1]
			j--
		}
		e[j] = x
		if budget -= i - j; budget < 0 {
			if cap(ev.merge) < len(e) {
				ev.merge = make([]powerEvent, len(e))
			}
			return mergeRuns(e, ev.merge[:len(e)])
		}
	}
	return e
}

// mergeRuns sorts src by repeatedly merging adjacent ascending runs into
// dst and swapping the two; it returns whichever holds the result.
func mergeRuns(src, dst []powerEvent) []powerEvent {
	n := len(src)
	for {
		runs := 0
		for lo := 0; lo < n; runs++ {
			mid := runEnd(src, lo)
			hi := runEnd(src, mid)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if eventLess(src[j], src[i]) {
					dst[k] = src[j]
					j++
				} else {
					dst[k] = src[i]
					i++
				}
				k++
			}
			k += copy(dst[k:], src[i:mid])
			copy(dst[k:], src[j:hi])
			lo = hi
		}
		src, dst = dst, src
		if runs <= 1 {
			return src
		}
	}
}

// runEnd returns the end of the ascending run of ev starting at lo.
func runEnd(ev []powerEvent, lo int) int {
	if lo >= len(ev) {
		return lo
	}
	for lo++; lo < len(ev) && !eventLess(ev[lo], ev[lo-1]); lo++ {
	}
	return lo
}

// growF returns s resized to n entries, zeroed, reusing capacity.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growB is growF for bool buffers.
func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// growI32 is growF for int32 buffers (not zeroed; every entry is written).
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// readySet is the list scheduler's ready set: a bitset over priority
// positions, with lo the index of the lowest word that may be non-zero
// (every word below it is zero). Popping the lowest set bit is exactly
// "the eligible task earliest in priority order".
type readySet struct {
	words []uint64
	lo    int
}

// reset empties the set and sizes it for n positions.
func (r *readySet) reset(n int) {
	w := (n + 63) / 64
	if cap(r.words) < w {
		r.words = make([]uint64, w)
	}
	r.words = r.words[:w]
	clear(r.words)
	r.lo = 0
}

// push adds priority position p.
func (r *readySet) push(p int32) {
	w := int(p >> 6)
	r.words[w] |= 1 << (p & 63)
	if w < r.lo {
		r.lo = w
	}
}

// pop removes and returns the smallest position, or −1 if the set is
// empty.
func (r *readySet) pop() int32 {
	for ; r.lo < len(r.words); r.lo++ {
		if x := r.words[r.lo]; x != 0 {
			r.words[r.lo] = x & (x - 1)
			return int32(r.lo<<6 + bits.TrailingZeros64(x))
		}
	}
	return -1
}

// laterOf is math.Max(a, b) for the two scheduling loops' start times, by
// plain comparison. The two give the same bits on these inputs: the ready
// time starts at +0 and only grows, and a PE's free time starts at +0 and
// then holds end times, start plus a positive execution time. So neither
// operand is NaN or −0, the only inputs on which math.Max and a comparison
// differ (prep rejects non-finite execution times and powers).
func laterOf(a, b float64) float64 {
	if b > a {
		return b
	}
	return a
}

// SeqTimes is the replay artifact of one schedule evaluation: the tasks in
// scheduling (pop) order plus every task's start and end time, the state
// RunWithCommDelta needs to reuse a neighbor schedule's prefix. Seq depends
// only on the graph and the priority permutation — the ready set pops the
// eligible task earliest in priority order and never consults decisions or
// times — while StartUS/EndUS are task-indexed times of the captured run.
// Captured values may be shared between evaluations and must be treated as
// immutable.
type SeqTimes struct {
	Seq            []int32
	StartUS, EndUS []float64
}

// Run evaluates the schedule into the Evaluator's buffers; see the package
// Run for semantics.
func (ev *Evaluator) Run(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision) (*Result, error) {
	return ev.RunWithComm(g, p, priority, decisions, CommModel{})
}

// RunWithComm evaluates the communication-aware schedule into the
// Evaluator's buffers; see the package RunWithComm for semantics. The ready
// set is tracked by predecessor counts and a bitset over priority
// positions, whose lowest set bit is the next task — the same order as
// rescanning the priority list for the first eligible task, with identical
// floats. Predecessors, successors and edge data volumes are read from
// the graph's flat Adjacency.
func (ev *Evaluator) RunWithComm(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision, comm CommModel) (*Result, error) {
	return ev.RunWithCommCapture(g, p, priority, decisions, comm, nil)
}

// prep validates the inputs and resets the result and per-PE buffers — the
// shared prologue of the full and delta scheduling paths, so both report
// identical errors and start from identical state. A nil changed checks
// every decision; otherwise only those with changed[t] set are checked, in
// the same order, so the delta path reports the error a full run would
// when only changed decisions are invalid. Every task's footprint is
// summed either way.
func (ev *Evaluator) prep(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision, changed []bool) (*Result, error) {
	n := g.NumTasks()
	if len(priority) != n {
		return nil, fmt.Errorf("schedule: priority has %d entries, want %d", len(priority), n)
	}
	if len(decisions) != n {
		return nil, fmt.Errorf("schedule: decisions has %d entries, want %d", len(decisions), n)
	}
	ev.seen = growB(ev.seen, n)
	ev.pos = growI32(ev.pos, n)
	for i, t := range priority {
		if t < 0 || t >= n || ev.seen[t] {
			return nil, fmt.Errorf("schedule: priority is not a permutation of task IDs")
		}
		ev.seen[t] = true
		ev.pos[t] = int32(i)
	}
	for t := range decisions {
		if changed != nil && !changed[t] {
			continue
		}
		d := &decisions[t]
		if d.PE < 0 || d.PE >= p.NumPEs() {
			return nil, fmt.Errorf("schedule: task %d mapped to unknown PE %d", t, d.PE)
		}
		if d.Metrics.AvgExTimeUS <= 0 {
			return nil, fmt.Errorf("schedule: task %d has non-positive execution time", t)
		}
		if math.IsNaN(d.Metrics.AvgExTimeUS) || math.IsInf(d.Metrics.AvgExTimeUS, 0) {
			return nil, fmt.Errorf("schedule: task %d has non-finite execution time", t)
		}
		if w := d.Metrics.PowerW; w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("schedule: task %d has negative or non-finite power", t)
		}
	}

	res := &ev.res
	*res = Result{
		StartUS:  growF(res.StartUS, n),
		EndUS:    growF(res.EndUS, n),
		PEBusyUS: growF(res.PEBusyUS, p.NumPEs()),
		PEMemKB:  growF(res.PEMemKB, p.NumPEs()),
	}
	for t := range decisions {
		d := &decisions[t]
		if d.MemKB < 0 {
			return nil, fmt.Errorf("schedule: task %d has negative footprint", t)
		}
		res.PEMemKB[d.PE] += d.MemKB
	}
	ev.peFree = growF(ev.peFree, p.NumPEs())
	return res, nil
}

// place list-schedules tasks into res one at a time, each on its decided
// PE at the earliest time both the PE and its inputs allow. With replay
// nil it is the full path: the next task is the ready set's, and the pop
// order is recorded in ev.seq. Otherwise it places the tasks of replay in
// that order — the delta path's suffix. Both paths share this one loop
// body, so they run the same float operations in the same order.
func (ev *Evaluator) place(g *taskgraph.Graph, priority []int, decisions []TaskDecision, comm CommModel, res *Result, replay []int32) error {
	n := g.NumTasks()
	adj := g.Adjacency()
	steps := len(replay)
	if replay == nil {
		steps = n
		ev.seq = growI32(ev.seq, n)[:0]
		ev.indeg = growI32(ev.indeg, n)
		ev.ready.reset(n)
		for t := 0; t < n; t++ {
			ev.indeg[t] = int32(adj.PredStart[t+1] - adj.PredStart[t])
			if ev.indeg[t] == 0 {
				ev.ready.push(ev.pos[t])
			}
		}
	}
	for step := 0; step < steps; step++ {
		var t int
		if replay != nil {
			t = int(replay[step])
		} else {
			at := ev.ready.pop()
			if at < 0 {
				// Unreachable for valid DAGs: some task always becomes ready.
				return fmt.Errorf("schedule: deadlock — no eligible task (cyclic dependencies?)")
			}
			t = priority[at]
			ev.seq = append(ev.seq, int32(t))
		}
		d := &decisions[t]
		readyAt := 0.0
		for i := adj.PredStart[t]; i < adj.PredStart[t+1]; i++ {
			pr := adj.Pred[i]
			at := res.EndUS[pr]
			if comm.enabled() && decisions[pr].PE != d.PE {
				at += comm.Delay(adj.PredKB[i])
			}
			if at > readyAt {
				readyAt = at
			}
		}
		start := laterOf(readyAt, ev.peFree[d.PE])
		end := start + d.Metrics.AvgExTimeUS
		res.StartUS[t] = start
		res.EndUS[t] = end
		ev.peFree[d.PE] = end
		res.PEBusyUS[d.PE] += d.Metrics.AvgExTimeUS
		if replay == nil {
			for _, s := range adj.Succ[adj.SuccStart[t]:adj.SuccStart[t+1]] {
				ev.indeg[s]--
				if ev.indeg[s] == 0 {
					ev.ready.push(ev.pos[s])
				}
			}
		}
	}
	return nil
}

// RunWithCommCapture is RunWithComm that optionally records the replay
// artifact — the pop order and the per-task times — into capture, whose
// buffers are overwritten (capacity reused). Passing nil capture is exactly
// RunWithComm.
func (ev *Evaluator) RunWithCommCapture(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision, comm CommModel, capture *SeqTimes) (*Result, error) {
	res, err := ev.prep(g, p, priority, decisions, nil)
	if err != nil {
		return nil, err
	}
	if err := ev.place(g, priority, decisions, comm, res, nil); err != nil {
		return nil, err
	}
	if capture != nil {
		capture.Seq = append(capture.Seq[:0], ev.seq...)
		capture.StartUS = append(capture.StartUS[:0], res.StartUS...)
		capture.EndUS = append(capture.EndUS[:0], res.EndUS...)
	}
	ev.finish(g, p, decisions, res, ev.seq)
	return res, nil
}

// RunWithCommDelta re-evaluates a schedule that differs from a previously
// captured run only at tasks with changed[t] set, for the same graph and
// the same priority permutation. The list scheduler's pop sequence depends
// only on (graph, priority) — "among ready tasks, the one earliest in
// priority order" never consults decisions or times — so prev.Seq is
// replayed directly: pops before the first changed task copy the captured
// start/end times bit for bit (re-deriving the per-PE free times and busy
// sums in the same order), later pops recompute with the operation
// sequence of RunWithCommCapture. The result is bit-identical to a full
// run on the same inputs. Only the changed decisions are validated: the
// others must be the captured run's, which passed validation then.
// capture, when non-nil, records the new times; its Seq aliases prev.Seq.
func (ev *Evaluator) RunWithCommDelta(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision, comm CommModel, prev *SeqTimes, changed []bool, capture *SeqTimes) (*Result, error) {
	n := g.NumTasks()
	if len(changed) != n {
		return nil, fmt.Errorf("schedule: changed mask has %d entries, want %d", len(changed), n)
	}
	res, err := ev.prep(g, p, priority, decisions, changed)
	if err != nil {
		return nil, err
	}
	if len(prev.Seq) != n || len(prev.StartUS) != n || len(prev.EndUS) != n {
		return nil, fmt.Errorf("schedule: replay state for %d tasks, want %d", len(prev.Seq), n)
	}
	k := n
	for i, t := range prev.Seq {
		if changed[t] {
			k = i
			break
		}
	}
	// Prefix replay: decisions are unchanged up to pop k, so the captured
	// times are the times; per-PE free times and busy sums re-accumulate in
	// pop order, reproducing the full run's intermediate state bit for bit.
	for i := 0; i < k; i++ {
		t := int(prev.Seq[i])
		d := &decisions[t]
		end := prev.EndUS[t]
		res.StartUS[t] = prev.StartUS[t]
		res.EndUS[t] = end
		ev.peFree[d.PE] = end
		res.PEBusyUS[d.PE] += d.Metrics.AvgExTimeUS
	}
	// Affected suffix: recompute with the exact operation sequence of the
	// full path, iterating the replayed pop order instead of the ready set.
	// The suffix is non-nil even when empty (prev.Seq holds n ≥ 1 tasks),
	// and place never fails on a replay.
	_ = ev.place(g, priority, decisions, comm, res, prev.Seq[k:])
	if capture != nil {
		capture.Seq = prev.Seq
		capture.StartUS = append(capture.StartUS[:0], res.StartUS...)
		capture.EndUS = append(capture.EndUS[:0], res.EndUS...)
	}
	ev.finish(g, p, decisions, res, prev.Seq)
	return res, nil
}

// finish derives the Eq. 1–4 aggregates from the scheduled times — the
// shared epilogue of the full and delta paths. seq is the run's pop order.
// The reductions in ev.Skip are left out and read NaN.
func (ev *Evaluator) finish(g *taskgraph.Graph, p *platform.Platform, decisions []TaskDecision, res *Result, seq []int32) {
	n := g.NumTasks()

	// Eq. 1 — average makespan.
	for _, e := range res.EndUS {
		if e > res.MakespanUS {
			res.MakespanUS = e
		}
	}

	// Eq. 3 — criticality-weighted functional reliability.
	zeta := g.NormalizedCriticality()
	for t := 0; t < n; t++ {
		res.FunctionalRel += (1 - decisions[t].Metrics.ErrProb) * zeta[t]
	}
	res.ErrProb = 1 - res.FunctionalRel

	// Eq. 2 — lifetime reliability: damage accumulation per period on each
	// PE, system MTTF is the minimum over loaded PEs.
	if ev.Skip&AggMTTF != 0 {
		res.MTTFHours = math.NaN()
	} else {
		res.MTTFHours = math.Inf(1)
		ev.damage = growF(ev.damage, p.NumPEs()) // Σ AvgExT_t / MTTF_(t,i,p), µs/hour
		for t := 0; t < n; t++ {
			d := &decisions[t]
			ev.damage[d.PE] += d.Metrics.AvgExTimeUS / d.Metrics.MTTFHours
		}
		for pe := range ev.damage {
			if ev.damage[pe] == 0 {
				continue
			}
			mttf := g.PeriodUS / ev.damage[pe]
			if mttf < res.MTTFHours {
				res.MTTFHours = mttf
			}
		}
	}

	// Eq. 4 — total energy in task order, then peak power as a sweep over
	// the start/end events, listed in pop order and sorted.
	if ev.Skip&AggEnergy != 0 {
		res.EnergyUJ = math.NaN()
	} else {
		for t := 0; t < n; t++ {
			res.EnergyUJ += decisions[t].Metrics.AvgExTimeUS * decisions[t].Metrics.PowerW
		}
	}
	if ev.Skip&AggPeakPower != 0 {
		res.PeakPowerW = math.NaN()
		return
	}
	if cap(ev.events) < 2*n {
		ev.events = make([]powerEvent, 0, 2*n)
	}
	ev.events = ev.events[:0]
	for _, t := range seq {
		w := decisions[t].Metrics.PowerW
		ev.events = append(ev.events,
			powerEvent{at: res.StartUS[t], delta: w},
			powerEvent{at: res.EndUS[t], delta: -w},
		)
	}
	cur := 0.0
	for _, e := range ev.sortEvents() {
		cur += e.delta
		if cur > res.PeakPowerW {
			res.PeakPowerW = cur
		}
	}
}
