package schedule

import (
	"fmt"
	"math"

	"repro/internal/platform"
	"repro/internal/taskgraph"
)

// Evaluator holds the working set of one list-scheduling evaluation — the
// Result buffers, the per-PE and per-task bookkeeping arrays, the ready
// queue, the pop sequence and the power-event lists — so repeated
// evaluations of the same graph/platform shape reuse storage instead of
// allocating it. One
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
	done   []bool
	peFree []float64
	indeg  []int32
	pos    []int32 // task → position in the priority permutation
	heap   []int32 // min-heap of positions of ready tasks
	seq    []int32 // pop order of the last full run
	events []powerEvent
	merge  []powerEvent // merge target of the power-event sort
	damage []float64

	// edgeKB caches the dependency data volumes of edgeGraph for the
	// communication model; rebuilt only when the graph changes.
	edgeKB    map[[2]int]float64
	edgeGraph *taskgraph.Graph
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

// heapPush adds a ready task's priority position to the min-heap.
func (ev *Evaluator) heapPush(p int32) {
	h := append(ev.heap, p)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	ev.heap = h
}

// heapPop removes and returns the smallest priority position.
func (ev *Evaluator) heapPop() int32 {
	h := ev.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	ev.heap = h
	return top
}

// SeqTimes is the replay artifact of one schedule evaluation: the tasks in
// scheduling (pop) order plus every task's start and end time, the state
// RunWithCommDelta needs to reuse a neighbor schedule's prefix. Seq depends
// only on the graph and the priority permutation — never on the decisions —
// while StartUS/EndUS are task-indexed times of the captured run. Captured
// values may be shared between evaluations and must be treated as
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
// set is tracked by predecessor counts and a priority-position min-heap, so
// each scheduling step costs O(log n) instead of rescanning the priority
// list — same task order as the rescan ("among eligible tasks, the one
// earliest in priority order"), identical floats.
func (ev *Evaluator) RunWithComm(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision, comm CommModel) (*Result, error) {
	return ev.RunWithCommCapture(g, p, priority, decisions, comm, nil)
}

// prep validates the inputs and resets the result and per-PE buffers — the
// shared prologue of the full and delta scheduling paths, so both report
// identical errors and start from identical state.
func (ev *Evaluator) prep(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision, comm CommModel) (*Result, error) {
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

	if comm.enabled() && ev.edgeGraph != g {
		if ev.edgeKB == nil {
			ev.edgeKB = make(map[[2]int]float64, len(g.Edges()))
		} else {
			clear(ev.edgeKB)
		}
		for _, e := range g.Edges() {
			ev.edgeKB[[2]int{e.From, e.To}] = e.DataKB
		}
		ev.edgeGraph = g
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

// RunWithCommCapture is RunWithComm that optionally records the replay
// artifact — the pop order and the per-task times — into capture, whose
// buffers are overwritten (capacity reused). Passing nil capture is exactly
// RunWithComm.
func (ev *Evaluator) RunWithCommCapture(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision, comm CommModel, capture *SeqTimes) (*Result, error) {
	n := g.NumTasks()
	res, err := ev.prep(g, p, priority, decisions, comm)
	if err != nil {
		return nil, err
	}
	seq := growI32(ev.seq, n)[:0]
	ev.indeg = growI32(ev.indeg, n)
	ev.heap = ev.heap[:0]
	for t := 0; t < n; t++ {
		ev.indeg[t] = int32(len(g.Preds(t)))
		if ev.indeg[t] == 0 {
			ev.heapPush(ev.pos[t])
		}
	}
	scheduled := 0
	for len(ev.heap) > 0 {
		t := priority[ev.heapPop()]
		seq = append(seq, int32(t))
		d := &decisions[t]
		readyAt := 0.0
		for _, pr := range g.Preds(t) {
			at := res.EndUS[pr]
			if comm.enabled() && decisions[pr].PE != d.PE {
				at += comm.Delay(ev.edgeKB[[2]int{pr, t}])
			}
			if at > readyAt {
				readyAt = at
			}
		}
		start := math.Max(readyAt, ev.peFree[d.PE])
		end := start + d.Metrics.AvgExTimeUS
		res.StartUS[t] = start
		res.EndUS[t] = end
		ev.peFree[d.PE] = end
		res.PEBusyUS[d.PE] += d.Metrics.AvgExTimeUS
		scheduled++
		for _, s := range g.Succs(t) {
			ev.indeg[s]--
			if ev.indeg[s] == 0 {
				ev.heapPush(ev.pos[s])
			}
		}
	}
	if scheduled < n {
		// Unreachable for valid DAGs: some task always becomes ready.
		return nil, fmt.Errorf("schedule: deadlock — no eligible task (cyclic dependencies?)")
	}
	ev.seq = seq
	if capture != nil {
		capture.Seq = append(capture.Seq[:0], seq...)
		capture.StartUS = append(capture.StartUS[:0], res.StartUS...)
		capture.EndUS = append(capture.EndUS[:0], res.EndUS...)
	}
	ev.finish(g, p, decisions, res, seq)
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
// run on the same inputs. capture, when non-nil, records the new times;
// its Seq aliases prev.Seq.
func (ev *Evaluator) RunWithCommDelta(g *taskgraph.Graph, p *platform.Platform, priority []int, decisions []TaskDecision, comm CommModel, prev *SeqTimes, changed []bool, capture *SeqTimes) (*Result, error) {
	n := g.NumTasks()
	res, err := ev.prep(g, p, priority, decisions, comm)
	if err != nil {
		return nil, err
	}
	if len(prev.Seq) != n || len(prev.StartUS) != n || len(prev.EndUS) != n {
		return nil, fmt.Errorf("schedule: replay state for %d tasks, want %d", len(prev.Seq), n)
	}
	if len(changed) != n {
		return nil, fmt.Errorf("schedule: changed mask has %d entries, want %d", len(changed), n)
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
	// full path, iterating the replayed pop order instead of the heap.
	for i := k; i < n; i++ {
		t := int(prev.Seq[i])
		d := &decisions[t]
		readyAt := 0.0
		for _, pr := range g.Preds(t) {
			at := res.EndUS[pr]
			if comm.enabled() && decisions[pr].PE != d.PE {
				at += comm.Delay(ev.edgeKB[[2]int{pr, t}])
			}
			if at > readyAt {
				readyAt = at
			}
		}
		start := math.Max(readyAt, ev.peFree[d.PE])
		end := start + d.Metrics.AvgExTimeUS
		res.StartUS[t] = start
		res.EndUS[t] = end
		ev.peFree[d.PE] = end
		res.PEBusyUS[d.PE] += d.Metrics.AvgExTimeUS
	}
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
