package moea

import (
	"math"
	"sort"
	"time"

	"repro/internal/pareto"
)

// solution pairs a genome with its evaluation during the GA run.
type solution struct {
	genome *Genome
	eval   Evaluation
	rank   int
	crowd  float64
	// parent links an offspring to the solution its genome was derived
	// from, for delta evaluation; evaluate clears it so retired parents
	// are not retained across generations.
	parent *solution
	// delta is the opaque replay state a DeltaEvaluator returned for this
	// solution's exact evaluation (nil if none).
	delta any
}

// constrainedDominates implements constraint-domination (Deb): a feasible
// solution dominates any infeasible one; two infeasible solutions compare
// by violation; two feasible solutions compare by Pareto dominance. The
// relation is a strict partial order (irreflexive, transitive), which is
// what lets the ENS sort below binary-search over fronts.
func constrainedDominates(a, b *solution) bool {
	af, bf := a.eval.Violation == 0, b.eval.Violation == 0
	switch {
	case af && !bf:
		return true
	case !af && bf:
		return false
	case !af && !bf:
		return a.eval.Violation < b.eval.Violation
	default:
		return pareto.Dominates(a.eval.Objectives, b.eval.Objectives)
	}
}

// selScratch owns the reusable buffers of one run's selection kernels:
// non-dominated sorting, crowding assignment and front ordering all work
// out of these slices, so the per-generation selection path allocates only
// when a population outgrows every previous one. Each engine run owns its
// scratch (islands run engines concurrently), and the [][]*solution views
// returned by nonDominatedSort are valid until the next call on the same
// scratch.
type selScratch struct {
	order    []int   // population indices in ENS presort order
	keys     []int   // order-reconstruction keys, indexed by pop index
	frontIdx [][]int // fronts as pop indices, reused call to call
	fronts   [][]*solution
	nFronts  int
	idx      []int // crowding / truncation index buffer
	buf      []*solution

	lex  lexSorter
	cobj crowdObjSorter
	key  keyedSorter

	nanos int64 // accumulated kernel time, flushed by the run
}

// lexSorter orders population indices so that any solution that
// constraint-dominates another strictly precedes it: violation ascending,
// then objectives lexicographically, then index. All keys are distinct
// (the index breaks every tie), so the sorted order is unique regardless
// of sorting algorithm.
type lexSorter struct {
	pop []*solution
	idx []int
}

func (s *lexSorter) Len() int      { return len(s.idx) }
func (s *lexSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *lexSorter) Less(i, j int) bool {
	a, b := s.pop[s.idx[i]], s.pop[s.idx[j]]
	if a.eval.Violation != b.eval.Violation {
		return a.eval.Violation < b.eval.Violation
	}
	ao, bo := a.eval.Objectives, b.eval.Objectives
	for k := range ao {
		if ao[k] != bo[k] {
			return ao[k] < bo[k]
		}
	}
	return s.idx[i] < s.idx[j]
}

// crowdObjSorter orders front-member indices by one objective, ascending —
// the per-objective sweep of crowding assignment. It is the concrete
// sort.Interface replacement for the former sort.Slice closure; both run
// the same pdqsort, so the permutation (and therefore which of several
// objective-tied members lands on the Inf boundary) is unchanged.
type crowdObjSorter struct {
	front []*solution
	idx   []int
	obj   int
}

func (s *crowdObjSorter) Len() int      { return len(s.idx) }
func (s *crowdObjSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *crowdObjSorter) Less(i, j int) bool {
	return s.front[s.idx[i]].eval.Objectives[s.obj] < s.front[s.idx[j]].eval.Objectives[s.obj]
}

// keyedSorter orders indices by (key ascending, index ascending) — the
// front-order reconstruction sort. Composite keys are distinct, so the
// result is algorithm-independent.
type keyedSorter struct {
	idx  []int
	keys []int
}

func (s *keyedSorter) Len() int      { return len(s.idx) }
func (s *keyedSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *keyedSorter) Less(i, j int) bool {
	a, b := s.idx[i], s.idx[j]
	if s.keys[a] != s.keys[b] {
		return s.keys[a] < s.keys[b]
	}
	return a < b
}

// grow returns buf resized to n, reallocating only on growth.
func grow(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n, n+n/2)
	}
	return buf[:n]
}

// nonDominatedSort assigns Pareto ranks (0 = best) and returns the fronts
// in rank order. It is an ENS-style efficient non-dominated sort: the
// population is presorted so that every dominator precedes what it
// dominates, each solution then binary-searches the front list and is
// checked only against members of candidate fronts (scanned newest-first
// with early exit). Ranks equal the classic fast non-dominated sort's by
// the longest-dominance-chain characterization, and a reconstruction pass
// restores that algorithm's exact within-front emission order, so fronts
// are byte-identical to the textbook O(MN²) implementation this replaced
// (see DESIGN.md §13 for the equivalence argument).
func (sc *selScratch) nonDominatedSort(pop []*solution) [][]*solution {
	start := time.Now()
	n := len(pop)
	sc.order = grow(sc.order, n)
	sc.keys = grow(sc.keys, n)
	for i := range sc.order {
		sc.order[i] = i
	}
	sc.lex.pop, sc.lex.idx = pop, sc.order
	sort.Sort(&sc.lex)
	sc.lex.pop = nil

	// Sorted insertion: find each solution's front by binary search.
	// A solution dominated by some member of front k is dominated by a
	// member of every front before k (transitivity down the dominance
	// chain), so "first front that does not dominate s" is a monotone
	// search target.
	sc.nFronts = 0
	for _, i := range sc.order {
		s := pop[i]
		lo, hi := 0, sc.nFronts
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if frontDominates(pop, sc.frontIdx[mid], s) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == sc.nFronts {
			if len(sc.frontIdx) == sc.nFronts {
				sc.frontIdx = append(sc.frontIdx, nil)
			}
			sc.frontIdx[sc.nFronts] = sc.frontIdx[sc.nFronts][:0]
			sc.nFronts++
		}
		sc.frontIdx[lo] = append(sc.frontIdx[lo], i)
		s.rank = lo
	}

	// Reconstruct the fast non-dominated sort's emission order. Front 0 is
	// emitted in ascending population index. A member j of front r+1 is
	// emitted the moment its last front-r dominator (in front r's emission
	// order) is processed, with simultaneous emissions tie-broken by
	// ascending index — i.e. front r+1 sorts by (position of j's
	// latest-emitted rank-r dominator, j).
	for r := 0; r < sc.nFronts; r++ {
		f := sc.frontIdx[r]
		if r == 0 {
			sort.Ints(f)
			continue
		}
		prev := sc.frontIdx[r-1]
		for _, j := range f {
			s := pop[j]
			for t := len(prev) - 1; t >= 0; t-- {
				if constrainedDominates(pop[prev[t]], s) {
					sc.keys[j] = t
					break
				}
			}
		}
		sc.key.idx, sc.key.keys = f, sc.keys
		sort.Sort(&sc.key)
		sc.key.idx = nil
	}

	if cap(sc.fronts) < sc.nFronts {
		fronts := make([][]*solution, sc.nFronts, sc.nFronts+4)
		copy(fronts, sc.fronts[:cap(sc.fronts)])
		sc.fronts = fronts
	}
	sc.fronts = sc.fronts[:sc.nFronts]
	for r, f := range sc.frontIdx[:sc.nFronts] {
		out := sc.fronts[r][:0]
		for _, i := range f {
			out = append(out, pop[i])
		}
		sc.fronts[r] = out
	}
	sc.nanos += time.Since(start).Nanoseconds()
	return sc.fronts
}

// frontDominates reports whether any member of the front (given as pop
// indices) constraint-dominates s, scanning newest members first — in the
// presorted insertion order, the most recently inserted front members are
// the closest to s and the likeliest dominators.
func frontDominates(pop []*solution, front []int, s *solution) bool {
	for t := len(front) - 1; t >= 0; t-- {
		if constrainedDominates(pop[front[t]], s) {
			return true
		}
	}
	return false
}

// assignCrowding computes NSGA-II crowding distances within one front,
// reusing the scratch index buffer across calls.
func (sc *selScratch) assignCrowding(front []*solution) {
	start := time.Now()
	n := len(front)
	if n == 0 {
		return
	}
	for _, s := range front {
		s.crowd = 0
	}
	if n <= 2 {
		for _, s := range front {
			s.crowd = math.Inf(1)
		}
		sc.nanos += time.Since(start).Nanoseconds()
		return
	}
	m := len(front[0].eval.Objectives)
	sc.idx = grow(sc.idx, n)
	idx := sc.idx
	sc.cobj.front, sc.cobj.idx = front, idx
	for obj := 0; obj < m; obj++ {
		for i := range idx {
			idx[i] = i
		}
		sc.cobj.obj = obj
		sort.Sort(&sc.cobj)
		lo := front[idx[0]].eval.Objectives[obj]
		hi := front[idx[n-1]].eval.Objectives[obj]
		front[idx[0]].crowd = math.Inf(1)
		front[idx[n-1]].crowd = math.Inf(1)
		span := hi - lo
		if span == 0 {
			continue
		}
		for k := 1; k < n-1; k++ {
			prev := front[idx[k-1]].eval.Objectives[obj]
			next := front[idx[k+1]].eval.Objectives[obj]
			front[idx[k]].crowd += (next - prev) / span
		}
	}
	sc.cobj.front = nil
	sc.nanos += time.Since(start).Nanoseconds()
}

// rankAndCrowd refreshes ranks and crowding distances of the population so
// the next generation's tournaments compare on current information.
func (sc *selScratch) rankAndCrowd(pop []*solution) {
	for _, f := range sc.nonDominatedSort(pop) {
		sc.assignCrowding(f)
	}
}

// nonDominatedSort / assignCrowding / rankAndCrowd on a throwaway scratch —
// the standalone entry points used by tests and one-shot callers.
func nonDominatedSort(pop []*solution) [][]*solution {
	return new(selScratch).nonDominatedSort(pop)
}

func assignCrowding(front []*solution) {
	new(selScratch).assignCrowding(front)
}

func rankAndCrowd(pop []*solution) {
	new(selScratch).rankAndCrowd(pop)
}

// crowdDescSorter orders solutions by crowding distance, descending — the
// partial-front cut of environmental selection. Like crowdObjSorter it
// must stay permutation-identical to the sort.Slice closure it replaced.
type crowdDescSorter []*solution

func (s crowdDescSorter) Len() int           { return len(s) }
func (s crowdDescSorter) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func (s crowdDescSorter) Less(i, j int) bool { return s[i].crowd > s[j].crowd }

// better is the NSGA-II crowded-comparison operator: lower rank wins,
// ties broken by larger crowding distance.
func better(a, b *solution) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.crowd > b.crowd
}
