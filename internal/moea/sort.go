package moea

import (
	"math"
	"slices"
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
	// from, for delta evaluation. The engines clear it once the child's
	// fate is settled, so retired parents are not retained across
	// generations.
	parent *solution
	// delta is the opaque replay state a DeltaEvaluator returned for this
	// solution's exact evaluation (nil if none).
	delta any
	// archived marks a member of the external archive. survived marks a
	// member of the next NSGA-II population while selection retires the
	// union members that have neither mark.
	archived, survived bool
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
// scratch (Agnostic runs its layer stages concurrently), and the
// [][]*solution views returned by nonDominatedSort are valid until the
// next call on the same scratch.
type selScratch struct {
	order []int   // population indices in ENS presort order (general path)
	bi    []biKey // flat presort keys (two-objective path)
	// frontIdx holds the fronts in presort order, reused call to call:
	// population indices on the general path, positions in bi on the
	// two-objective path.
	frontIdx [][]int
	nFronts  int
	emitAt   []int      // each solution's position in its emitted front, by pop index
	packed   []uint64   // one front's (key, pop index) emission-order keys
	win      []winEntry // sliding-window deque of the two-objective rebuild
	fronts   [][]*solution
	cv       []crowdKey // crowding's per-objective sort buffer
	idx      []int      // archive truncation index buffer
	buf      []*solution

	nanos int64 // accumulated kernel time, flushed by the run
}

// biKey is one solution's presort key on the two-objective path:
// violation, both objectives and the population index, copied flat out of
// the solution so the sort and the front tests read no pointers.
type biKey struct {
	v, o0, o1 float64
	i         int
}

// winEntry is one sliding-window candidate: a position t in the previous
// front's presort order and that member's emission position e.
type winEntry struct{ t, e int }

// crowdKey is one front member's value in the objective being swept.
type crowdKey struct {
	v float64
	i int
}

// cmpLess maps a strict comparison to a comparator result. Every comparator
// below returns a negative value exactly when the sort.Interface Less it
// replaced returned true: slices.SortFunc and sort.Sort run the same
// pdqsort and test only that sign, so they produce the same permutation,
// ties and NaN included.
func cmpLess(less bool) int {
	if less {
		return -1
	}
	return 1
}

// cmpFloat orders a before b exactly when a < b.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// grow returns buf resized to n, reallocating only on growth.
func grow[E any](buf []E, n int) []E {
	if cap(buf) < n {
		return make([]E, n, n+n/2)
	}
	return buf[:n]
}

// nonDominatedSort assigns Pareto ranks (0 = best) and returns the fronts
// in rank order. It is an ENS-style efficient non-dominated sort: the
// population is presorted so that every dominator precedes what it
// dominates, each solution then binary-searches the front list for the
// first front none of whose members dominates it. Ranks equal the classic
// fast non-dominated sort's by the longest-dominance-chain
// characterization, and a rebuild pass restores that algorithm's exact
// within-front emission order, so fronts are byte-identical to the
// textbook O(MN²) implementation this replaced (see DESIGN.md §13 for the
// equivalence argument).
//
// Populations with two objectives, no NaN and no negative violation take
// an exact fast path (sortBi) with an O(1) front test and a linear
// emission-order rebuild; all others take the general path (sortENS).
func (sc *selScratch) nonDominatedSort(pop []*solution) [][]*solution {
	start := time.Now()
	sc.emitAt = grow(sc.emitAt, len(pop))
	sc.nFronts = 0
	if sc.flatKeys(pop) {
		sc.sortBi(pop)
	} else {
		sc.sortENS(pop)
	}
	sc.nanos += time.Since(start).Nanoseconds()
	return sc.fronts
}

// place appends member x to front r, opening a new front when r is one
// past the last.
func (sc *selScratch) place(r, x int) {
	if r == sc.nFronts {
		if len(sc.frontIdx) == sc.nFronts {
			sc.frontIdx = append(sc.frontIdx, nil)
		}
		sc.frontIdx[r] = sc.frontIdx[r][:0]
		sc.nFronts++
	}
	sc.frontIdx[r] = append(sc.frontIdx[r], x)
}

// sizeFronts readies sc.fronts for nFronts fronts, keeping the backing
// arrays of the fronts it already holds.
func (sc *selScratch) sizeFronts() {
	if cap(sc.fronts) < sc.nFronts {
		fronts := make([][]*solution, sc.nFronts, sc.nFronts+4)
		copy(fronts, sc.fronts[:cap(sc.fronts)])
		sc.fronts = fronts
	}
	sc.fronts = sc.fronts[:sc.nFronts]
}

// pack builds a front's emission sort key: the rebuild key in the high 32
// bits, the population index in the low ones, so a plain integer sort
// orders by (key, index).
func pack(key, i int) uint64 { return uint64(key)<<32 | uint64(i) }

// emit writes front r in the order of its packed (key, pop index) entries
// and records each member's emission position for the next front's keys.
// Front 0 is emitted in ascending population index. A member j of front
// r+1 is emitted the moment its last front-r dominator (in front r's
// emission order) is processed, with simultaneous emissions tie-broken by
// ascending index — i.e. front r+1 sorts by (position of j's
// latest-emitted rank-r dominator, j). The keys are distinct, so the order
// does not depend on the sorting algorithm.
func (sc *selScratch) emit(pop []*solution, r int, packed []uint64) {
	slices.Sort(packed)
	out := sc.fronts[r][:0]
	for t, x := range packed {
		i := int(x & (1<<32 - 1))
		sc.emitAt[i] = t
		out = append(out, pop[i])
	}
	sc.fronts[r] = out
	sc.packed = packed[:0]
}

// sortENS is the general path. The presort orders population indices by
// feasibility class (feasible, infeasible, NaN violation), infeasible
// members by violation ascending, then objectives lexicographically, then
// index: a solution that constraint-dominates another strictly precedes
// it, and the index breaks every tie. A negative violation is infeasible,
// so it follows the feasible members that dominate it; a NaN violation is
// dominated by every feasible member and incomparable to every infeasible
// one, so it may go anywhere after the feasible members, and goes last.
// Each solution's front test scans the candidate front's members
// newest-first with early exit, and the rebuild finds each member's key
// by scanning the previous front's emission order from the back.
func (sc *selScratch) sortENS(pop []*solution) {
	sc.order = grow(sc.order, len(pop))
	for i := range sc.order {
		sc.order[i] = i
	}
	slices.SortFunc(sc.order, func(a, b int) int {
		ea, eb := &pop[a].eval, &pop[b].eval
		if va, vb := ea.Violation, eb.Violation; va != vb {
			ca, cb := violationClass(va), violationClass(vb)
			if ca != cb {
				return ca - cb
			}
			if ca == 1 {
				return cmpLess(va < vb)
			}
		}
		for k := range ea.Objectives {
			if ea.Objectives[k] != eb.Objectives[k] {
				return cmpLess(ea.Objectives[k] < eb.Objectives[k])
			}
		}
		return a - b
	})

	// Sorted insertion: find each solution's front by binary search.
	// A solution dominated by some member of front k is dominated by a
	// member of every front before k (transitivity down the dominance
	// chain), so "first front that does not dominate s" is a monotone
	// search target.
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
		sc.place(lo, i)
		s.rank = lo
	}

	sc.sizeFronts()
	for r, f := range sc.frontIdx[:sc.nFronts] {
		packed := sc.packed[:0]
		for _, j := range f {
			key := 0
			if r > 0 {
				prev := sc.fronts[r-1]
				for t := len(prev) - 1; t >= 0; t-- {
					if constrainedDominates(prev[t], pop[j]) {
						key = t
						break
					}
				}
			}
			packed = append(packed, pack(key, j))
		}
		sc.emit(pop, r, packed)
	}
}

// violationClass ranks a violation for the general presort: 0 feasible,
// 1 infeasible, 2 NaN.
func violationClass(v float64) int {
	switch {
	case v == 0:
		return 0
	case math.IsNaN(v):
		return 2
	}
	return 1
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

// flatKeys fills sc.bi with the population's presort keys and reports
// whether it qualifies for the two-objective path: every solution has
// exactly two objectives, neither NaN, and a violation that is neither NaN
// nor negative. Without NaN the keys are totally ordered, and with
// violations ≥ 0 every feasible key precedes every infeasible one.
func (sc *selScratch) flatKeys(pop []*solution) bool {
	bi := sc.bi[:0]
	for i, s := range pop {
		o, v := s.eval.Objectives, s.eval.Violation
		if len(o) != 2 || math.IsNaN(o[0]) || math.IsNaN(o[1]) || !(v >= 0) {
			sc.bi = bi
			return false
		}
		bi = append(bi, biKey{v, o[0], o[1], i})
	}
	sc.bi = bi
	return true
}

// cmpBiKey is the presort order of the two-objective path: violation, o0,
// o1, index. The keys are distinct, so the order is unique.
func cmpBiKey(a, b biKey) int {
	switch {
	case a.v != b.v:
		return cmpLess(a.v < b.v)
	case a.o0 != b.o0:
		return cmpLess(a.o0 < b.o0)
	case a.o1 != b.o1:
		return cmpLess(a.o1 < b.o1)
	}
	return a.i - b.i
}

// biDominates is constrainedDominates on flat keys.
func biDominates(a, b *biKey) bool {
	af, bf := a.v == 0, b.v == 0
	switch {
	case af != bf:
		return af
	case !af:
		return a.v < b.v
	}
	return a.o0 <= b.o0 && a.o1 <= b.o1 && (a.o0 < b.o0 || a.o1 < b.o1)
}

// sortBi is the two-objective path; flatKeys has filled sc.bi.
//
// Front test: in presort order the members of a front are mutually
// non-dominated, so o0 never falls and o1 never rises along it. A feasible
// newcomer s follows every member, so each member's o0 is ≤ s's; the
// newest member has the smallest o1, and so it dominates s whenever any
// member does. Infeasible points follow every feasible one and share a
// front only at equal violation, so the newest member decides there too.
//
// Rebuild: the front-r dominators of a feasible member j of front r+1
// are the members with o0 ≤ j.o0 (a prefix of front r) and o1 ≤ j.o1 (a
// suffix) — a contiguous run, and no member of front r duplicates j. As
// j walks front r+1 in presort order both ends of the run only move
// forward, so a monotone deque yields each j's latest-emitted dominator in
// O(|front r| + |front r+1|). An infeasible front's predecessor dominates
// all of it, so every key is len(prev)-1 and the front emits by index.
func (sc *selScratch) sortBi(pop []*solution) {
	bi := sc.bi
	slices.SortFunc(bi, cmpBiKey)
	for p := range bi {
		k := &bi[p]
		lo, hi := 0, sc.nFronts
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			f := sc.frontIdx[mid]
			if biDominates(&bi[f[len(f)-1]], k) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		sc.place(lo, p)
		pop[k.i].rank = lo
	}

	sc.sizeFronts()
	for r, f := range sc.frontIdx[:sc.nFronts] {
		packed := sc.packed[:0]
		if r == 0 || bi[f[0]].v != 0 {
			for _, p := range f {
				packed = append(packed, uint64(bi[p].i))
			}
		} else {
			packed = sc.windowKeys(packed, sc.frontIdx[r-1], f)
		}
		sc.emit(pop, r, packed)
	}
}

// windowKeys appends the packed emission keys of the feasible front f,
// whose predecessor prev has been emitted; both hold positions in sc.bi in
// presort order. The deque holds prev positions in [a, b) with falling
// emission positions, so its head is the window's latest-emitted member.
func (sc *selScratch) windowKeys(packed []uint64, prev, f []int) []uint64 {
	bi, win := sc.bi, sc.win[:0]
	head, a, b := 0, 0, 0
	for _, p := range f {
		j := &bi[p]
		for ; b < len(prev) && bi[prev[b]].o0 <= j.o0; b++ {
			e := sc.emitAt[bi[prev[b]].i]
			for len(win) > head && win[len(win)-1].e < e {
				win = win[:len(win)-1]
			}
			win = append(win, winEntry{b, e})
		}
		for bi[prev[a]].o1 > j.o1 {
			a++
		}
		for win[head].t < a {
			head++
		}
		packed = append(packed, pack(win[head].e, j.i))
	}
	sc.win = win
	return packed
}

// assignCrowding computes NSGA-II crowding distances within one front,
// reusing the scratch buffer across calls. Each objective's sweep sorts
// flat (value, member) pairs; the comparator sees the same values at the
// same positions as one over member indices would, so the permutation —
// and therefore which of several objective-tied members lands on the Inf
// boundary — is the same.
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
	sc.cv = grow(sc.cv, n)
	cv := sc.cv
	for obj := 0; obj < m; obj++ {
		for i, s := range front {
			cv[i] = crowdKey{s.eval.Objectives[obj], i}
		}
		slices.SortFunc(cv, func(a, b crowdKey) int { return cmpFloat(a.v, b.v) })
		front[cv[0].i].crowd = math.Inf(1)
		front[cv[n-1].i].crowd = math.Inf(1)
		span := cv[n-1].v - cv[0].v
		if span == 0 {
			continue
		}
		for k := 1; k < n-1; k++ {
			front[cv[k].i].crowd += (cv[k+1].v - cv[k-1].v) / span
		}
	}
	sc.nanos += time.Since(start).Nanoseconds()
}

// rankAndCrowd refreshes ranks and crowding distances of the population so
// the next generation's tournaments compare on current information.
func (sc *selScratch) rankAndCrowd(pop []*solution) {
	for _, f := range sc.nonDominatedSort(pop) {
		sc.assignCrowding(f)
	}
}

// byCrowdDesc orders solutions by crowding distance, descending — the
// partial-front cut of environmental selection.
func byCrowdDesc(a, b *solution) int { return cmpFloat(b.crowd, a.crowd) }

// better is the NSGA-II crowded-comparison operator: lower rank wins,
// ties broken by larger crowding distance.
func better(a, b *solution) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.crowd > b.crowd
}
