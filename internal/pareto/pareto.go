// Package pareto implements multi-objective dominance relations,
// Pareto-front filtering and hypervolume indicators.
//
// All objectives are treated as minimization objectives. Callers that
// maximize a quantity (e.g. lifetime reliability) should negate or invert it
// before handing vectors to this package — that convention matches the
// problem statement in the paper (Eq. 5), where every system-level metric is
// expressed in minimization form.
package pareto

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Dominates reports whether objective vector a Pareto-dominates b:
// a is no worse than b in every objective and strictly better in at least
// one. It panics if the vectors have different lengths.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: vector length mismatch %d vs %d", len(a), len(b)))
	}
	strictly := false
	for i := range a {
		switch {
		case a[i] > b[i]:
			return false
		case a[i] < b[i]:
			strictly = true
		}
	}
	return strictly
}

// WeaklyDominates reports whether a is no worse than b in every objective.
func WeaklyDominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("pareto: vector length mismatch %d vs %d", len(a), len(b)))
	}
	for i := range a {
		if a[i] > b[i] {
			return false
		}
	}
	return true
}

// Filter returns the indices of the non-dominated points among pts,
// in their original order. Duplicated points are kept once (the first
// occurrence survives). It panics if the points differ in length.
//
// The points without a NaN coordinate pass, in order, through a running
// set of the points no earlier one dominates or equals: a newcomer that a
// member weakly dominates is dropped, and otherwise it evicts the members
// it dominates and joins. Dominance is transitive and a member weakly
// dominates every point seen, so the set ends as the front, and a
// point costs at most two passes over the set (one until its first
// dominator when it is dropped) instead of one over all n points. NaN
// compares false both ways, so a coordinate that is NaN in either vector
// neither helps nor hurts dominance, and a vector with a NaN equals
// nothing; that relation is not transitive, so the NaN points are
// compared with every point directly, as the definition reads.
func Filter(pts [][]float64) []int {
	var nan []int
	front := make([]int, 0, len(pts))
scan:
	for i, p := range pts {
		if len(p) != len(pts[0]) {
			panic(fmt.Sprintf("pareto: vector length mismatch %d vs %d", len(pts[0]), len(p)))
		}
		if slices.ContainsFunc(p, math.IsNaN) {
			nan = append(nan, i)
			continue
		}
		for _, j := range front {
			if WeaklyDominates(pts[j], p) {
				continue scan
			}
		}
		n := 0
		for _, j := range front {
			if !Dominates(p, pts[j]) {
				front[n] = j
				n++
			}
		}
		front = append(front[:n], i)
	}
	if len(nan) > 0 {
		// Without NaN the front above is final; with NaN points, drop the
		// front members one of them dominates and add those no point
		// dominates.
		dominated := func(i int) bool {
			return slices.ContainsFunc(pts, func(q []float64) bool { return Dominates(q, pts[i]) })
		}
		front = slices.DeleteFunc(front, func(i int) bool {
			return slices.ContainsFunc(nan, func(j int) bool { return Dominates(pts[j], pts[i]) })
		})
		for _, i := range nan {
			if !dominated(i) {
				front = append(front, i)
			}
		}
		slices.Sort(front)
	}
	return front
}

// FilterPoints is like Filter but returns the surviving points themselves.
func FilterPoints(pts [][]float64) [][]float64 {
	idx := Filter(pts)
	out := make([][]float64, 0, len(idx))
	for _, i := range idx {
		out = append(out, pts[i])
	}
	return out
}

// Hypervolume computes the hypervolume (S-metric) of the given points with
// respect to the reference point ref: the Lebesgue measure of the region
// dominated by at least one point and bounded above by ref. Points that do
// not strictly dominate ref contribute nothing. All objectives minimize.
//
// The 2-D case runs in O(n log n); higher dimensions use a recursive
// slicing algorithm (adequate for the small fronts produced by the DSE).
func Hypervolume(pts [][]float64, ref []float64) float64 {
	if len(pts) == 0 {
		return 0
	}
	d := len(ref)
	// Keep only points strictly inside the reference box.
	var inside [][]float64
	for _, p := range pts {
		if len(p) != d {
			panic(fmt.Sprintf("pareto: point dimension %d, reference %d", len(p), d))
		}
		ok := true
		for i := range p {
			if p[i] >= ref[i] {
				ok = false
				break
			}
		}
		if ok {
			inside = append(inside, p)
		}
	}
	if len(inside) == 0 {
		return 0
	}
	inside = FilterPoints(inside)
	switch d {
	case 1:
		best := math.Inf(1)
		for _, p := range inside {
			if p[0] < best {
				best = p[0]
			}
		}
		return ref[0] - best
	case 2:
		return hv2D(inside, ref)
	default:
		return hvRecursive(inside, ref)
	}
}

// hv2D computes the exact 2-D hypervolume by sweeping points sorted on the
// first objective.
func hv2D(pts [][]float64, ref []float64) float64 {
	sorted := make([][]float64, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	hv := 0.0
	prevY := ref[1]
	for _, p := range sorted {
		if p[1] < prevY {
			hv += (ref[0] - p[0]) * (prevY - p[1])
			prevY = p[1]
		}
	}
	return hv
}

// hvRecursive slices the objective space on the last dimension and reduces
// each slab to a (d−1)-dimensional hypervolume computation.
func hvRecursive(pts [][]float64, ref []float64) float64 {
	d := len(ref)
	sorted := make([][]float64, len(pts))
	copy(sorted, pts)
	last := d - 1
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][last] < sorted[j][last] })
	hv := 0.0
	for i := range sorted {
		// Slab between this point's last coordinate and the next one's
		// (or the reference).
		hi := ref[last]
		if i+1 < len(sorted) {
			hi = sorted[i+1][last]
		}
		depth := hi - sorted[i][last]
		if depth <= 0 {
			continue
		}
		// Points contributing to this slab: the first i+1 in sorted order.
		proj := make([][]float64, 0, i+1)
		for j := 0; j <= i; j++ {
			proj = append(proj, sorted[j][:last])
		}
		hv += depth * Hypervolume(proj, ref[:last])
	}
	return hv
}

// ReferencePoint returns a reference point for hypervolume comparison:
// the per-objective maximum over all fronts, inflated by margin (e.g. 0.1
// for 10%). Comparing hypervolumes of competing fronts against a common
// reference is how the paper's TABLEs V–VII are computed.
func ReferencePoint(margin float64, fronts ...[][]float64) []float64 {
	var ref []float64
	for _, front := range fronts {
		for _, p := range front {
			if ref == nil {
				ref = make([]float64, len(p))
				for i := range ref {
					ref[i] = math.Inf(-1)
				}
			}
			if len(p) != len(ref) {
				panic("pareto: inconsistent point dimensions across fronts")
			}
			for i, v := range p {
				if v > ref[i] {
					ref[i] = v
				}
			}
		}
	}
	for i := range ref {
		span := math.Abs(ref[i])
		if span == 0 {
			span = 1
		}
		ref[i] += margin * span
	}
	return ref
}

// Spacing returns Schott's spacing metric: the standard deviation of the
// nearest-neighbor distances within the front (0 = perfectly even spread).
// Fronts with fewer than two points have zero spacing by convention.
func Spacing(front [][]float64) float64 {
	n := len(front)
	if n < 2 {
		return 0
	}
	d := make([]float64, n)
	for i := range front {
		best := math.Inf(1)
		for j := range front {
			if i == j {
				continue
			}
			if dist := l1(front[i], front[j]); dist < best {
				best = dist
			}
		}
		d[i] = best
	}
	mean := 0.0
	for _, v := range d {
		mean += v
	}
	mean /= float64(n)
	variance := 0.0
	for _, v := range d {
		variance += (v - mean) * (v - mean)
	}
	return math.Sqrt(variance / float64(n-1))
}

// IGD returns the inverted generational distance of front against a
// reference set: the mean Euclidean distance from each reference point to
// its closest front member. Lower is better; zero means the front covers
// the reference exactly. Panics on an empty front or reference.
func IGD(front, reference [][]float64) float64 {
	if len(front) == 0 || len(reference) == 0 {
		panic("pareto: IGD needs non-empty front and reference")
	}
	total := 0.0
	for _, r := range reference {
		best := math.Inf(1)
		for _, p := range front {
			if d := l2(r, p); d < best {
				best = d
			}
		}
		total += best
	}
	return total / float64(len(reference))
}

func l1(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

func l2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
