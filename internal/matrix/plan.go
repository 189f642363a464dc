package matrix

import (
	"fmt"
	"math"
	"slices"
)

// Plan is the symbolic LU factorization, without row swaps, of one n×n
// sparsity pattern: the filled pattern of L+U in compressed rows, the slot
// of every entry in a value array, and for each elimination step the
// multiplier slots and the update target slots. It holds no values and is
// immutable once built, so one Plan serves any number of Systems, on any
// number of goroutines.
//
// A System over a Plan replays the dense kernel (FactorizeInto followed by
// SolveVecInto) as long as the dense kernel would not swap rows, and
// performs exactly its floating-point operations, in the same order,
// skipping only terms whose structural operand is zero:
//
//   - an entry outside the filled pattern holds +0 in the dense kernel and
//     keeps it: every update it receives is x − f·(+0) with a finite f, and
//     x − y is −0 only when x is −0, which no entry ever is (assembly
//     accumulates from +0);
//   - so the dense pivot search of column k sees +0 below the diagonal
//     outside the pattern, and keeps the diagonal when no pattern entry
//     below beats it (a tie keeps the diagonal);
//   - each pattern entry receives the same update sequence over k, because
//     the row updates of one elimination step are independent;
//   - the substitutions visit each row's pattern entries in ascending
//     column order, the dense accumulation order, and a skipped term is
//     (±0)·x, which leaves the partial sum unchanged while x is finite.
//
// The replay checks the premises as it goes. A step whose pivot is zero or
// not finite, whose reciprocal is not finite, whose column holds an entry
// larger in magnitude than the pivot (the dense kernel would swap), or
// whose multiplier is zero or not finite trips a guard, as does a solution
// component that is not finite. A tripped system reruns on the dense
// kernel, which is the reference, so its results and errors are the dense
// kernel's by construction either way.
type Plan struct {
	n int
	// rowPtr/colIdx list the filled pattern by row, columns ascending; the
	// position of an entry is its slot.
	rowPtr, colIdx []int32
	diag           []int32 // slot of (i, i)
	// Step k eliminates rows elim[stepPtr[k]:stepPtr[k+1]].
	stepPtr []int32
	elim    []elimRow
	// targets of one eliminated row are the slots of its entries in the
	// columns of the pivot row's U part, in the same order.
	targets []int32
}

// elimRow is one row below the pivot of an elimination step: the slot of
// its multiplier (its entry in the pivot column) and the offset of its
// update targets.
type elimRow struct {
	m, t int32
}

// NewPlan compiles the no-swap symbolic LU of the n×n pattern whose entries
// are (rows[q], cols[q]); repeats are allowed, and the diagonal is always
// part of the pattern.
func NewPlan(n int, rows, cols []int32) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", n, n))
	}
	if len(rows) != len(cols) {
		panic(fmt.Sprintf("matrix: %d rows for %d columns", len(rows), len(cols)))
	}
	live := make([]bool, n*n)
	for i := 0; i < n; i++ {
		live[i*n+i] = true
	}
	for q, r := range rows {
		c := cols[q]
		if r < 0 || int(r) >= n || c < 0 || int(c) >= n {
			panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d", r, c, n, n))
		}
		live[int(r)*n+int(c)] = true
	}
	// Symbolic elimination: a row with an entry in column k takes the pivot
	// row's columns right of k.
	var u []int
	for k := 0; k < n; k++ {
		u = u[:0]
		for j := k + 1; j < n; j++ {
			if live[k*n+j] {
				u = append(u, j)
			}
		}
		for r := k + 1; r < n; r++ {
			if live[r*n+k] {
				for _, j := range u {
					live[r*n+j] = true
				}
			}
		}
	}
	p := &Plan{n: n, rowPtr: make([]int32, n+1), diag: make([]int32, n), stepPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if live[i*n+j] {
				if i == j {
					p.diag[i] = int32(len(p.colIdx))
				}
				p.colIdx = append(p.colIdx, int32(j))
			}
		}
		p.rowPtr[i+1] = int32(len(p.colIdx))
	}
	for k := 0; k < n; k++ {
		p.stepPtr[k] = int32(len(p.elim))
		uk := p.colIdx[p.diag[k]+1 : p.rowPtr[k+1]]
		for r := k + 1; r < n; r++ {
			if !live[r*n+k] {
				continue
			}
			p.elim = append(p.elim, elimRow{m: int32(p.Slot(r, k)), t: int32(len(p.targets))})
			for _, j := range uk {
				p.targets = append(p.targets, int32(p.Slot(r, int(j))))
			}
		}
	}
	p.stepPtr[n] = int32(len(p.elim))
	return p
}

// Slot returns the index of entry (i, j) in a System's values, or -1 when
// the entry is outside the filled pattern.
func (p *Plan) Slot(i, j int) int {
	if i < 0 || i >= p.n || j < 0 || j >= p.n {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d", i, j, p.n, p.n))
	}
	lo := int(p.rowPtr[i])
	if q, ok := slices.BinarySearch(p.colIdx[lo:p.rowPtr[i+1]], int32(j)); ok {
		return lo + q
	}
	return -1
}

// factor replays the elimination on lu in place and reports whether every
// guard held.
func (p *Plan) factor(lu []float64) bool {
	for k := 0; k < p.n; k++ {
		d := p.diag[k]
		piv := lu[d]
		inv := 1 / piv
		// A zero pivot has an infinite reciprocal.
		if !isFinite(piv) || !isFinite(inv) {
			return false
		}
		apiv := math.Abs(piv)
		u := lu[d+1 : p.rowPtr[k+1]]
		for _, e := range p.elim[p.stepPtr[k]:p.stepPtr[k+1]] {
			v := lu[e.m]
			if math.Abs(v) > apiv {
				return false // the dense kernel would swap this row up
			}
			f := v * inv
			if f == 0 || !isFinite(f) {
				return false
			}
			lu[e.m] = f
			for i, t := range p.targets[e.t : int(e.t)+len(u)] {
				lu[t] -= f * u[i]
			}
		}
	}
	return true
}

// solve replays the substitutions with the factors in lu and reports
// whether every solution component is finite.
func (p *Plan) solve(lu, x, b []float64) bool {
	copy(x, b)
	finite := true
	for i := 0; i < p.n; i++ {
		s := x[i]
		for q := p.rowPtr[i]; q < p.diag[i]; q++ {
			s -= lu[q] * x[p.colIdx[q]]
		}
		x[i] = s
		finite = finite && isFinite(s)
	}
	if !finite {
		return false
	}
	for i := p.n - 1; i >= 0; i-- {
		s := x[i]
		d := p.diag[i]
		for q := d + 1; q < p.rowPtr[i+1]; q++ {
			s -= lu[q] * x[p.colIdx[q]]
		}
		x[i] = s / lu[d]
		finite = finite && isFinite(x[i])
	}
	return finite
}

// System is one n×n linear system over a Plan's pattern, assembled by
// accumulation and solved by replaying the plan, or by the dense kernel
// when a guard trips.
type System struct {
	plan  *Plan
	a, lu []float64 // assembled values and factors, by slot
	// The dense fallback: dense holds the assembled system, dlu its
	// factors; onDense reports that they, not lu, factor the system.
	dense   *Dense
	dlu     LU
	onDense bool
}

// Reset makes s a zero system over p's pattern, reusing its storage.
func (s *System) Reset(p *Plan) {
	s.plan = p
	nnz := len(p.colIdx)
	if cap(s.a) < nnz {
		s.a, s.lu = make([]float64, nnz), make([]float64, nnz)
	}
	s.a, s.lu = s.a[:nnz], s.lu[:nnz]
	clear(s.a)
	s.onDense = false
}

// Add accumulates v into the entry at slot (see Plan.Slot), which starts
// at +0: the assembly step a[i][j] += v of a zeroed dense system.
func (s *System) Add(slot int, v float64) { s.a[slot] += v }

// AddDiagonal adds v to every diagonal entry.
func (s *System) AddDiagonal(v float64) {
	for _, d := range s.plan.diag {
		s.a[d] += v
	}
}

// EqualBits reports whether s and t have the same dimension and
// bit-identical assembled entries, an entry outside a pattern reading +0:
// the System form of Dense.EqualBits.
func (s *System) EqualBits(t *System) bool {
	p, q := s.plan, t.plan
	if p.n != q.n {
		return false
	}
	for i := 0; i < p.n; i++ {
		x, xe := int(p.rowPtr[i]), int(p.rowPtr[i+1])
		y, ye := int(q.rowPtr[i]), int(q.rowPtr[i+1])
		for x < xe || y < ye {
			var u, v float64
			switch {
			case y == ye || x < xe && p.colIdx[x] < q.colIdx[y]:
				u = s.a[x]
				x++
			case x == xe || q.colIdx[y] < p.colIdx[x]:
				v = t.a[y]
				y++
			default:
				u, v = s.a[x], t.a[y]
				x, y = x+1, y+1
			}
			if math.Float64bits(u) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

// Factorize computes the LU factorization of the assembled system,
// returning the dense kernel's error for a zero or NaN pivot.
func (s *System) Factorize() error {
	s.onDense = false
	copy(s.lu, s.a)
	if s.plan.factor(s.lu) {
		return nil
	}
	return s.factorDense()
}

// factorDense runs the dense kernel on the assembled system.
func (s *System) factorDense() error {
	s.onDense = true
	n := s.plan.n
	if s.dense == nil || s.dense.rows != n {
		s.dense = New(n, n)
	} else {
		clear(s.dense.data)
	}
	for i := 0; i < n; i++ {
		for q := s.plan.rowPtr[i]; q < s.plan.rowPtr[i+1]; q++ {
			s.dense.data[i*n+int(s.plan.colIdx[q])] = s.a[q]
		}
	}
	return FactorizeInto(&s.dlu, s.dense)
}

// SolveVecInto solves A·x = b into x (which must not alias b) with the
// factorization, bit-identical to the dense LU.SolveVecInto for a b
// without negative zeros.
func (s *System) SolveVecInto(x, b []float64) {
	n := s.plan.n
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("matrix: solve buffers %d/%d, want %d", len(x), len(b), n))
	}
	if !s.onDense {
		if s.plan.solve(s.lu, x, b) {
			return
		}
		// The replayed factors are the dense kernel's, so this cannot fail.
		if err := s.factorDense(); err != nil {
			panic(err)
		}
	}
	s.dlu.SolveVecInto(x, b)
}

// FellBack reports whether the last factorization, or a solve with it,
// tripped a guard and ran on the dense kernel.
func (s *System) FellBack() bool { return s.onDense }

// isFinite reports whether v is neither infinite nor NaN. It holds no
// arithmetic a compiler may fuse: written as v − v == 0 it inlines into
// `f := v * inv` as a fused multiply-subtract on arm64, which yields the
// product's rounding error instead of 0 and trips the guard on every
// replay.
func isFinite(v float64) bool { return math.Abs(v) <= math.MaxFloat64 }
