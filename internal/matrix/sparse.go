package matrix

import (
	"fmt"
	"math"
	"math/bits"
)

// Sparse is a square system assembled by accumulation and solved by an LU
// elimination that performs exactly the floating-point operations of the
// dense kernel (FactorizeInto followed by SolveVecInto), in the same order,
// skipping only terms whose structural operand is zero.
//
// The same-order argument: the dense kernel's pivot search, multipliers and
// row updates touch every entry, but an entry that was never assembled or
// filled in holds +0, and every update it receives is x − f·(±0) with a
// finite f, which leaves x unchanged because no entry or partial sum is ever
// −0 (accumulation starts from +0, and x − y is −0 only for x = −0). So the
// sparse kernel
//
//   - picks the same pivot: the largest |a| in the column at or below the
//     diagonal, the lowest position on ties, NaN never winning, and reports
//     the same error for a zero or NaN pivot;
//   - gives each stored entry the same update sequence over k, because the
//     row updates of one elimination step are independent of each other;
//   - visits the nonzeros of each row in ascending column order during the
//     substitutions, where the accumulation order matters.
//
// Where f·0 would not be zero — a non-finite multiplier, an infinite
// reciprocal pivot, or a non-finite solution component — the affected rows
// run the dense kernel's full loops, so such inputs still produce the dense
// kernel's values.
//
// Values live in an n×n array indexed by original row; a bitset per row and
// per column marks the live entries. Set bits iterate in ascending column
// order, a fill-in is a bitwise OR of the pivot row into the updated row,
// and Reset clears only the bitsets, never the n² values.
type Sparse struct {
	n, w    int       // dimension and 64-bit words per bitset
	vals    []float64 // row-major by original row; valid where rowMask is set
	rowMask []uint64  // w words per original row: its live columns
	colMask []uint64  // w words per column: the original rows live in it
	// perm[i] is the original row at position i — the dense kernel's pivot
	// vector — and pos is its inverse.
	perm, pos []int32
}

// Reset makes s an n×n zero system, reusing its storage.
func (s *Sparse) Reset(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", n, n))
	}
	s.n, s.w = n, (n+63)>>6
	if cap(s.vals) < n*n {
		s.vals = make([]float64, n*n)
	}
	s.vals = s.vals[:n*n]
	s.rowMask = zeroedWords(s.rowMask, n*s.w)
	s.colMask = zeroedWords(s.colMask, n*s.w)
	s.perm = growInt32(s.perm, n)
	s.pos = growInt32(s.pos, n)
}

func zeroedWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (s *Sparse) check(i, j int) {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d", i, j, s.n, s.n))
	}
}

// Add accumulates v into entry (i, j), which starts at +0: the assembly
// step a[i][j] += v of a zeroed dense system.
func (s *Sparse) Add(i, j int, v float64) {
	s.check(i, j)
	s.touch(i, j)
	s.vals[i*s.n+j] += v
}

// live reports whether entry (r, j) has been assembled or filled in.
func (s *Sparse) live(r, j int) bool {
	return s.rowMask[r*s.w+j>>6]&(1<<(j&63)) != 0
}

// touch makes entry (r, j) live, starting it at +0.
func (s *Sparse) touch(r, j int) {
	if !s.live(r, j) {
		s.rowMask[r*s.w+j>>6] |= 1 << (j & 63)
		s.colMask[j*s.w+r>>6] |= 1 << (r & 63)
		s.vals[r*s.n+j] = 0
	}
}

// At returns entry (i, j) of the assembled system (0 where nothing was
// added). After Factorize it reads the packed factors by original row.
func (s *Sparse) At(i, j int) float64 {
	s.check(i, j)
	if !s.live(i, j) {
		return 0
	}
	return s.vals[i*s.n+j]
}

// EqualBits reports whether s and t have the same dimension and
// bit-identical entries, with absent entries reading +0 — the sparse form
// of Dense.EqualBits. Call it before Factorize.
func (s *Sparse) EqualBits(t *Sparse) bool {
	if s.n != t.n {
		return false
	}
	for r := 0; r < s.n; r++ {
		for wi := 0; wi < s.w; wi++ {
			for m := s.rowMask[r*s.w+wi] | t.rowMask[r*s.w+wi]; m != 0; m &= m - 1 {
				j := wi<<6 + bits.TrailingZeros64(m)
				if math.Float64bits(s.At(r, j)) != math.Float64bits(t.At(r, j)) {
					return false
				}
			}
		}
	}
	return true
}

// Factorize computes the LU factorization with partial pivoting in place,
// returning the dense kernel's error for a zero or NaN pivot.
func (s *Sparse) Factorize() error {
	n, w, vals := s.n, s.w, s.vals
	perm, pos := s.perm, s.pos
	for i := range perm {
		perm[i], pos[i] = int32(i), int32(i)
	}
	for k := 0; k < n; k++ {
		col := s.colMask[k*w : (k+1)*w]
		p := k
		max := 0.0
		if d := int(perm[k]); s.live(d, k) {
			max = math.Abs(vals[d*n+k])
		}
		for wi, m := range col {
			for ; m != 0; m &= m - 1 {
				r := wi<<6 + bits.TrailingZeros64(m)
				if q := int(pos[r]); q > k {
					if a := math.Abs(vals[r*n+k]); a > max || a == max && q < p {
						max, p = a, q
					}
				}
			}
		}
		if max == 0 || math.IsNaN(max) {
			return fmt.Errorf("matrix: singular matrix at pivot %d", k)
		}
		if p != k {
			perm[p], perm[k] = perm[k], perm[p]
			pos[perm[p]], pos[perm[k]] = int32(p), int32(k)
		}
		pr := int(perm[k])
		inv := 1 / vals[pr*n+k]
		if math.IsInf(inv, 0) {
			// 0·inv is NaN: the dense kernel's multiplier is non-zero in
			// every row below, present in column k or not.
			for q := k + 1; q < n; q++ {
				s.touch(int(perm[q]), k)
				s.eliminate(int(perm[q]), pr, k, inv)
			}
			continue
		}
		// Fill-in during this step lands in columns > k only, so col is
		// stable while it is walked.
		for wi, m := range col {
			for ; m != 0; m &= m - 1 {
				r := wi<<6 + bits.TrailingZeros64(m)
				if int(pos[r]) > k {
					s.eliminate(r, pr, k, inv)
				}
			}
		}
	}
	return nil
}

// eliminate stores row r's multiplier for column k, where r is live, and
// subtracts its multiple of pivot row pr, as the dense kernel's inner loops
// do.
func (s *Sparse) eliminate(r, pr, k int, inv float64) {
	n, w := s.n, s.w
	ri, rk := s.vals[r*n:(r+1)*n], s.vals[pr*n:(pr+1)*n]
	f := ri[k] * inv
	ri[k] = f
	if f == 0 {
		return
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		// f·(+0) is NaN: every column of the row changes.
		for j := k + 1; j < n; j++ {
			s.touch(r, j)
			ri[j] -= f * s.At(pr, j)
		}
		return
	}
	rMask, pMask := s.rowMask[r*w:(r+1)*w], s.rowMask[pr*w:(pr+1)*w]
	for wi := (k + 1) >> 6; wi < w; wi++ {
		m := pMask[wi]
		if wi == (k+1)>>6 {
			m &= ^uint64(0) << ((k + 1) & 63) // columns > k
		}
		for fill := m &^ rMask[wi]; fill != 0; fill &= fill - 1 {
			j := wi<<6 + bits.TrailingZeros64(fill)
			ri[j] = 0
			s.colMask[j*w+r>>6] |= 1 << (r & 63)
		}
		rMask[wi] |= m
		for ; m != 0; m &= m - 1 {
			j := wi<<6 + bits.TrailingZeros64(m)
			ri[j] -= f * rk[j]
		}
	}
}

// SolveVecInto solves A·x = b into x (which must not alias b) with the
// factorization, bit-identical to the dense LU.SolveVecInto for a b without
// negative zeros.
func (s *Sparse) SolveVecInto(x, b []float64) {
	n, w := s.n, s.w
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("matrix: solve buffers %d/%d, want %d", len(x), len(b), n))
	}
	for i, r := range s.perm {
		x[i] = b[r]
	}
	// Forward substitution with the unit lower triangle: the live columns
	// below i of row perm[i], ascending. Once a component is non-finite, a
	// skipped zero term would no longer be zero, so later rows run the
	// dense loop.
	finite := true
	for i, pr := range s.perm {
		r := int(pr)
		sum := x[i]
		ri := s.vals[r*n : (r+1)*n]
		if finite {
			mask := s.rowMask[r*w : (r+1)*w]
			for wi := 0; wi <= i>>6; wi++ {
				m := mask[wi]
				if wi == i>>6 {
					m &= 1<<(i&63) - 1 // columns < i
				}
				for ; m != 0; m &= m - 1 {
					j := wi<<6 + bits.TrailingZeros64(m)
					sum -= ri[j] * x[j]
				}
			}
		} else {
			for j := 0; j < i; j++ {
				sum -= s.At(r, j) * x[j]
			}
		}
		x[i] = sum
		finite = finite && isFinite(sum)
	}
	// Back substitution with the upper triangle: the live columns above i,
	// ascending.
	finite = true
	for i := n - 1; i >= 0; i-- {
		r := int(s.perm[i])
		sum := x[i]
		ri := s.vals[r*n : (r+1)*n]
		if finite {
			mask := s.rowMask[r*w : (r+1)*w]
			for wi := (i + 1) >> 6; wi < w; wi++ {
				m := mask[wi]
				if wi == (i+1)>>6 {
					m &= ^uint64(0) << ((i + 1) & 63) // columns > i
				}
				for ; m != 0; m &= m - 1 {
					j := wi<<6 + bits.TrailingZeros64(m)
					sum -= ri[j] * x[j]
				}
			}
		} else {
			for j := i + 1; j < n; j++ {
				sum -= s.At(r, j) * x[j]
			}
		}
		x[i] = sum / ri[i]
		finite = finite && isFinite(x[i])
	}
}

func isFinite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
