// Package matrix provides the linear solves of the absorbing-Markov-chain
// analysis in this project: LU decomposition with partial pivoting and
// forward/back substitution.
//
// A cross-layer reliability chain has 5 to 60 transient states, and its
// (I − Q)ᵀ rows hold only two to four nonzeros. The chain analysis runs on
// Sparse, which eliminates only the nonzeros yet performs the dense
// kernel's floating-point operations in the dense kernel's order, so its
// solutions are bit-identical to the dense FactorizeInto/SolveVecInto.
// Dense stays only as that reference implementation: the oracle tests
// check Sparse against it bit for bit.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a rows×cols zero matrix.
func New(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at (i, j).
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// EqualBits reports whether m and b have identical shape and bit-identical
// entries (zeros are compared by sign, NaNs by pattern). Batched solvers use
// it to detect that two independently assembled systems share one
// factorization.
func (m *Dense) EqualBits(b *Dense) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Float64bits(v) != math.Float64bits(b.data[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu    *Dense // packed L (unit lower) and U
	pivot []int  // row permutation
}

// Factorize computes the LU decomposition of the square matrix a.
// It returns an error if a is singular to working precision.
func Factorize(a *Dense) (*LU, error) {
	f := &LU{}
	if err := FactorizeInto(f, a.Clone()); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorizeInto computes the LU decomposition of the square matrix a into f,
// overwriting a's storage with the packed factors and reusing f's pivot
// buffer. It is Factorize without the defensive clone, for callers that
// assemble a fresh system every iteration and reuse one scratch LU.
func FactorizeInto(f *LU, a *Dense) error {
	if a.rows != a.cols {
		return fmt.Errorf("matrix: cannot factorize non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	lu := a
	if cap(f.pivot) < n {
		f.pivot = make([]int, n)
	}
	pivot := f.pivot[:n]
	for i := range pivot {
		pivot[i] = i
	}
	// The factorization runs on the raw row-major storage: this loop is the
	// single hottest kernel of the chain analysis, and the At/Set/Add
	// accessors' bounds checks dominate it. The operation sequence is
	// unchanged (x −= f·y ≡ x += −(f·y)), so results stay bit-identical.
	data := lu.data
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k.
		p := k
		max := math.Abs(data[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := math.Abs(data[i*n+k]); a > max {
				max, p = a, i
			}
		}
		if max == 0 || math.IsNaN(max) {
			return fmt.Errorf("matrix: singular matrix at pivot %d", k)
		}
		if p != k {
			lu.swapRows(p, k)
			pivot[p], pivot[k] = pivot[k], pivot[p]
		}
		rk := data[k*n : (k+1)*n]
		inv := 1 / rk[k]
		for i := k + 1; i < n; i++ {
			ri := data[i*n : (i+1)*n]
			f := ri[k] * inv
			ri[k] = f
			if f == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				ri[j] -= f * rk[j]
			}
		}
	}
	f.lu, f.pivot = lu, pivot
	return nil
}

func (m *Dense) swapRows(a, b int) {
	ra := m.data[a*m.cols : (a+1)*m.cols]
	rb := m.data[b*m.cols : (b+1)*m.cols]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// SolveVec solves A·x = b for x using the factorization.
func (f *LU) SolveVec(b []float64) []float64 {
	x := make([]float64, f.lu.rows)
	f.SolveVecInto(x, b)
	return x
}

// SolveVecInto solves A·x = b into the caller-provided x (which must not
// alias b), the allocation-free form of SolveVec.
func (f *LU) SolveVecInto(x, b []float64) {
	n := f.lu.rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("matrix: solve buffers %d/%d, want %d", len(x), len(b), n))
	}
	// Substitutions run on the raw storage like FactorizeInto; identical
	// operation sequence, no per-element bounds checks.
	data := f.lu.data
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		s := x[i]
		ri := data[i*n : i*n+i]
		for j, v := range ri {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution with upper triangle.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		ri := data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s / ri[i]
	}
}
