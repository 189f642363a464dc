package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// fromRows builds a matrix from equally sized rows.
func fromRows(rows [][]float64) *Dense {
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

// solve factorizes a and solves a·x = b.
func solve(a *Dense, b []float64) ([]float64, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.SolveVec(b), nil
}

func TestNewZeroInit(t *testing.T) {
	m := New(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("entry (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dimensions")
		}
	}()
	New(0, 3)
}

func TestSetAtAdd(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 3.5)
	m.Add(0, 1, 1.5)
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("At(0,1) = %v, want 5", got)
	}
}

func TestIndexOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	m.At(2, 0)
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Fatalf("I(%d,%d) = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	x, err := solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("solve = %v, want [1 3]", x)
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := solve(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 3, 1e-12) || !almostEq(x[1], 2, 1e-12) {
		t.Fatalf("solve = %v, want [3 2]", x)
	}
}

func TestFactorizeSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Factorize(a); err == nil {
		t.Fatal("expected error for singular matrix")
	}
}

func TestFactorizeNonSquare(t *testing.T) {
	if _, err := Factorize(New(2, 3)); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func randomMatrix(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// Diagonally dominant matrices are well-conditioned and non-singular,
// making them good property-test subjects.
func randomDiagDominant(rng *rand.Rand, n int) *Dense {
	m := randomMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += math.Abs(m.At(i, j))
		}
		m.Set(i, i, s+1)
	}
	return m
}

func TestPropertySolveResidual(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomDiagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := solve(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			r := 0.0
			for j := 0; j < n; j++ {
				r += a.At(i, j) * x[j]
			}
			if !almostEq(r, b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFactorizeIntoReuse checks a reused LU produces the same solution as a
// fresh factorization of the same system.
func TestFactorizeIntoReuse(t *testing.T) {
	a := fromRows([][]float64{{2, 1}, {1, 3}})
	b := []float64{5, 10}

	// FactorizeInto consumes its input's storage, so each call gets a
	// fresh clone of the system.
	var lu LU
	if err := FactorizeInto(&lu, a.Clone()); err != nil {
		t.Fatal(err)
	}
	x1 := lu.SolveVec(b)

	// Reuse the same LU for a different system; then come back.
	other := fromRows([][]float64{{0, 1}, {1, 0}})
	if err := FactorizeInto(&lu, other); err != nil {
		t.Fatal(err)
	}
	if err := FactorizeInto(&lu, a.Clone()); err != nil {
		t.Fatal(err)
	}
	x2 := make([]float64, 2)
	lu.SolveVecInto(x2, b)
	for i := range x1 {
		if math.Float64bits(x1[i]) != math.Float64bits(x2[i]) {
			t.Fatal("reused LU diverged from fresh factorization")
		}
	}
	if !almostEq(x2[0], 1, 1e-12) || !almostEq(x2[1], 3, 1e-12) {
		t.Fatalf("solution %v, want [1 3]", x2)
	}
}

func TestEqualBits(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	if !a.EqualBits(a.Clone()) {
		t.Fatal("clone not bit-equal")
	}
	b := a.Clone()
	b.Set(1, 1, 4.0000000001)
	if a.EqualBits(b) {
		t.Fatal("different values claimed equal")
	}
	if a.EqualBits(New(2, 3)) || a.EqualBits(New(3, 2)) {
		t.Fatal("shape mismatch claimed equal")
	}
}
