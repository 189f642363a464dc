package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSolveIntoMatchesSolveVecColumns is the multi-RHS contract: solving k
// right-hand sides as one Dense must give each column bit-identical to a
// one-at-a-time SolveVecInto of that column.
func TestSolveIntoMatchesSolveVecColumns(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%6) + 1
		k := int(kRaw%4) + 1
		rng := rand.New(rand.NewSource(seed))
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonally dominant, never singular
		}
		lu, err := Factorize(a)
		if err != nil {
			return false
		}
		b := New(n, k)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		x := New(n, k)
		lu.SolveInto(x, b)

		col := make([]float64, n)
		xcol := make([]float64, n)
		for j := 0; j < k; j++ {
			for i := 0; i < n; i++ {
				col[i] = b.At(i, j)
			}
			lu.SolveVecInto(xcol, col)
			for i := 0; i < n; i++ {
				if x.At(i, j) != xcol[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFactorizeIntoReuse checks a reused LU produces the same solution as a
// fresh factorization of the same system.
func TestFactorizeIntoReuse(t *testing.T) {
	a := NewFromRows([][]float64{{2, 1}, {1, 3}})
	b := NewFromRows([][]float64{{5}, {10}})

	// FactorizeInto consumes its input's storage, so each call gets a
	// fresh clone of the system.
	var lu LU
	if err := FactorizeInto(&lu, a.Clone()); err != nil {
		t.Fatal(err)
	}
	x1 := New(2, 1)
	lu.SolveInto(x1, b)

	// Reuse the same LU for a different system; then come back.
	other := NewFromRows([][]float64{{0, 1}, {1, 0}})
	if err := FactorizeInto(&lu, other); err != nil {
		t.Fatal(err)
	}
	if err := FactorizeInto(&lu, a.Clone()); err != nil {
		t.Fatal(err)
	}
	x2 := New(2, 1)
	lu.SolveInto(x2, b)
	if !x1.EqualBits(x2) {
		t.Fatal("reused LU diverged from fresh factorization")
	}
	if !almostEq(x2.At(0, 0), 1, 1e-12) || !almostEq(x2.At(1, 0), 3, 1e-12) {
		t.Fatalf("solution [%v %v], want [1 3]", x2.At(0, 0), x2.At(1, 0))
	}
}

func TestEqualBits(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
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
