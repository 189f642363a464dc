package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// addOp is one accumulation step a[i][j] += v of a system under test.
type addOp struct {
	i, j int
	v    float64
}

// systemKind selects the hazard a random system is built around.
type systemKind int

const (
	plainSystem     systemKind = iota
	tiedSystem                 // entries of equal magnitude: pivot ties
	singularSystem             // a duplicated row: exact zero pivot
	nanSystem                  // a NaN entry, on or off the diagonal
	infSystem                  // an infinite entry
	subnormalSystem            // a subnormal entry: 1/pivot can overflow
	numSystemKinds
)

// drawValue returns an entry for a system of the given kind. Dyadic values
// keep cancellations exact, so updates cancel to zero and duplicated rows
// give exactly singular systems.
func drawValue(rng *rand.Rand, kind systemKind) float64 {
	if kind == tiedSystem {
		return float64(1+rng.Intn(2)) * float64(1-2*rng.Intn(2))
	}
	switch rng.Intn(4) {
	case 0, 1:
		return float64(rng.Intn(9)-4) / float64(int(1)<<rng.Intn(3))
	case 2:
		return rng.NormFloat64()
	default:
		return -rng.Float64()
	}
}

// randomOps draws the accumulation sequence of an n×n system. A quarter of
// the diagonal entries are left out, which forces row swaps; positions
// repeat, so entries accumulate like chain edges into one matrix cell.
func randomOps(rng *rand.Rand, n int, kind systemKind) []addOp {
	var ops []addOp
	for i := 0; i < n; i++ {
		if rng.Intn(4) != 0 {
			ops = append(ops, addOp{i, i, drawValue(rng, kind)})
		}
		for c := rng.Intn(3); c >= 0; c-- {
			ops = append(ops, addOp{i, rng.Intn(n), drawValue(rng, kind)})
		}
	}
	pick := func() addOp { return ops[rng.Intn(len(ops))] }
	switch kind {
	case singularSystem:
		if n > 1 {
			src, dst := rng.Intn(n), rng.Intn(n)
			for _, op := range ops {
				if op.i == src && dst != src {
					ops = append(ops, addOp{dst, op.j, op.v})
				}
			}
		}
	case nanSystem:
		op := pick()
		if rng.Intn(2) == 0 {
			op.j = op.i
		}
		ops = append(ops, addOp{op.i, op.j, math.NaN()})
	case infSystem:
		op := pick()
		ops = append(ops, addOp{op.i, op.j, math.Inf(1 - 2*rng.Intn(2))})
	case subnormalSystem:
		// Scale one whole column down so it can only pivot on a subnormal.
		col := rng.Intn(n)
		for k := range ops {
			if ops[k].j == col {
				ops[k].v *= 1e-310
			}
		}
	}
	return ops
}

// checkSparseAgainstDense assembles ops into a Sparse (reused across calls)
// and a fresh Dense, factorizes both, and requires the same error or
// bit-identical solutions for every unit right-hand side, a random one, and
// random ones holding an infinity or a NaN (which drive both substitutions
// onto their dense loops). It reports whether the system factorized.
func checkSparseAgainstDense(t *testing.T, s *Sparse, n int, ops []addOp, rng *rand.Rand) bool {
	t.Helper()
	d := New(n, n)
	s.Reset(n)
	for _, op := range ops {
		d.Add(op.i, op.j, op.v)
		s.Add(op.i, op.j, op.v)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Float64bits(s.At(i, j)) != math.Float64bits(d.At(i, j)) {
				t.Fatalf("assembled entry (%d,%d): sparse %v, dense %v", i, j, s.At(i, j), d.At(i, j))
			}
		}
	}
	var lu LU
	errD := FactorizeInto(&lu, d)
	errS := s.Factorize()
	if (errD == nil) != (errS == nil) || errD != nil && errD.Error() != errS.Error() {
		t.Fatalf("factorization errors differ: dense %v, sparse %v\nops %v", errD, errS, ops)
	}
	if errD != nil {
		return false
	}
	b := make([]float64, n)
	xd, xs := make([]float64, n), make([]float64, n)
	for rhs := 0; rhs < n+3; rhs++ {
		for i := range b {
			b[i] = 0
		}
		if rhs < n {
			b[rhs] = 1
		} else {
			for i := range b {
				b[i] = rng.NormFloat64()
			}
		}
		switch rhs {
		case n + 1:
			b[rng.Intn(n)] = math.Inf(1)
		case n + 2:
			b[rng.Intn(n)] = math.NaN()
		}
		lu.SolveVecInto(xd, b)
		s.SolveVecInto(xs, b)
		for i := range xd {
			if math.Float64bits(xd[i]) != math.Float64bits(xs[i]) {
				t.Fatalf("rhs %d: x[%d] sparse %v (%#x), dense %v (%#x)\nops %v",
					rhs, i, xs[i], math.Float64bits(xs[i]), xd[i], math.Float64bits(xd[i]), ops)
			}
		}
	}
	return true
}

// TestSparseMatchesDenseKernel is the sparse kernel's oracle test: random
// sparse systems of every hazard kind must factorize with the dense
// kernel's error or solve to its bits.
func TestSparseMatchesDenseKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s Sparse
	outcomes := map[systemKind][2]int{}
	for trial := 0; trial < 6000; trial++ {
		kind := systemKind(trial % int(numSystemKinds))
		n := 1 + rng.Intn(12)
		if trial%20 == 0 {
			n = 50 + rng.Intn(100) // multi-word row and column bitsets
		}
		ops := randomOps(rng, n, kind)
		o := outcomes[kind]
		if checkSparseAgainstDense(t, &s, n, ops, rng) {
			o[0]++
		} else {
			o[1]++
		}
		outcomes[kind] = o
	}
	// Every hazard must have produced both solvable systems and errors, or
	// the generator no longer covers what the test claims.
	for kind := plainSystem; kind < numSystemKinds; kind++ {
		if o := outcomes[kind]; o[0] == 0 || o[1] == 0 {
			t.Errorf("kind %d: %d solved, %d singular; want both", kind, o[0], o[1])
		}
	}
}

func TestSparseKnownCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s Sparse
	for _, tc := range []struct {
		name string
		n    int
		ops  []addOp
	}{
		{"permutation", 2, []addOp{{0, 1, 1}, {1, 0, 1}}},
		{"tie prefers diagonal", 2, []addOp{{0, 0, 1}, {1, 0, -1}, {1, 1, 2}}},
		{"tie prefers lowest position", 3, []addOp{{1, 0, -2}, {2, 0, 2}, {0, 1, 1}, {0, 2, 1}, {1, 1, 1}, {2, 2, 3}}},
		{"cancellation to zero", 3, []addOp{{0, 0, 1}, {0, 1, 1}, {1, 0, 1}, {1, 1, 1}, {1, 2, 1}, {2, 1, 1}, {2, 2, 1}}},
		{"zero pivot", 2, []addOp{{0, 0, 1}, {0, 1, 2}, {1, 0, 2}, {1, 1, 4}}},
		{"empty column", 2, []addOp{{0, 0, 1}, {1, 0, 1}}},
		{"NaN diagonal", 2, []addOp{{0, 0, math.NaN()}, {1, 0, 5}, {1, 1, 1}}},
		{"NaN below diagonal", 3, []addOp{{0, 0, 1}, {1, 0, math.NaN()}, {1, 1, 1}, {2, 2, 1}, {0, 2, 1}}},
		{"subnormal pivot", 2, []addOp{{0, 0, 1e-310}, {0, 1, 1}, {1, 1, 1}}},
		{"infinite entry", 2, []addOp{{0, 0, math.Inf(1)}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkSparseAgainstDense(t, &s, tc.n, tc.ops, rng)
		})
	}
	s.Reset(2)
	s.Add(0, 0, 1)
	s.Add(0, 1, 2)
	s.Add(1, 0, 2)
	s.Add(1, 1, 4)
	if err := s.Factorize(); err == nil || err.Error() != "matrix: singular matrix at pivot 1" {
		t.Fatalf("singular system: got %v", err)
	}
}

// TestSparseEqualBits pins EqualBits to Dense.EqualBits: an entry that
// cancels to +0 equals an absent one, a −0 or a different value does not.
func TestSparseEqualBits(t *testing.T) {
	build := func(ops ...addOp) (*Sparse, *Dense) {
		s, d := &Sparse{}, New(2, 2)
		s.Reset(2)
		for _, op := range ops {
			s.Add(op.i, op.j, op.v)
			d.Add(op.i, op.j, op.v)
		}
		return s, d
	}
	base, baseD := build(addOp{0, 0, 1}, addOp{1, 1, 1})
	for _, tc := range []struct {
		name string
		ops  []addOp
	}{
		{"same", []addOp{{0, 0, 1}, {1, 1, 1}}},
		{"cancelled entry", []addOp{{0, 0, 1}, {1, 1, 1}, {0, 1, 0.5}, {0, 1, -0.5}}},
		{"extra entry", []addOp{{0, 0, 1}, {1, 1, 1}, {1, 0, 0.25}}},
		{"missing entry", []addOp{{0, 0, 1}}},
		{"different value", []addOp{{0, 0, 1}, {1, 1, 1 + 1e-16*2}}},
	} {
		s, d := build(tc.ops...)
		if got, want := base.EqualBits(s), baseD.EqualBits(d); got != want {
			t.Errorf("%s: EqualBits %v, dense %v", tc.name, got, want)
		}
		if got, want := s.EqualBits(base), d.EqualBits(baseD); got != want {
			t.Errorf("%s (reversed): EqualBits %v, dense %v", tc.name, got, want)
		}
	}
	other := &Sparse{}
	other.Reset(3)
	if base.EqualBits(other) {
		t.Error("dimension mismatch claimed equal")
	}
}
