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

// planFor compiles the pattern of the positions ops touch.
func planFor(n int, ops []addOp) *Plan {
	rows, cols := make([]int32, len(ops)), make([]int32, len(ops))
	for q, op := range ops {
		rows[q], cols[q] = int32(op.i), int32(op.j)
	}
	return NewPlan(n, rows, cols)
}

// unitAndRandomRHS returns every unit right-hand side, a random one, and
// random ones holding an infinity or a NaN (which drive the replay onto
// the dense kernel), in that order.
func unitAndRandomRHS(rng *rand.Rand, n int) [][]float64 {
	var rhs [][]float64
	for i := 0; i < n+3; i++ {
		b := make([]float64, n)
		if i < n {
			b[i] = 1
		} else {
			for j := range b {
				b[j] = rng.NormFloat64()
			}
		}
		switch i {
		case n + 1:
			b[rng.Intn(n)] = math.Inf(1)
		case n + 2:
			b[rng.Intn(n)] = math.NaN()
		}
		rhs = append(rhs, b)
	}
	return rhs
}

// assembledAt returns entry (i, j) of s's assembled system, 0 outside the
// pattern.
func assembledAt(s *System, i, j int) float64 {
	if q := s.plan.Slot(i, j); q >= 0 {
		return s.a[q]
	}
	return 0
}

// planOutcome is what one system did on the plan path.
type planOutcome struct {
	solved bool // the dense kernel factorized it
	// fell reports whether the factorization or a solve with a finite
	// right-hand side (the leading unit vectors) ran on the dense kernel.
	fell bool
}

// checkPlanAgainstDense assembles ops into a Dense and into s over a plan
// compiled for their pattern, and requires the same assembled entries, the
// same factorization error, and bit-identical solutions for every
// right-hand side. It runs the plan path twice: the call that compiles the
// plan and a replay of the compiled plan, which must agree. The first
// finite right-hand sides are unit vectors: finite counts how many.
func checkPlanAgainstDense(t testing.TB, s *System, n int, ops []addOp, rhs [][]float64, finite int) planOutcome {
	t.Helper()
	d := New(n, n)
	for _, op := range ops {
		d.Add(op.i, op.j, op.v)
	}
	assembled := d.Clone()
	var lu LU
	errD := FactorizeInto(&lu, d)
	var want [][]float64
	if errD == nil {
		for _, b := range rhs {
			want = append(want, lu.SolveVec(b))
		}
	}
	var p *Plan
	var out planOutcome
	for call := 0; call < 2; call++ {
		if call == 0 {
			p = planFor(n, ops)
		}
		s.Reset(p)
		for _, op := range ops {
			s.Add(p.Slot(op.i, op.j), op.v)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := assembledAt(s, i, j); math.Float64bits(got) != math.Float64bits(assembled.At(i, j)) {
					t.Fatalf("call %d: assembled entry (%d,%d): plan %v, dense %v", call, i, j, got, assembled.At(i, j))
				}
			}
		}
		errS := s.Factorize()
		if (errD == nil) != (errS == nil) || errD != nil && errD.Error() != errS.Error() {
			t.Fatalf("call %d: factorization errors differ: dense %v, plan %v\nops %v", call, errD, errS, ops)
		}
		fell := s.FellBack()
		if errD != nil {
			if !fell {
				t.Fatalf("call %d: singular system did not fall back to the dense kernel", call)
			}
			out.fell = true
			continue
		}
		x := make([]float64, n)
		for r, b := range rhs {
			s.SolveVecInto(x, b)
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(want[r][i]) {
					t.Fatalf("call %d rhs %d: x[%d] plan %v (%#x), dense %v (%#x)\nops %v", call, r, i,
						x[i], math.Float64bits(x[i]), want[r][i], math.Float64bits(want[r][i]), ops)
				}
			}
			if r == finite-1 {
				fell = s.FellBack()
			}
		}
		if call == 1 && fell != out.fell {
			t.Fatalf("replay fell back %v, compiling call %v", fell, out.fell)
		}
		out.fell = fell
	}
	out.solved = errD == nil
	return out
}

// TestSparseMatchesDenseKernel is the plan path's oracle test: random
// sparse systems of every hazard kind must factorize with the dense
// kernel's error or solve to its bits, both on the call that compiles the
// plan and on a replay of it.
func TestSparseMatchesDenseKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s System
	outcomes := map[systemKind][2]int{}
	replayed, fell := 0, 0
	for trial := 0; trial < 6000; trial++ {
		kind := systemKind(trial % int(numSystemKinds))
		n := 1 + rng.Intn(12)
		if trial%20 == 0 {
			n = 50 + rng.Intn(100) // many elimination steps and long rows
		}
		ops := randomOps(rng, n, kind)
		o := outcomes[kind]
		out := checkPlanAgainstDense(t, &s, n, ops, unitAndRandomRHS(rng, n), n)
		if out.solved {
			o[0]++
			if out.fell {
				fell++
			} else {
				replayed++
			}
		} else {
			o[1]++
		}
		outcomes[kind] = o
	}
	// Every hazard must have produced both solvable systems and errors, and
	// the solvable ones both replays and dense fallbacks, or the generator
	// no longer covers what the test claims.
	for kind := plainSystem; kind < numSystemKinds; kind++ {
		if o := outcomes[kind]; o[0] == 0 || o[1] == 0 {
			t.Errorf("kind %d: %d solved, %d singular; want both", kind, o[0], o[1])
		}
	}
	t.Logf("%d solvable systems replayed, %d fell back", replayed, fell)
	if replayed == 0 || fell == 0 {
		t.Errorf("%d solvable systems replayed, %d fell back; want both", replayed, fell)
	}
}

func TestSparseKnownCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var s System
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
			checkPlanAgainstDense(t, &s, tc.n, tc.ops, unitAndRandomRHS(rng, tc.n), tc.n)
		})
	}
	ops := []addOp{{0, 0, 1}, {0, 1, 2}, {1, 0, 2}, {1, 1, 4}}
	s.Reset(planFor(2, ops))
	for _, op := range ops {
		s.Add(s.plan.Slot(op.i, op.j), op.v)
	}
	if err := s.Factorize(); err == nil || err.Error() != "matrix: singular matrix at pivot 1" {
		t.Fatalf("singular system: got %v", err)
	}
}

// TestPlanGuardsFallBack trips each replay guard once: the system must run
// on the dense kernel and still match it bit for bit. A plain system is
// the control that replays.
func TestPlanGuardsFallBack(t *testing.T) {
	var s System
	for _, tc := range []struct {
		name string
		n    int
		ops  []addOp
		b    []float64
		fell bool
	}{
		{"replay", 2, []addOp{{0, 0, 2}, {1, 0, 1}, {0, 1, 1}, {1, 1, 2}}, []float64{1, 0}, false},
		{"pivot swap", 2, []addOp{{0, 0, 1}, {1, 0, 2}, {0, 1, 1}, {1, 1, 1}}, []float64{1, 0}, true},
		{"zero pivot", 2, []addOp{{0, 0, 2}, {0, 1, 1}, {1, 0, 1}, {1, 1, 0.5}}, []float64{1, 0}, true},
		{"NaN pivot", 2, []addOp{{0, 0, math.NaN()}, {1, 1, 1}}, []float64{1, 0}, true},
		{"infinite pivot", 2, []addOp{{0, 0, math.Inf(1)}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1}}, []float64{1, 0}, true},
		{"reciprocal overflow", 2, []addOp{{0, 0, 1e-310}, {0, 1, 1}, {1, 1, 1}}, []float64{1, 0}, true},
		{"zero multiplier", 2, []addOp{{0, 0, 1}, {1, 0, 0.5}, {1, 0, -0.5}, {0, 1, 1}, {1, 1, 1}}, []float64{1, 0}, true},
		{"NaN multiplier", 2, []addOp{{0, 0, 1}, {1, 0, math.NaN()}, {1, 1, 1}}, []float64{1, 0}, true},
		{"non-finite solution", 1, []addOp{{0, 0, 1e-300}}, []float64{1e10}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := checkPlanAgainstDense(t, &s, tc.n, tc.ops, [][]float64{tc.b}, 1)
			if out.fell != tc.fell {
				t.Fatalf("fell back %v, want %v", out.fell, tc.fell)
			}
		})
	}
}

// TestSparseEqualBits pins EqualBits to Dense.EqualBits: an entry that
// cancels to +0 equals an absent one, a −0 or a different value does not.
func TestSparseEqualBits(t *testing.T) {
	build := func(ops ...addOp) (*System, *Dense) {
		s, d := &System{}, New(2, 2)
		s.Reset(planFor(2, ops))
		for _, op := range ops {
			s.Add(s.plan.Slot(op.i, op.j), op.v)
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
	other := &System{}
	other.Reset(NewPlan(3, nil, nil))
	if base.EqualBits(other) {
		t.Error("dimension mismatch claimed equal")
	}
}

// fuzzValues are the entries a fuzz input can name besides small dyadic
// ones: the hazards every guard exists for.
var fuzzValues = []float64{
	0, 1, -1, 1e-310, -1e-310, 5e-324, 1e300, -1e300, 1e-300,
	math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

// FuzzPlanMatchesDense decodes a system from bytes — the dimension from
// the first (n ≤ 64), then (row, column, value) triples — and requires the
// plan path, on the compiling call and on the replay, to match the dense
// kernel's error or its bits for every unit right-hand side. The seed
// corpus under testdata/fuzz holds one system per replay guard.
func FuzzPlanMatchesDense(f *testing.F) {
	var s System
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		var ops []addOp
		for q := 1; q+2 < len(data); q += 3 {
			v := float64(int(data[q+2])-100) / 16
			if code := int(data[q+2]) - 200; code >= 0 {
				v = fuzzValues[code%len(fuzzValues)]
			}
			ops = append(ops, addOp{int(data[q]) % n, int(data[q+1]) % n, v})
		}
		var rhs [][]float64
		for i := 0; i < n; i++ {
			b := make([]float64, n)
			b[i] = 1
			rhs = append(rhs, b)
		}
		checkPlanAgainstDense(t, &s, n, ops, rhs, n)
	})
}
