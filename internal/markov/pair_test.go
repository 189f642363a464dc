package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomAbsorbingChain builds a random absorbing chain with n transient
// states and a start chosen by the caller's rng; structure and masses are
// fully determined by the rng stream.
func randomAbsorbingChain(rng *rand.Rand, n int) *Chain {
	c := New()
	trans := make([]int, n)
	for i := range trans {
		trans[i] = c.AddState("t", rng.Float64()*10)
	}
	okS := c.AddAbsorbing("ok")
	badS := c.AddAbsorbing("bad")
	for i := 0; i < n; i++ {
		w := make([]float64, n+2)
		sum := 0.0
		for j := range w {
			w[j] = rng.Float64()
			sum += w[j]
		}
		pAbs := (w[n] + w[n+1]) / sum
		scale := 1.0
		if pAbs < 0.05 {
			scale = 0.95 / (1 - pAbs)
		}
		rem := 1.0
		for j := 0; j < n; j++ {
			p := w[j] / sum * scale
			c.Transition(trans[i], trans[j], p)
			rem -= p
		}
		half := rem * w[n] / (w[n] + w[n+1])
		c.Transition(trans[i], okS, half)
		c.Transition(trans[i], badS, rem-half)
	}
	c.SetStart(trans[rng.Intn(n)])
	return c
}

func resultsEqualBits(a, b *Result) bool {
	return math.Float64bits(a.ExpectedTime) == math.Float64bits(b.ExpectedTime) &&
		slicesEqualBits(a.ExpectedVisits, b.ExpectedVisits) &&
		slicesEqualBits(a.Absorption, b.Absorption)
}

func slicesEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// cloneChainVia rebuilds a structurally identical chain by replaying the
// same rng stream, with a possibly different start.
func pairOfChains(seed int64, n int, sameStructure bool) (*Chain, *Chain) {
	a := randomAbsorbingChain(rand.New(rand.NewSource(seed)), n)
	if sameStructure {
		return a, randomAbsorbingChain(rand.New(rand.NewSource(seed)), n)
	}
	return a, randomAbsorbingChain(rand.New(rand.NewSource(seed+1)), n)
}

// TestAnalyzePairMatchesAnalyze is the batched path's exactness contract:
// for any two chains — bitwise-identical systems, same structure with
// different masses, or entirely unrelated — AnalyzePair must return results
// bit-identical to two independent Analyze calls.
func TestAnalyzePairMatchesAnalyze(t *testing.T) {
	f := func(seed int64, nRaw uint8, same bool) bool {
		n := int(nRaw%6) + 1
		a, b := pairOfChains(seed, n, same)
		wantA, err := a.Analyze()
		if err != nil {
			return false
		}
		wantB, err := b.Analyze()
		if err != nil {
			return false
		}
		gotA, gotB, _, err := AnalyzePair(a, b)
		if err != nil {
			return false
		}
		return resultsEqualBits(wantA, gotA) && resultsEqualBits(wantB, gotB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzePairSharesIdenticalSystems checks the fast path triggers when
// both chains assemble to the same (I−Q) system — the timing/functional
// chain pairs of relmodel differ only when checkpointing splits them.
func TestAnalyzePairSharesIdenticalSystems(t *testing.T) {
	a, b := pairOfChains(42, 4, true)
	_, _, shared, err := AnalyzePair(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !shared {
		t.Fatal("identical systems were not detected as shared")
	}
	a2, b2 := pairOfChains(42, 4, false)
	_, _, shared, err = AnalyzePair(a2, b2)
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Fatal("unrelated systems claimed shared")
	}
}

// TestAnalyzePairDegenerateStarts pins the fallback path: a chain whose
// start is absorbing (or missing) must behave exactly like Analyze.
func TestAnalyzePairDegenerateStarts(t *testing.T) {
	mk := func() *Chain {
		c := New()
		s := c.AddState("exec", 1)
		done := c.AddAbsorbing("done")
		c.Transition(s, done, 1)
		c.SetStart(s)
		return c
	}
	degen := New()
	d := degen.AddAbsorbing("done")
	degen.SetStart(d)

	normal := mk()
	want, err := normal.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	wantD, err := degen.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	gotD, got, shared, err := AnalyzePair(degen, normal)
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Fatal("degenerate pair claimed shared")
	}
	if !resultsEqualBits(want, got) || !resultsEqualBits(wantD, gotD) {
		t.Fatal("degenerate-start pair diverged from Analyze")
	}

	// A chain with no start errors identically through both paths.
	noStart := New()
	noStart.AddState("s", 1)
	noStart.AddAbsorbing("a")
	if _, _, _, err := AnalyzePair(noStart, mk()); err == nil {
		t.Fatal("missing start accepted")
	}
}
