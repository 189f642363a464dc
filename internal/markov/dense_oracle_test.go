package markov

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// analyzePairDense is the dense reference analysis the plan-replay
// production path must match bit for bit: (I − Q)ᵀ and R assembled into zeroed dense
// matrices, matrix.FactorizeInto/SolveVecInto, the shared-system test by
// Dense.EqualBits, and the absorption sums taken over every transient
// state, zeros included.
func analyzePairDense(a, b *Chain) (ra, rb *Result, shared bool, err error) {
	if !a.hasStart || !b.hasStart || a.absorbing[a.start] || b.absorbing[b.start] {
		if ra, err = analyzeDense(a); err != nil {
			return nil, nil, false, err
		}
		if rb, err = analyzeDense(b); err != nil {
			return nil, nil, false, err
		}
		return ra, rb, false, nil
	}
	da, err := assembleDense(a)
	if err != nil {
		return nil, nil, false, err
	}
	db, err := assembleDense(b)
	if err != nil {
		return nil, nil, false, err
	}
	if da.iqT.EqualBits(db.iqT) {
		var lu matrix.LU
		if err := matrix.FactorizeInto(&lu, da.iqT); err != nil {
			return nil, nil, false, fmt.Errorf("markov: chain is not absorbing from every transient state: %w", err)
		}
		return da.collect(a, da.solve(&lu, a)), db.collect(b, db.solve(&lu, b)), true, nil
	}
	if ra, err = da.factorAndCollect(a); err != nil {
		return nil, nil, false, err
	}
	if rb, err = db.factorAndCollect(b); err != nil {
		return nil, nil, false, err
	}
	return ra, rb, false, nil
}

func analyzeDense(c *Chain) (*Result, error) {
	if !c.hasStart {
		return nil, fmt.Errorf("markov: no start state set")
	}
	if c.absorbing[c.start] {
		res := &Result{}
		res.reset(len(c.names))
		res.Absorption[c.start] = 1
		return res, nil
	}
	d, err := assembleDense(c)
	if err != nil {
		return nil, err
	}
	return d.factorAndCollect(c)
}

// denseSystem is one chain's dense (I − Q)ᵀ and R with its state indexing.
type denseSystem struct {
	iqT, r               *matrix.Dense
	transient, absorbing []int
	tIndex, aIndex       []int // state handle → row/column index
}

func assembleDense(c *Chain) (*denseSystem, error) {
	d := &denseSystem{tIndex: make([]int, len(c.names)), aIndex: make([]int, len(c.names))}
	for s := range c.names {
		if c.absorbing[s] {
			d.aIndex[s] = len(d.absorbing)
			d.absorbing = append(d.absorbing, s)
		} else {
			d.tIndex[s] = len(d.transient)
			d.transient = append(d.transient, s)
		}
	}
	if len(d.absorbing) == 0 {
		return nil, fmt.Errorf("markov: chain has no absorbing state")
	}
	for _, s := range d.transient {
		if sum := c.outMass(s); math.Abs(sum-1) > 1e-9 {
			return nil, fmt.Errorf("markov: state %q has outgoing probability %v, want 1", c.names[s], sum)
		}
	}
	nT, nA := len(d.transient), len(d.absorbing)
	d.iqT = matrix.Identity(nT)
	d.r = matrix.New(nT, nA)
	for _, s := range d.transient {
		i := d.tIndex[s]
		c.edges(s, func(to int, prob float64) {
			if c.absorbing[to] {
				d.r.Add(i, d.aIndex[to], prob)
			} else {
				d.iqT.Add(d.tIndex[to], i, -prob)
			}
		})
	}
	return d, nil
}

func (d *denseSystem) factorAndCollect(c *Chain) (*Result, error) {
	var lu matrix.LU
	if err := matrix.FactorizeInto(&lu, d.iqT); err != nil {
		return nil, fmt.Errorf("markov: chain is not absorbing from every transient state: %w", err)
	}
	return d.collect(c, d.solve(&lu, c)), nil
}

// solve returns the start row of N for chain c, indexed by d, with the
// factorization lu of its system.
func (d *denseSystem) solve(lu *matrix.LU, c *Chain) []float64 {
	e := make([]float64, len(d.transient))
	e[d.tIndex[c.start]] = 1
	return lu.SolveVec(e)
}

func (d *denseSystem) collect(c *Chain, visits []float64) *Result {
	res := &Result{}
	res.reset(len(c.names))
	for _, s := range d.transient {
		v := visits[d.tIndex[s]]
		res.ExpectedVisits[s] = v
		res.ExpectedTime += v * c.residence[s]
	}
	for _, s := range d.absorbing {
		p := 0.0
		for _, ts := range d.transient {
			p += visits[d.tIndex[ts]] * d.r.At(d.tIndex[ts], d.aIndex[s])
		}
		res.Absorption[s] = p
	}
	return res
}

// TestAnalyzeMatchesDenseOracle runs random absorbing chains — bitwise
// identical systems from the same or different start states, and unrelated
// pairs — through the production analyses and the dense oracle.
func TestAnalyzeMatchesDenseOracle(t *testing.T) {
	var ra, rb Result
	for seed := int64(0); seed < 400; seed++ {
		n := int(seed%9) + 1
		for variant := 0; variant < 3; variant++ {
			same := variant < 2
			a, b := pairOfChains(seed, n, same)
			if variant == 1 {
				// Transient states are handles 0..n-1: move b's start so the
				// shared factorization serves two right-hand sides.
				b.SetStart((b.start + 1) % n)
			}
			wantA, wantB, wantShared, err := analyzePairDense(a, b)
			if err != nil {
				t.Fatalf("seed %d: dense oracle: %v", seed, err)
			}
			shared, err := AnalyzePairInto(a, b, &ra, &rb)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if shared != wantShared || !resultsEqualBits(&ra, wantA) || !resultsEqualBits(&rb, wantB) {
				t.Fatalf("seed %d n %d variant %d: AnalyzePairInto diverged from the dense oracle", seed, n, variant)
			}
			got, err := a.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqualBits(got, wantA) {
				t.Fatalf("seed %d: Analyze diverged from the dense oracle", seed)
			}
		}
	}
}

// TestAnalyzeErrorsMatchDenseOracle pins the error paths: a transient
// state that cannot reach absorption makes the system singular.
func TestAnalyzeErrorsMatchDenseOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomAbsorbingChain(rng, 4)
	trap := c.AddState("trap", 1)
	c.Transition(trap, trap, 1)
	other := randomAbsorbingChain(rng, 3)
	_, _, _, want := analyzePairDense(c, other)
	_, _, _, got := AnalyzePair(c, other)
	if want == nil || got == nil || got.Error() != want.Error() {
		t.Fatalf("trap chain: AnalyzePair error %v, dense oracle %v", got, want)
	}
}

// TestCollectNonFiniteVisits pins collect's dense fallback: with a
// non-finite visit count, the zero entries of R contribute NaN to the
// absorption sums, exactly as the dense oracle's full sums do.
func TestCollectNonFiniteVisits(t *testing.T) {
	// R has zero entries: no state reaches both absorbing states.
	c := New()
	t0, t1, t2 := c.AddState("t0", 1), c.AddState("t1", 2), c.AddState("t2", 3)
	ok, bad := c.AddAbsorbing("ok"), c.AddAbsorbing("bad")
	c.Transition(t0, t1, 0.6)
	c.Transition(t0, ok, 0.4)
	c.Transition(t1, t2, 0.5)
	c.Transition(t1, bad, 0.5)
	c.Transition(t2, t0, 0.3)
	c.Transition(t2, ok, 0.7)
	c.SetStart(t0)
	d, err := assembleDense(c)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.plan()
	if err != nil {
		t.Fatal(err)
	}
	sc := &analyzeScratch{}
	if err := c.assemble(p, sc); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.Inf(1), math.NaN()} {
		visits := []float64{0.5, bad, 2}
		sc.visits = append(sc.visits[:0], visits...)
		var got Result
		c.collect(p, sc, &got)
		if want := d.collect(c, visits); !resultsEqualBits(&got, want) {
			t.Fatalf("visit %v: collect %+v, dense oracle %+v", bad, got, *want)
		}
	}
}
