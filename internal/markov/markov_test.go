package markov

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// AddState adds a transient state with the given per-visit residence time
// and returns its handle.
func (c *Chain) AddState(name string, residence float64) int {
	return c.AddStateIdx(name, -1, residence)
}

// Geometric chain: state S retries with probability p, succeeds with 1−p.
// Expected visits to S = 1/(1−p); expected time = residence/(1−p).
func TestGeometricRetry(t *testing.T) {
	const p = 0.3
	const res = 2.0
	c := New()
	s := c.AddState("exec", res)
	done := c.AddAbsorbing("done")
	c.Transition(s, s, p)
	c.Transition(s, done, 1-p)
	c.SetStart(s)
	r, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.ExpectedTime, res/(1-p), 1e-9) {
		t.Fatalf("ExpectedTime = %v, want %v", r.ExpectedTime, res/(1-p))
	}
	if !approx(r.ExpectedVisits[s], 1/(1-p), 1e-9) {
		t.Fatalf("visits = %v, want %v", r.ExpectedVisits[s], 1/(1-p))
	}
	if !approx(r.Absorption[done], 1, 1e-9) {
		t.Fatalf("absorption = %v, want 1", r.Absorption[done])
	}
}

// Two absorbing states: success with probability q at each trial, failure
// with f, retry otherwise. P(success) = q/(q+f).
func TestCompetingAbsorption(t *testing.T) {
	const q, f = 0.5, 0.2
	c := New()
	s := c.AddState("exec", 1)
	ok := c.AddAbsorbing("ok")
	bad := c.AddAbsorbing("bad")
	c.Transition(s, ok, q)
	c.Transition(s, bad, f)
	c.Transition(s, s, 1-q-f)
	c.SetStart(s)
	r, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.Absorption[ok], q/(q+f), 1e-9) {
		t.Fatalf("P(ok) = %v, want %v", r.Absorption[ok], q/(q+f))
	}
	if !approx(r.Absorption[ok]+r.Absorption[bad], 1, 1e-9) {
		t.Fatal("absorption probabilities must sum to 1")
	}
}

// Serial pipeline of n states each with unit residence: expected time n.
func TestSerialPipeline(t *testing.T) {
	c := New()
	const n = 5
	states := make([]int, n)
	for i := range states {
		states[i] = c.AddState("s", 1)
	}
	end := c.AddAbsorbing("end")
	for i := 0; i < n-1; i++ {
		c.Transition(states[i], states[i+1], 1)
	}
	c.Transition(states[n-1], end, 1)
	c.SetStart(states[0])
	r, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r.ExpectedTime, n, 1e-9) {
		t.Fatalf("ExpectedTime = %v, want %v", r.ExpectedTime, n)
	}
}

// A checkpoint-style chain with rollback: exec fails w.p. pf and rolls back
// to itself through a zero-residence recovery state. Expected time matches
// the closed form res/(1−pf) plus recovery overhead pf·tol/(1−pf).
func TestRollbackWithRecoveryOverhead(t *testing.T) {
	const pf = 0.25
	const texec = 4.0
	const ttol = 0.5
	c := New()
	exec := c.AddState("exec", texec)
	tol := c.AddState("tol", ttol)
	end := c.AddAbsorbing("end")
	c.Transition(exec, end, 1-pf)
	c.Transition(exec, tol, pf)
	c.Transition(tol, exec, 1)
	c.SetStart(exec)
	r, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	want := texec/(1-pf) + ttol*pf/(1-pf)
	if !approx(r.ExpectedTime, want, 1e-9) {
		t.Fatalf("ExpectedTime = %v, want %v", r.ExpectedTime, want)
	}
}

func TestStartAtAbsorbing(t *testing.T) {
	c := New()
	end := c.AddAbsorbing("end")
	c.SetStart(end)
	r, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if r.ExpectedTime != 0 || !approx(r.Absorption[end], 1, 0) {
		t.Fatalf("degenerate chain: time %v absorption %v", r.ExpectedTime, r.Absorption[end])
	}
}

func TestAnalyzeNoStart(t *testing.T) {
	c := New()
	c.AddAbsorbing("end")
	if _, err := c.Analyze(); err == nil {
		t.Fatal("expected error when no start state set")
	}
}

func TestAnalyzeNoAbsorbing(t *testing.T) {
	c := New()
	s := c.AddState("s", 1)
	c.Transition(s, s, 1)
	c.SetStart(s)
	if _, err := c.Analyze(); err == nil {
		t.Fatal("expected error for chain without absorbing state")
	}
}

func TestAnalyzeBadMass(t *testing.T) {
	c := New()
	s := c.AddState("s", 1)
	end := c.AddAbsorbing("end")
	c.Transition(s, end, 0.5) // mass 0.5 ≠ 1
	c.SetStart(s)
	if _, err := c.Analyze(); err == nil {
		t.Fatal("expected error for probability mass != 1")
	}
}

func TestTransitionValidation(t *testing.T) {
	c := New()
	s := c.AddState("s", 1)
	end := c.AddAbsorbing("end")
	for _, fn := range []func(){
		func() { c.Transition(s, end, -0.1) },
		func() { c.Transition(s, end, 1.5) },
		func() { c.Transition(end, s, 1) },
		func() { c.Transition(s, 99, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic from invalid transition")
				}
			}()
			fn()
		}()
	}
}

func TestNegativeResidencePanics(t *testing.T) {
	c := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative residence")
		}
	}()
	c.AddState("s", -1)
}

func TestValidate(t *testing.T) {
	c := New()
	s := c.AddState("s", 1)
	end := c.AddAbsorbing("end")
	c.Transition(s, end, 1)
	c.SetStart(s)
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateUnreachableAbsorbing(t *testing.T) {
	c := New()
	s := c.AddState("s", 1)
	c.AddAbsorbing("end") // not connected
	c.Transition(s, s, 1)
	c.SetStart(s)
	if err := c.Validate(); err == nil {
		t.Fatal("expected error: absorbing state unreachable")
	}
}

func TestAbsorptionProbabilityByName(t *testing.T) {
	c := New()
	s := c.AddState("s", 1)
	ok := c.AddAbsorbing("noError")
	bad := c.AddAbsorbing("Error")
	c.Transition(s, ok, 0.9)
	c.Transition(s, bad, 0.1)
	c.SetStart(s)
	r, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	p, found := c.AbsorptionProbability(r, "noError")
	if !found || !approx(p, 0.9, 1e-12) {
		t.Fatalf("P(noError) = %v found=%v", p, found)
	}
	if _, found := c.AbsorptionProbability(r, "nonexistent"); found {
		t.Fatal("found absorption probability for unknown state")
	}
}

// Property: for random absorbing chains, absorption probabilities sum to 1
// and expected time is finite and non-negative.
func TestPropertyAbsorptionSumsToOne(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%6) + 1 // transient states
		rng := rand.New(rand.NewSource(seed))
		c := New()
		trans := make([]int, n)
		for i := range trans {
			trans[i] = c.AddState("t", rng.Float64()*10)
		}
		okS := c.AddAbsorbing("ok")
		badS := c.AddAbsorbing("bad")
		for i := 0; i < n; i++ {
			// Random distribution over all states with guaranteed
			// absorbing mass so the chain is absorbing.
			w := make([]float64, n+2)
			sum := 0.0
			for j := range w {
				w[j] = rng.Float64()
				sum += w[j]
			}
			// Normalize, forcing ≥5% mass to absorbing states.
			pAbs := (w[n] + w[n+1]) / sum
			scale := 1.0
			if pAbs < 0.05 {
				scale = 0.95 / (1 - pAbs) // shrink transient mass
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
		c.SetStart(trans[0])
		r, err := c.Analyze()
		if err != nil {
			return false
		}
		total := r.Absorption[okS] + r.Absorption[badS]
		if !approx(total, 1, 1e-6) {
			return false
		}
		return r.ExpectedTime >= 0 && !math.IsInf(r.ExpectedTime, 0) && !math.IsNaN(r.ExpectedTime)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: analysis agrees with Monte-Carlo simulation on a small chain.
func TestPropertyAgreesWithSimulation(t *testing.T) {
	const pf = 0.2
	c := New()
	exec := c.AddState("exec", 3)
	det := c.AddState("det", 0.5)
	ok := c.AddAbsorbing("ok")
	bad := c.AddAbsorbing("bad")
	c.Transition(exec, ok, 1-pf)
	c.Transition(exec, det, pf)
	c.Transition(det, exec, 0.7)
	c.Transition(det, bad, 0.3)
	c.SetStart(exec)
	r, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const trials = 200000
	var totalTime float64
	var okCount int
	for i := 0; i < trials; i++ {
		state := "exec"
		for state == "exec" || state == "det" {
			if state == "exec" {
				totalTime += 3
				if rng.Float64() < 1-pf {
					state = "ok"
				} else {
					state = "det"
				}
			} else {
				totalTime += 0.5
				if rng.Float64() < 0.7 {
					state = "exec"
				} else {
					state = "bad"
				}
			}
		}
		if state == "ok" {
			okCount++
		}
	}
	simTime := totalTime / trials
	simOK := float64(okCount) / trials
	if math.Abs(simTime-r.ExpectedTime) > 0.05 {
		t.Fatalf("simulated time %v vs analytic %v", simTime, r.ExpectedTime)
	}
	if math.Abs(simOK-r.Absorption[ok]) > 0.01 {
		t.Fatalf("simulated P(ok) %v vs analytic %v", simOK, r.Absorption[ok])
	}
}

func TestSampleAgreesWithAnalysis(t *testing.T) {
	const pf = 0.3
	c := New()
	exec := c.AddState("exec", 5)
	ok := c.AddAbsorbing("ok")
	bad := c.AddAbsorbing("bad")
	c.Transition(exec, ok, 1-pf)
	c.Transition(exec, exec, pf*0.6)
	c.Transition(exec, bad, pf*0.4)
	c.SetStart(exec)
	ana, err := c.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const trials = 100000
	var time float64
	okCount := 0
	for i := 0; i < trials; i++ {
		w, err := c.Sample(rng, 0)
		if err != nil {
			t.Fatal(err)
		}
		time += w.Time
		if w.Absorbed == ok {
			okCount++
		}
	}
	if math.Abs(time/trials-ana.ExpectedTime) > 0.1 {
		t.Fatalf("sampled time %v vs analytic %v", time/trials, ana.ExpectedTime)
	}
	if math.Abs(float64(okCount)/trials-ana.Absorption[ok]) > 0.01 {
		t.Fatalf("sampled P(ok) %v vs analytic %v", float64(okCount)/trials, ana.Absorption[ok])
	}
}

func TestSampleNoStart(t *testing.T) {
	c := New()
	c.AddAbsorbing("end")
	rng := rand.New(rand.NewSource(1))
	if _, err := c.Sample(rng, 0); err == nil {
		t.Fatal("expected error without start state")
	}
}

func TestSampleDeadEnd(t *testing.T) {
	c := New()
	s := c.AddState("stuck", 1)
	c.AddAbsorbing("end")
	c.SetStart(s) // no outgoing transitions
	rng := rand.New(rand.NewSource(1))
	if _, err := c.Sample(rng, 0); err == nil {
		t.Fatal("expected error for dead-end state")
	}
}

func TestSampleStepBound(t *testing.T) {
	c := New()
	s := c.AddState("loop", 1)
	end := c.AddAbsorbing("end")
	c.Transition(s, s, 0.999999)
	c.Transition(s, end, 0.000001)
	c.SetStart(s)
	rng := rand.New(rand.NewSource(1))
	if _, err := c.Sample(rng, 10); err == nil {
		t.Fatal("expected step-bound error for near-endless loop")
	}
}

func TestSampleImmediateAbsorption(t *testing.T) {
	c := New()
	end := c.AddAbsorbing("end")
	c.SetStart(end)
	rng := rand.New(rand.NewSource(1))
	w, err := c.Sample(rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Absorbed != end || w.Time != 0 || w.Steps != 0 {
		t.Fatalf("degenerate walk = %+v", w)
	}
}
