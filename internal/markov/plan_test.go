package markov

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPlanKeyedOnStructure pins what the plan key holds: the partition and
// the edge layout, not names, residence times, probabilities or the start.
func TestPlanKeyedOnStructure(t *testing.T) {
	build := func(name string, res, p float64, start int) *Chain {
		c := New()
		s0, s1 := c.AddState(name, res), c.AddState(name, 2*res)
		end := c.AddAbsorbing("end")
		c.Transition(s0, s1, p)
		c.Transition(s0, end, 1-p)
		c.Transition(s1, s0, p/2)
		c.Transition(s1, end, 1-p/2)
		c.SetStart([]int{s0, s1}[start])
		return c
	}
	plan := func(c *Chain) *chainPlan {
		p, err := c.plan()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// An empty table: no insert below can fill it and start it over.
	plans.m.Store(nil)
	base := plan(build("a", 1, 0.5, 0))
	if p := plan(build("b", 3, 0.25, 1)); p != base {
		t.Error("chains of one structure compiled separate plans")
	}
	// p = 1 drops the s0→end edge: another structure.
	if p := plan(build("a", 1, 1, 0)); p == base {
		t.Error("a dropped zero-probability edge kept the plan")
	}
	// Reset clears the key with the chain: a rebuild keys like a new chain.
	c := build("a", 1, 1, 0)
	c.Reset()
	s0, s1 := c.AddState("a", 1), c.AddState("a", 2)
	end := c.AddAbsorbing("end")
	c.Transition(s0, s1, 0.5)
	c.Transition(s0, end, 0.5)
	c.Transition(s1, s0, 0.25)
	c.Transition(s1, end, 0.75)
	c.SetStart(s0)
	if plan(c) != base {
		t.Error("a reset and rebuilt chain did not find its structure's plan")
	}
}

// TestPlanTableConcurrent analyzes chains on several goroutines at once,
// some of one structure (concurrent lookups and duplicate compiles) and
// enough distinct ones to fill the table past maxPlans, and requires every
// pair to match the dense oracle.
func TestPlanTableConcurrent(t *testing.T) {
	const workers = 4
	perWorker := maxPlans/workers + 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ra, rb Result
			for i := 0; i < perWorker; i++ {
				seed := int64(w*perWorker + i)
				if i%4 == 0 {
					seed = int64(i % 16) // shared across workers
				}
				n := int(seed%9) + 1
				a := randomAbsorbingChain(rand.New(rand.NewSource(seed)), n)
				b := randomAbsorbingChain(rand.New(rand.NewSource(seed)), n)
				wantA, wantB, wantShared, err := analyzePairDense(a, b)
				if err != nil {
					t.Errorf("seed %d: dense oracle: %v", seed, err)
					return
				}
				shared, err := AnalyzePairInto(a, b, &ra, &rb)
				if err != nil || shared != wantShared || !resultsEqualBits(&ra, wantA) || !resultsEqualBits(&rb, wantB) {
					t.Errorf("seed %d: AnalyzePairInto diverged from the dense oracle (err %v)", seed, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPlanCompileCountedOnce starts goroutines behind a barrier on one
// structure the table does not hold, so several miss on it at once, and
// requires the compile count to move by exactly one and every goroutine to
// get the same plan.
func TestPlanCompileCountedOnce(t *testing.T) {
	const workers = 8
	plans.m.Store(nil)
	for round := 0; round < 10; round++ {
		n := 40 + round // a structure no earlier round compiled
		chains := make([]*Chain, workers)
		for w := range chains {
			chains[w] = randomAbsorbingChain(rand.New(rand.NewSource(int64(round))), n)
		}
		before := PlanTotals().Compiles
		got := make([]*chainPlan, workers)
		var ready, done sync.WaitGroup
		start := make(chan struct{})
		ready.Add(workers)
		done.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer done.Done()
				ready.Done()
				<-start
				p, err := chains[w].plan()
				if err != nil {
					t.Error(err)
				}
				got[w] = p
			}(w)
		}
		ready.Wait()
		close(start)
		done.Wait()
		if d := PlanTotals().Compiles - before; d != 1 {
			t.Fatalf("round %d: %d goroutines on one fresh structure counted %d compiles, want 1", round, workers, d)
		}
		for w, p := range got {
			if p == nil || p != got[0] {
				t.Fatalf("round %d: goroutine %d got a plan other than the table's", round, w)
			}
		}
	}
}
