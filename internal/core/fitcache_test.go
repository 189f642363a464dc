package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/moea"
)

// TestFitnessCacheDeterminism pins the tentpole's hard constraint: a full
// run produces a bit-identical front with the cache on, off (−1) and at
// one entry per shard, on both engines and on a 60-task synthetic
// instance. Delta evaluation is on, so fitness entries double as parent
// replay states; the tiny cache evicts constantly, and evicted entries
// must stay valid as the state their offspring build on.
func TestFitnessCacheDeterminism(t *testing.T) {
	cases := []struct {
		name   string
		inst   func() *Instance
		method string
		engine Engine
	}{
		{"sobel/proposed/nsga2", sobelInstance, "proposed", NSGA2},
		{"sobel/proposed/moead", sobelInstance, "proposed", MOEAD},
		{"synthetic60/pfclr/nsga2", func() *Instance { return synInstance(60, 3) }, "pfclr", NSGA2},
		{"synthetic60/pfclr/moead", func() *Instance { return synInstance(60, 3) }, "pfclr", MOEAD},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(cacheCap int) (*Front, FitnessCacheStats) {
				inst := c.inst()
				inst.FitnessCacheCap = cacheCap
				cfg := smallCfg(42)
				cfg.Engine = c.engine
				return runMethod(t, c.method, inst, cfg), inst.FitnessCacheStats()
			}
			// reflect.DeepEqual compares the whole Front, Evaluations
			// included, not just the points.
			cached, _ := run(0)    // default-capacity cache
			uncached, _ := run(-1) // memoization disabled
			if !reflect.DeepEqual(cached, uncached) {
				t.Fatalf("fronts diverge with fitness cache on vs off:\ncached:   %d evals %s\nuncached: %d evals %s",
					cached.Evaluations, frontBytes(t, cached), uncached.Evaluations, frontBytes(t, uncached))
			}
			// A tiny cache forces constant eviction; results must still agree.
			tiny, st := run(fitnessShards) // one entry per shard
			if !reflect.DeepEqual(cached, tiny) {
				t.Fatalf("fronts diverge under eviction pressure:\ncached: %d evals %s\ntiny:   %d evals %s",
					cached.Evaluations, frontBytes(t, cached), tiny.Evaluations, frontBytes(t, tiny))
			}
			if st.Evictions == 0 {
				t.Fatalf("one entry per shard evicted nothing: %+v", st)
			}
		})
	}
}

// TestFitnessCacheHitsOnProposedRun checks the pfCLR→fcCLR reuse the cache
// exists for: a two-stage run must record hits (re-encoded seeds, duplicate
// genomes from elitist convergence) and report them via the instance stats.
func TestFitnessCacheHitsOnProposedRun(t *testing.T) {
	inst := sobelInstance()
	if _, err := Proposed(inst, smallCfg(7), filteredLib(t, inst)); err != nil {
		t.Fatal(err)
	}
	st := inst.FitnessCacheStats()
	if st.Hits == 0 {
		t.Fatalf("expected fitness-cache hits on a two-stage proposed run, got %+v", st)
	}
	if st.Misses == 0 {
		t.Fatalf("expected fitness-cache misses, got %+v", st)
	}
	if st.Entries == 0 || st.Entries > st.Capacity {
		t.Fatalf("entries %d outside (0, capacity %d]", st.Entries, st.Capacity)
	}
	if hr := st.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %v outside (0,1)", hr)
	}
}

// TestFitnessCacheDisabled verifies FitnessCacheCap < 0 turns memoization
// off entirely.
func TestFitnessCacheDisabled(t *testing.T) {
	inst := sobelInstance()
	inst.FitnessCacheCap = -1
	if _, err := FcCLR(inst, smallCfg(3)); err != nil {
		t.Fatal(err)
	}
	if st := inst.FitnessCacheStats(); st != (FitnessCacheStats{}) {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
}

// TestFitnessCacheEvictionBound floods a tiny cache and checks occupancy
// never exceeds the bound while eviction counters advance.
func TestFitnessCacheEvictionBound(t *testing.T) {
	inst := sobelInstance()
	inst.FitnessCacheCap = fitnessShards // one entry per shard
	if _, err := FcCLR(inst, smallCfg(11)); err != nil {
		t.Fatal(err)
	}
	st := inst.FitnessCacheStats()
	if st.Capacity != fitnessShards {
		t.Fatalf("capacity %d, want %d", st.Capacity, fitnessShards)
	}
	if st.Entries > st.Capacity {
		t.Fatalf("entries %d exceed capacity %d", st.Entries, st.Capacity)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions with %d-entry cache, got %+v", st.Capacity, st)
	}
}

// TestFitnessCacheCollisionBypass exercises the verified-collision path:
// two different keys forced onto one hash must both evaluate correctly and
// count a bypass.
func TestFitnessCacheCollisionBypass(t *testing.T) {
	c := newFitnessCache(64)
	keyA := []uint64{1, 2, 3}
	keyB := []uint64{4, 5, 6} // different key, same forced hash below
	const hash = 0xdeadbeef
	evalA := c.lookup(hash, keyA, func() ([]float64, float64) { return []float64{1}, 0 })
	evalB := c.lookup(hash, keyB, func() ([]float64, float64) { return []float64{2}, 1 })
	if evalA.Objectives[0] != 1 || evalB.Objectives[0] != 2 || evalB.Violation != 1 {
		t.Fatalf("collision returned wrong evaluations: %+v %+v", evalA, evalB)
	}
	st := c.stats()
	if st.Bypasses != 1 || st.Misses != 1 {
		t.Fatalf("want 1 bypass + 1 miss, got %+v", st)
	}
	// The original key still hits.
	again := c.lookup(hash, keyA, func() ([]float64, float64) {
		t.Fatal("recompute on hit")
		return nil, 0
	})
	if again.Objectives[0] != 1 {
		t.Fatalf("hit returned %v", again.Objectives)
	}
}

// TestFitnessCacheSingleFlight checks concurrent lookups of one key run
// the computation exactly once and everyone gets its result.
func TestFitnessCacheSingleFlight(t *testing.T) {
	c := newFitnessCache(0)
	key := []uint64{9, 9, 9}
	hash := fitnessHash(key)
	computes := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := c.lookup(hash, key, func() ([]float64, float64) {
				mu.Lock()
				computes++
				mu.Unlock()
				return []float64{42}, 0
			})
			if ev.Objectives[0] != 42 {
				t.Errorf("got %v", ev.Objectives)
			}
		}()
	}
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computed %d times, want 1", computes)
	}
}

// TestFitnessKeyRoundTrip checks the canonical key distinguishes the
// schedule inputs it must and matches when they agree.
func TestFitnessKeyRoundTrip(t *testing.T) {
	inst := sobelInstance()
	p := newFCProblem(inst, allFree)
	rng := rand.New(rand.NewSource(5))
	g1 := randomGenomeFor(p, rng)
	g2 := g1.Clone()
	d1 := p.decisionsInto(nil, g1)
	k1 := appendFitnessKey(nil, g1.Order, d1)
	k2 := appendFitnessKey(nil, g2.Order, p.decisionsInto(nil, g2))
	if !keyEqual(k1, k2) {
		t.Fatal("identical genomes produced different keys")
	}
	// Swapping two order entries must change the key.
	g2.Order[0], g2.Order[1] = g2.Order[1], g2.Order[0]
	k3 := appendFitnessKey(nil, g2.Order, p.decisionsInto(nil, g2))
	if keyEqual(k1, k3) {
		t.Fatal("different orders produced equal keys")
	}
	if fitnessHash(k1) == fitnessHash(k3) {
		t.Fatal("hash failed to separate different keys (astronomically unlikely)")
	}
}

func randomGenomeFor(p *fcProblem, rng *rand.Rand) *moea.Genome {
	n := p.NumTasks()
	g := &moea.Genome{Order: rng.Perm(n)}
	for t := 0; t < n; t++ {
		g.Genes = append(g.Genes, p.RandomGene(rng, t))
	}
	return g
}
