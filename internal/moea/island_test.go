package moea

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func islandBase(pop, gens int, seed int64) Params {
	p := DefaultParams(pop, gens, seed)
	p.Workers = 1
	return p
}

// TestIslandPopSplit pins the population partition: every member owned by
// exactly one island, shares differing by at most one.
func TestIslandPopSplit(t *testing.T) {
	for _, tc := range []struct{ pop, n int }{{24, 2}, {25, 3}, {16, 4}, {7, 3}} {
		total := 0
		for i := 0; i < tc.n; i++ {
			s := IslandPop(tc.pop, tc.n, i)
			total += s
			if s != tc.pop/tc.n && s != tc.pop/tc.n+1 {
				t.Fatalf("pop %d n %d island %d share %d", tc.pop, tc.n, i, s)
			}
		}
		if total != tc.pop {
			t.Fatalf("pop %d n %d: shares sum to %d", tc.pop, tc.n, total)
		}
	}
}

// TestIslandRunDeterministicAcrossPlacement is the quick.Check-style
// property at the engine level: for random island counts, migration
// periods and seeds, the merged front is byte-identical no matter how
// many evaluation workers each island uses or how the scheduler
// interleaves the island goroutines.
func TestIslandRunDeterministicAcrossPlacement(t *testing.T) {
	problem := &zdtProblem{n: 6, levels: 9}
	prop := func(seedByte, nByte, everyByte uint8) bool {
		seed := int64(seedByte) + 1
		n := 2 + int(nByte)%3         // 2..4
		every := 1 + int(everyByte)%3 // 1..3
		base := islandBase(8*n, 6, seed)
		cfg := IslandConfig{N: n, Every: every, Count: 2}

		ref, err := RunIslands(problem, base, nil, cfg)
		if err != nil {
			t.Logf("seed %d n %d every %d: %v", seed, n, every, err)
			return false
		}
		want := frontFingerprint(t, ref)
		for trial, workers := range []int{3, 0} {
			b := base
			b.Workers = workers
			c := cfg
			// Vary per-island worker counts too: placement on machines of
			// different widths must not matter.
			c.PerIsland = func(i int, p *Params) { p.Workers = 1 + (i+trial)%3 }
			res, err := RunIslands(problem, b, nil, c)
			if err != nil {
				t.Logf("seed %d n %d every %d workers %d: %v", seed, n, every, workers, err)
				return false
			}
			if frontFingerprint(t, res) != want {
				t.Logf("seed %d n %d every %d workers %d: front diverged", seed, n, every, workers)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// TestIslandEmptyExchangeKeepsStream pins the RNG draw discipline: an
// island whose exchanges return no immigrants must produce byte-identical
// output to the same parameters with migration disabled, because migrant
// selection draws from its own epoch-seeded stream and insertion of
// nothing is a no-op.
func TestIslandEmptyExchangeKeepsStream(t *testing.T) {
	problem := &zdtProblem{n: 8, levels: 17}
	base := islandBase(16, 10, 5)
	plain, err := Run(problem, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	mig := base
	mig.Migration = &Migration{
		Every: 2, Count: 3, Island: 0, SelectSeed: 99,
		Exchange: func(ctx context.Context, epoch int, out []Migrant) ([]Migrant, error) {
			if len(out) == 0 {
				t.Error("exchange posted no emigrants")
			}
			return nil, nil
		},
	}
	res, err := Run(problem, mig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if frontFingerprint(t, res) != frontFingerprint(t, plain) {
		t.Fatal("empty-exchange migration perturbed the evolution stream")
	}
	if res.Evaluations != plain.Evaluations {
		t.Fatalf("evaluations %d != %d", res.Evaluations, plain.Evaluations)
	}
}

// TestIslandUpliftOverIsolation checks migration earns its keep at the
// engine level: islands exchanging elites must not do worse than the same
// islands evolving in complete isolation at the identical budget.
func TestIslandUpliftOverIsolation(t *testing.T) {
	problem := &zdtProblem{n: 10, levels: 33}
	base := islandBase(24, 30, 11)
	cfg := IslandConfig{N: 3, Every: 3, Count: 2}
	linked, err := RunIslands(problem, base, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	isolated, err := RunIslands(problem, base, nil, IslandConfig{
		N: 3, Every: 3, Count: 2,
		Exchange: func(ctx context.Context, island, epoch int, out []Migrant) ([]Migrant, error) {
			return nil, nil // ring severed: every island evolves alone
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if linked.Evaluations != isolated.Evaluations {
		t.Fatalf("budgets diverged: %d vs %d", linked.Evaluations, isolated.Evaluations)
	}
	hvLinked := zdtHypervolume(linked)
	hvIsolated := zdtHypervolume(isolated)
	if hvLinked < hvIsolated {
		t.Fatalf("migration hurt: hypervolume %.6f < isolated %.6f", hvLinked, hvIsolated)
	}
}

// zdtHypervolume measures a result against a fixed reference point that
// dominates the whole ZDT range used in these tests.
func zdtHypervolume(res *Result) float64 {
	ref := []float64{1.5, 10}
	pts := res.FrontObjectives()
	hv := 0.0
	// 2-objective hypervolume by sweeping the front sorted on f1.
	idx := make([]int, 0, len(pts))
	for i, p := range pts {
		if p[0] < ref[0] && p[1] < ref[1] {
			idx = append(idx, i)
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && pts[idx[j]][0] < pts[idx[j-1]][0]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	prev := ref[1]
	for _, i := range idx {
		if pts[i][1] < prev {
			hv += (ref[0] - pts[i][0]) * (prev - pts[i][1])
			prev = pts[i][1]
		}
	}
	return hv
}

// TestIslandKillAndResurrectMidEpoch kills one island while it is blocked
// at the epoch barrier, then resumes it from its cancellation checkpoint
// against the same live hub: the merged front must be byte-identical to
// the uninterrupted two-island run. This is the fault-injection half of
// the determinism contract.
func TestIslandKillAndResurrectMidEpoch(t *testing.T) {
	problem := &zdtProblem{n: 6, levels: 9}
	base := islandBase(16, 8, 21)
	cfg := IslandConfig{N: 2, Every: 2, Count: 1}

	ref, err := RunIslands(problem, base, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := frontFingerprint(t, ref)

	// Phase 1: island 1 runs alone against a live hub. At its first epoch
	// the exchange posts and then finds its context cancelled — exactly
	// the state of an island killed while waiting for a slow peer.
	hub := NewIslandHub(2)
	selectSeed := base.Seed + 1_000_003
	ctx, cancel := context.WithCancel(context.Background())
	var cp *Checkpoint
	p1 := IslandParams(base, 1, 2)
	p1.Ctx = ctx
	p1.OnCheckpoint = func(c *Checkpoint) { cp = c }
	p1.Migration = &Migration{
		Every: cfg.Every, Count: cfg.Count, Island: 1, SelectSeed: selectSeed,
		Exchange: func(ctx context.Context, epoch int, out []Migrant) ([]Migrant, error) {
			cancel() // die while blocked at the barrier, post already made
			return hub.Exchange(ctx, 1, epoch, out)
		},
	}
	if _, err := Run(problem, p1, nil); err == nil {
		t.Fatal("island 1 was cancelled but reported success")
	}
	if cp == nil {
		t.Fatal("no cancellation checkpoint captured")
	}
	if cp.Generation != cfg.Every {
		t.Fatalf("cancel checkpoint at generation %d, want the epoch-1 boundary %d", cp.Generation, cfg.Every)
	}
	if len(cp.Migration) != 1 {
		t.Fatalf("checkpoint logs %d epochs, want 1 (the blocked epoch)", len(cp.Migration))
	}

	// Phase 2: both islands run against the same hub — island 0 fresh,
	// island 1 resumed from the checkpoint. Island 1 re-posts epoch 1
	// byte-identically (the hub verifies this), the barrier completes,
	// and the merged result must equal the uninterrupted run.
	res, err := RunIslands(problem, base, nil, IslandConfig{
		N: cfg.N, Every: cfg.Every, Count: cfg.Count,
		PerIsland: func(i int, p *Params) {
			if i == 1 {
				p.Resume = cp
			}
		},
		Exchange: hub.Exchange,
	})
	if err != nil {
		t.Fatal(err)
	}
	if frontFingerprint(t, res) != want {
		t.Fatal("kill-and-resurrect changed the merged front")
	}
	// Resume restores the cumulative evaluation counter, so the logical
	// budget is unchanged by the interruption.
	if res.Evaluations != ref.Evaluations {
		t.Fatalf("resumed evaluations %d != reference %d", res.Evaluations, ref.Evaluations)
	}
}

// TestIslandFullRestartReseedsHub kills the whole run (shared context),
// then restarts every island from its checkpoint with a brand-new hub:
// the reseeded barrier must reconstruct the lost exchange state and the
// final front must match the uninterrupted run. This is the coordinator
// crash-and-restart path.
func TestIslandFullRestartReseedsHub(t *testing.T) {
	problem := &zdtProblem{n: 6, levels: 9}
	base := islandBase(18, 10, 31)
	cfg := IslandConfig{N: 3, Every: 2, Count: 1}

	ref, err := RunIslands(problem, base, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := frontFingerprint(t, ref)

	// Interrupted attempt: cancel the shared context once island 0 gets
	// halfway. Every island writes a cancellation checkpoint at its own
	// boundary (they can sit at different generations).
	ctx, cancel := context.WithCancel(context.Background())
	killed := base
	killed.Ctx = ctx
	var mu sync.Mutex
	cps := make(map[int]*Checkpoint)
	_, err = RunIslands(problem, killed, nil, IslandConfig{
		N: cfg.N, Every: cfg.Every, Count: cfg.Count,
		PerIsland: func(i int, p *Params) {
			p.Ctx = ctx
			p.OnCheckpoint = func(c *Checkpoint) {
				mu.Lock()
				cps[i] = c
				mu.Unlock()
			}
			if i == 0 {
				og := p.OnGeneration
				p.OnGeneration = func(gi GenerationInfo) {
					if gi.Generation == 5 {
						cancel()
					}
					if og != nil {
						og(gi)
					}
				}
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled island run reported success")
	}
	if len(cps) != cfg.N {
		t.Fatalf("captured %d cancellation checkpoints, want %d", len(cps), cfg.N)
	}

	// Restart: a fresh RunIslands builds a new hub and reseeds it from
	// the checkpointed migration logs before any island moves.
	res, err := RunIslands(problem, base, nil, IslandConfig{
		N: cfg.N, Every: cfg.Every, Count: cfg.Count,
		PerIsland: func(i int, p *Params) { p.Resume = cps[i] },
	})
	if err != nil {
		t.Fatal(err)
	}
	if frontFingerprint(t, res) != want {
		t.Fatal("full restart changed the merged front")
	}
}

// TestIslandHubSemantics exercises the barrier directly: idempotent
// replays are accepted, divergent replays poison the hub as a
// determinism violation, and Close unblocks waiters.
func TestIslandHubSemantics(t *testing.T) {
	mig := []Migrant{{From: 0, Order: []int{0, 1}, Genes: make([]Gene, 2), Objectives: []uint64{0}}}
	t.Run("ring-routing", func(t *testing.T) {
		hub := NewIslandHub(3)
		var wg sync.WaitGroup
		got := make([][]Migrant, 3)
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out := []Migrant{{From: i, Order: []int{0, 1}, Genes: make([]Gene, 2), Objectives: []uint64{uint64(i)}}}
				in, err := hub.Exchange(context.Background(), i, 1, out)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = in
			}(i)
		}
		wg.Wait()
		for i := 0; i < 3; i++ {
			wantFrom := (i + 2) % 3
			if len(got[i]) != 1 || got[i][0].From != wantFrom {
				t.Fatalf("island %d received %+v, want a migrant from %d", i, got[i], wantFrom)
			}
		}
	})
	t.Run("idempotent-replay", func(t *testing.T) {
		hub := NewIslandHub(2)
		if err := hub.Seed(0, 1, mig); err != nil {
			t.Fatal(err)
		}
		if err := hub.Seed(0, 1, mig); err != nil {
			t.Fatalf("identical replay rejected: %v", err)
		}
		bad := []Migrant{{From: 0, Order: []int{1, 0}, Genes: make([]Gene, 2), Objectives: []uint64{7}}}
		if err := hub.Seed(0, 1, bad); err == nil || !strings.Contains(err.Error(), "determinism violation") {
			t.Fatalf("divergent replay not flagged: %v", err)
		}
	})
	t.Run("close-unblocks", func(t *testing.T) {
		hub := NewIslandHub(2)
		done := make(chan error, 1)
		go func() {
			_, err := hub.Exchange(context.Background(), 0, 1, mig)
			done <- err
		}()
		hub.Close()
		if err := <-done; err == nil {
			t.Fatal("waiter survived hub close")
		}
	})
	t.Run("context-cancel-unblocks", func(t *testing.T) {
		hub := NewIslandHub(2)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := hub.Exchange(ctx, 0, 1, mig)
			done <- err
		}()
		cancel()
		if err := <-done; err != context.Canceled {
			t.Fatalf("waiter returned %v, want context.Canceled", err)
		}
	})
}

// TestIslandValidation pins the misuse errors, including the table-test
// contract that Migration with Every=0 is rejected at the engine level —
// the "migrationEvery=0 means single population" degradation is decided
// one layer up by never constructing a Migration at all.
func TestIslandValidation(t *testing.T) {
	problem := &zdtProblem{n: 4, levels: 5}
	noop := func(ctx context.Context, epoch int, out []Migrant) ([]Migrant, error) { return nil, nil }
	cases := []struct {
		name string
		mut  func(*Params)
	}{
		{"every-zero", func(p *Params) { p.Migration = &Migration{Every: 0, Count: 1, Exchange: noop} }},
		{"count-zero", func(p *Params) { p.Migration = &Migration{Every: 1, Count: 0, Exchange: noop} }},
		{"count-eats-population", func(p *Params) { p.Migration = &Migration{Every: 1, Count: p.PopSize, Exchange: noop} }},
		{"no-transport", func(p *Params) { p.Migration = &Migration{Every: 1, Count: 1} }},
		{"negative-island", func(p *Params) { p.Migration = &Migration{Every: 1, Count: 1, Island: -1, Exchange: noop} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := islandBase(8, 2, 1)
			tc.mut(&params)
			if _, err := Run(problem, params, nil); err == nil {
				t.Fatal("invalid migration config accepted")
			}
		})
	}
	t.Run("moead-rejects-migration", func(t *testing.T) {
		params := islandBase(8, 2, 1)
		params.Migration = &Migration{Every: 1, Count: 1, Exchange: noop}
		if _, err := RunMOEAD(problem, params, nil); err == nil {
			t.Fatal("MOEA/D accepted island migration")
		}
	})
	t.Run("runislands-bounds", func(t *testing.T) {
		base := islandBase(8, 2, 1)
		if _, err := RunIslands(problem, base, nil, IslandConfig{N: 1, Every: 1}); err == nil {
			t.Fatal("single island accepted")
		}
		if _, err := RunIslands(problem, base, nil, IslandConfig{N: 2, Every: 0}); err == nil {
			t.Fatal("zero migration period accepted")
		}
		if _, err := RunIslands(problem, islandBase(6, 2, 1), nil, IslandConfig{N: 4, Every: 1}); err == nil {
			t.Fatal("population too small to split accepted")
		}
		if _, err := RunIslands(problem, base, nil, IslandConfig{N: 2, Every: 1, Count: 4}); err == nil {
			t.Fatal("migrant count ≥ island population accepted")
		}
	})
}

// TestMigrantValidation covers the wire-format gate the fuzz target
// hammers: NaN/Inf objective bits, non-permutation orders and arity
// mismatches must all be rejected.
func TestMigrantValidation(t *testing.T) {
	valid := Migrant{
		From:       0,
		Order:      []int{1, 0, 2},
		Genes:      make([]Gene, 3),
		Objectives: []uint64{math.Float64bits(1.5), math.Float64bits(2.5)},
		Violation:  math.Float64bits(0),
	}
	if err := ValidateMigrant(valid); err != nil {
		t.Fatalf("valid migrant rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Migrant)
	}{
		{"nan-objective", func(m *Migrant) { m.Objectives[0] = math.Float64bits(math.NaN()) }},
		{"inf-objective", func(m *Migrant) { m.Objectives[1] = math.Float64bits(math.Inf(1)) }},
		{"nan-violation", func(m *Migrant) { m.Violation = math.Float64bits(math.NaN()) }},
		{"negative-violation", func(m *Migrant) { m.Violation = math.Float64bits(-1) }},
		{"negative-from", func(m *Migrant) { m.From = -1 }},
		{"non-permutation", func(m *Migrant) { m.Order = []int{0, 0, 2} }},
		{"order-out-of-range", func(m *Migrant) { m.Order = []int{0, 1, 9} }},
		{"gene-arity", func(m *Migrant) { m.Genes = m.Genes[:2] }},
		{"no-objectives", func(m *Migrant) { m.Objectives = nil }},
		{"empty-order", func(m *Migrant) { m.Order = nil; m.Genes = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := valid
			m.Order = append([]int(nil), valid.Order...)
			m.Genes = append([]Gene(nil), valid.Genes...)
			m.Objectives = append([]uint64(nil), valid.Objectives...)
			tc.mut(&m)
			if err := ValidateMigrant(m); err == nil {
				t.Fatal("invalid migrant accepted")
			}
		})
	}
}
