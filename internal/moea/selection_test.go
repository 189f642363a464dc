package moea

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pareto"
)

// referenceNonDominatedSort is the textbook O(MN²) fast non-dominated sort
// the ENS kernel replaced, kept verbatim as the equivalence oracle: the ENS
// sort must reproduce its ranks AND its within-front emission order exactly.
func referenceNonDominatedSort(pop []*solution) [][]*solution {
	n := len(pop)
	domCount := make([]int, n)
	dominated := make([][]int, n)
	var fronts [][]*solution
	var first []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if constrainedDominates(pop[i], pop[j]) {
				dominated[i] = append(dominated[i], j)
			} else if constrainedDominates(pop[j], pop[i]) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			pop[i].rank = 0
			first = append(first, i)
		}
	}
	cur := first
	rank := 0
	for len(cur) > 0 {
		front := make([]*solution, 0, len(cur))
		var next []int
		for _, i := range cur {
			front = append(front, pop[i])
			for _, j := range dominated[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = rank + 1
					next = append(next, j)
				}
			}
		}
		fronts = append(fronts, front)
		cur = next
		rank++
	}
	return fronts
}

// referenceUpdateArchive is the full-rebuild archive update the incremental
// archiveState replaced (append feasible batch members, pareto.Filter the
// union, truncate by crowding), kept as the equivalence oracle.
func referenceUpdateArchive(archive, batch []*solution, limit int) []*solution {
	for _, s := range batch {
		if s.eval.Violation == 0 {
			archive = append(archive, s)
		}
	}
	if len(archive) == 0 {
		return archive
	}
	objs := make([][]float64, len(archive))
	for i, s := range archive {
		objs[i] = s.eval.Objectives
	}
	keep := pareto.Filter(objs)
	filtered := make([]*solution, 0, len(keep))
	for _, i := range keep {
		filtered = append(filtered, archive[i])
	}
	if len(filtered) > limit {
		assignCrowding(filtered)
		sort.SliceStable(filtered, func(i, j int) bool { return filtered[i].crowd > filtered[j].crowd })
		filtered = filtered[:limit]
	}
	return filtered
}

// randomTestPop generates an adversarial population: clustered objective
// values (forcing exact ties and duplicate vectors), occasional constraint
// violations, and a configurable objective count.
func randomTestPop(rng *rand.Rand, n, m, levels int, infeasibleFrac float64) []*solution {
	pop := make([]*solution, n)
	for i := range pop {
		objs := make([]float64, m)
		for j := range objs {
			objs[j] = float64(rng.Intn(levels))
		}
		var viol float64
		if rng.Float64() < infeasibleFrac {
			// Few distinct violation levels, so violation ties occur too.
			viol = float64(1 + rng.Intn(3))
		}
		pop[i] = &solution{eval: Evaluation{Objectives: objs, Violation: viol}}
	}
	return pop
}

func TestENSMatchesReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := new(selScratch)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(120)
		m := 2 + rng.Intn(3)
		levels := 2 + rng.Intn(8) // small level counts force many duplicates
		pop := randomTestPop(rng, n, m, levels, 0.2)

		want := referenceNonDominatedSort(pop)
		wantRanks := make([]int, n)
		for i, s := range pop {
			wantRanks[i] = s.rank
		}
		got := sc.nonDominatedSort(pop)

		if len(got) != len(want) {
			t.Fatalf("trial %d: %d fronts, want %d", trial, len(got), len(want))
		}
		for r := range want {
			if len(got[r]) != len(want[r]) {
				t.Fatalf("trial %d front %d: %d members, want %d", trial, r, len(got[r]), len(want[r]))
			}
			for k := range want[r] {
				if got[r][k] != want[r][k] {
					t.Fatalf("trial %d front %d position %d: solution differs from reference emission order",
						trial, r, k)
				}
			}
		}
		for i, s := range pop {
			if s.rank != wantRanks[i] {
				t.Fatalf("trial %d: solution %d rank %d, want %d", trial, i, s.rank, wantRanks[i])
			}
		}
	}
}

func TestENSScratchReuseAcrossShrinkingPopulations(t *testing.T) {
	// The same scratch must stay correct when populations shrink and grow
	// between calls (stale front buffers must not leak into later results).
	rng := rand.New(rand.NewSource(7))
	sc := new(selScratch)
	for _, n := range []int{100, 3, 57, 1, 88, 2} {
		pop := randomTestPop(rng, n, 2, 4, 0.1)
		want := referenceNonDominatedSort(pop)
		got := sc.nonDominatedSort(pop)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d fronts, want %d", n, len(got), len(want))
		}
		total := 0
		for r := range want {
			total += len(got[r])
			for k := range want[r] {
				if got[r][k] != want[r][k] {
					t.Fatalf("n=%d front %d differs from reference", n, r)
				}
			}
		}
		if total != n {
			t.Fatalf("n=%d: fronts cover %d solutions", n, total)
		}
	}
}

func TestScratchCrowdingMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := new(selScratch)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(60)
		front := randomTestPop(rng, n, 2+rng.Intn(2), 5, 0)
		ref := make([]*solution, n)
		for i, s := range front {
			ref[i] = &solution{eval: s.eval}
		}
		assignCrowdingReference(ref)
		sc.assignCrowding(front)
		for i := range front {
			if front[i].crowd != ref[i].crowd && !(math.IsInf(front[i].crowd, 1) && math.IsInf(ref[i].crowd, 1)) {
				t.Fatalf("trial %d member %d: crowd %v, want %v", trial, i, front[i].crowd, ref[i].crowd)
			}
		}
	}
}

// assignCrowdingReference is the pre-kernel crowding assignment (allocating
// index slice, sort.Slice closure), kept as the crowding oracle.
func assignCrowdingReference(front []*solution) {
	n := len(front)
	if n == 0 {
		return
	}
	for _, s := range front {
		s.crowd = 0
	}
	if n <= 2 {
		for _, s := range front {
			s.crowd = math.Inf(1)
		}
		return
	}
	m := len(front[0].eval.Objectives)
	idx := make([]int, n)
	for obj := 0; obj < m; obj++ {
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			return front[idx[a]].eval.Objectives[obj] < front[idx[b]].eval.Objectives[obj]
		})
		lo := front[idx[0]].eval.Objectives[obj]
		hi := front[idx[n-1]].eval.Objectives[obj]
		front[idx[0]].crowd = math.Inf(1)
		front[idx[n-1]].crowd = math.Inf(1)
		span := hi - lo
		if span == 0 {
			continue
		}
		for k := 1; k < n-1; k++ {
			prev := front[idx[k-1]].eval.Objectives[obj]
			next := front[idx[k+1]].eval.Objectives[obj]
			front[idx[k]].crowd += (next - prev) / span
		}
	}
}

// TestIncrementalArchiveMatchesFilter extends the PR 3 pareto.Filter
// brute-force property test to the incremental archive: random solution
// streams (duplicates, infeasibles, dominated chains) inserted batch by
// batch must leave exactly the members — in exactly the order — that a
// from-scratch pareto.Filter of the feasible union would emit, as long as
// the cap never binds.
func TestIncrementalArchiveMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		m := 2 + rng.Intn(2)
		levels := 3 + rng.Intn(6)
		arch := newArchiveState(1<<30, new(selScratch)) // cap never binds
		var union []*solution
		for batches := 1 + rng.Intn(8); batches > 0; batches-- {
			batch := randomTestPop(rng, 1+rng.Intn(30), m, levels, 0.15)
			arch.add(batch)
			for _, s := range batch {
				if s.eval.Violation == 0 {
					union = append(union, s)
				}
			}
		}
		objs := make([][]float64, len(union))
		for i, s := range union {
			objs[i] = s.eval.Objectives
		}
		keep := pareto.Filter(objs)
		if len(arch.members) != len(keep) {
			t.Fatalf("trial %d: archive has %d members, Filter keeps %d", trial, len(arch.members), len(keep))
		}
		for k, i := range keep {
			if arch.members[k] != union[i] {
				t.Fatalf("trial %d position %d: archive member is not Filter's survivor", trial, k)
			}
		}
	}
}

// TestIncrementalArchiveMatchesRebuild drives the incremental archive and
// the old full-rebuild update through identical batch streams with a
// binding cap, checking member-for-member equality after every batch —
// truncation cadence included.
func TestIncrementalArchiveMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 80; trial++ {
		limit := 4 + rng.Intn(12)
		arch := newArchiveState(limit, new(selScratch))
		var ref []*solution
		for batches := 1 + rng.Intn(10); batches > 0; batches-- {
			batch := randomTestPop(rng, 1+rng.Intn(20), 2, 6, 0.1)
			arch.add(batch)
			ref = referenceUpdateArchive(ref, batch, limit)
			if len(arch.members) != len(ref) {
				t.Fatalf("trial %d: %d members, rebuild has %d", trial, len(arch.members), len(ref))
			}
			for i := range ref {
				if arch.members[i] != ref[i] {
					t.Fatalf("trial %d member %d: incremental archive diverged from rebuild", trial, i)
				}
			}
		}
	}
}

// TestArchiveTruncationTieBreakDeterministic pins satellite 1: crowding
// ties in archive truncation break by the member's pre-truncation archive
// position, so for ANY insertion order the survivors equal a stable
// sort-by-crowding of that order — never an artifact of sort internals.
func TestArchiveTruncationTieBreakDeterministic(t *testing.T) {
	// A symmetric antichain: many interior points share the same crowding
	// distance by construction (uniform spacing on a line front).
	mkMembers := func(perm []int) []*solution {
		out := make([]*solution, len(perm))
		for i, v := range perm {
			out[i] = &solution{eval: Evaluation{Objectives: []float64{float64(v), float64(len(perm) - 1 - v)}}}
		}
		return out
	}
	const n, limit = 12, 7
	base := make([]int, n)
	for i := range base {
		base[i] = i
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		perm := append([]int(nil), base...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

		arch := newArchiveState(limit, new(selScratch))
		arch.restore(mkMembers(perm))
		pre := append([]*solution(nil), arch.members...)
		arch.truncate()

		// Oracle: stable sort of pre-truncation positions by crowding
		// descending (stability = the ascending-position tie-break).
		oracle := append([]*solution(nil), pre...)
		assignCrowdingReference(oracle)
		sort.SliceStable(oracle, func(i, j int) bool { return oracle[i].crowd > oracle[j].crowd })
		oracle = oracle[:limit]

		if len(arch.members) != limit {
			t.Fatalf("trial %d: truncated to %d, want %d", trial, len(arch.members), limit)
		}
		for i := range oracle {
			if arch.members[i] != oracle[i] {
				t.Fatalf("trial %d position %d: truncation differs from the stable-sort oracle", trial, i)
			}
		}
	}
}

func TestHVTrackerMatchesHypervolume(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ref := []float64{10, 10}
	for trial := 0; trial < 50; trial++ {
		track := newHVTracker(ref)
		var live [][]float64
		for step := 0; step < 200; step++ {
			if len(live) > 0 && rng.Float64() < 0.3 {
				i := rng.Intn(len(live))
				track.remove(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				// Distinct x coordinates keep the live set an antichain-like
				// staircase; some points fall outside the reference box.
				p := []float64{rng.Float64() * 12, rng.Float64() * 12}
				conflict := false
				for _, q := range live {
					if q[0] == p[0] || q[1] == p[1] ||
						pareto.WeaklyDominates(q, p) || pareto.WeaklyDominates(p, q) {
						conflict = true
						break
					}
				}
				if conflict {
					continue
				}
				track.insert(p)
				live = append(live, p)
			}
			want := pareto.Hypervolume(live, ref)
			if math.Abs(track.hv-want) > 1e-9*(1+want) {
				t.Fatalf("trial %d step %d: tracker hv %v, Hypervolume %v", trial, step, track.hv, want)
			}
		}
	}
}

// TestPlateauNeverFiringIsByteIdentical pins the observation-only contract:
// a run with plateau termination armed but never triggered (impossible
// epsilon) returns exactly the front of a run with termination off.
func TestPlateauNeverFiringIsByteIdentical(t *testing.T) {
	p := &zdtProblem{n: 8, levels: 16}
	base := DefaultParams(24, 12, 7)
	off, err := Run(p, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	armed := base
	armed.TerminateOnPlateau = true
	armed.PlateauEps = math.SmallestNonzeroFloat64 // any improvement > 0 resets the streak
	armed.PlateauWindow = base.Generations + 1     // and the window cannot fill regardless
	on, err := Run(p, armed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if on.PlateauStopped {
		t.Fatal("plateau fired despite an unfillable window")
	}
	if on.GenerationsRun != base.Generations {
		t.Fatalf("ran %d generations, want %d", on.GenerationsRun, base.Generations)
	}
	assertSameFronts(t, off, on)
}

func assertSameFronts(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Front) != len(b.Front) {
		t.Fatalf("front sizes %d vs %d", len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		ao, bo := a.Front[i].Objectives, b.Front[i].Objectives
		for j := range ao {
			if math.Float64bits(ao[j]) != math.Float64bits(bo[j]) {
				t.Fatalf("front[%d] objective %d: %v vs %v", i, j, ao[j], bo[j])
			}
		}
		ag, bg := a.Front[i].Genome, b.Front[i].Genome
		for j := range ag.Genes {
			if ag.Genes[j] != bg.Genes[j] || ag.Order[j] != bg.Order[j] {
				t.Fatalf("front[%d] genomes differ at gene %d", i, j)
			}
		}
	}
}

// TestPlateauParity is the convergence acceptance check: on a pinned seed,
// plateau termination must stop strictly before the generation budget while
// keeping at least 99% of the fixed-budget run's hypervolume.
func TestPlateauParity(t *testing.T) {
	p := &zdtProblem{n: 8, levels: 16}
	base := DefaultParams(40, 120, 7)
	forEngines(t, func(t *testing.T, run engineFn) {
		fixed, err := run(p, base, nil)
		if err != nil {
			t.Fatal(err)
		}
		conv := base
		conv.TerminateOnPlateau = true
		early, err := run(p, conv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !early.PlateauStopped {
			t.Fatal("plateau termination never fired on the pinned seed")
		}
		if early.GenerationsRun >= base.Generations {
			t.Fatalf("plateau run used %d generations, budget %d", early.GenerationsRun, base.Generations)
		}
		ref := pareto.ReferencePoint(ReferenceMargin, fixed.FrontObjectives())
		hvFixed := pareto.Hypervolume(fixed.FrontObjectives(), ref)
		hvEarly := pareto.Hypervolume(early.FrontObjectives(), ref)
		if hvFixed <= 0 {
			t.Fatalf("degenerate fixed-run hypervolume %v", hvFixed)
		}
		if hvEarly < 0.99*hvFixed {
			t.Fatalf("plateau run hypervolume %v below 0.99× the fixed run's %v (ratio %.4f)",
				hvEarly, hvFixed, hvEarly/hvFixed)
		}
		t.Logf("plateau run: %d/%d generations, hypervolume ratio %.4f",
			early.GenerationsRun, base.Generations, hvEarly/hvFixed)
	})
}

// TestPlateauCheckpointResume: a plateau-tracked run interrupted at a
// checkpoint and resumed must stop at the same generation with the same
// front as the uninterrupted run — the PrevHVBits/streak state carries the
// exact floating-point history across the restart.
func TestPlateauCheckpointResume(t *testing.T) {
	p := &zdtProblem{n: 8, levels: 16}
	params := DefaultParams(40, 120, 7)
	params.TerminateOnPlateau = true

	full, err := Run(p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !full.PlateauStopped {
		t.Skip("plateau never fired; parity covered elsewhere")
	}

	var cps []*Checkpoint
	capture := params
	capture.CheckpointEvery = 5
	capture.OnCheckpoint = func(cp *Checkpoint) { cps = append(cps, cp) }
	if _, err := Run(p, capture, nil); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints captured before the plateau stop")
	}
	// Resume from the midpoint snapshot (exercises a non-trivial streak).
	resume := params
	resume.Resume = cps[len(cps)/2]
	if resume.Resume.Plateau == nil {
		t.Fatal("checkpoint carries no plateau state")
	}
	resumed, err := Run(p, resume, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.GenerationsRun != full.GenerationsRun || resumed.PlateauStopped != full.PlateauStopped {
		t.Fatalf("resumed run stopped at %d (stopped=%v), uninterrupted at %d (stopped=%v)",
			resumed.GenerationsRun, resumed.PlateauStopped, full.GenerationsRun, full.PlateauStopped)
	}
	assertSameFronts(t, full, resumed)
}

func TestValidatePlateauParams(t *testing.T) {
	p := DefaultParams(16, 4, 1)
	p.PlateauWindow = 3
	if err := p.Validate(); err == nil {
		t.Fatal("plateau window without TerminateOnPlateau must be rejected")
	}
	p = DefaultParams(16, 4, 1)
	p.TerminateOnPlateau = true
	p.PlateauEps = math.NaN()
	if err := p.Validate(); err == nil {
		t.Fatal("NaN plateau epsilon must be rejected")
	}
	p = DefaultParams(16, 4, 1)
	p.TerminateOnPlateau = true
	p.Migration = &Migration{Every: 2, Count: 1, Island: 0,
		Exchange: func(ctx context.Context, epoch int, out []Migrant) ([]Migrant, error) { return nil, nil }}
	if err := p.Validate(); err == nil {
		t.Fatal("plateau termination with migration must be rejected")
	}
}

func TestRunIslandsRejectsPlateau(t *testing.T) {
	p := &zdtProblem{n: 8, levels: 16}
	params := DefaultParams(16, 4, 1)
	params.TerminateOnPlateau = true
	if _, err := RunIslands(p, params, nil, IslandConfig{N: 2, Every: 2}); err == nil {
		t.Fatal("RunIslands must reject plateau termination")
	}
}

// ---- benchmarks: the selection-path kernel pairs (old vs new) ----

func benchEvaluated(size int) []*solution {
	p := &benchProblem{n: 30}
	pop := benchPopulation(p, size)
	evaluate(p, pop, 1, false)
	return pop
}

func BenchmarkNonDominatedSortOld(b *testing.B) {
	pop := benchEvaluated(192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceNonDominatedSort(pop)
	}
}

func BenchmarkNonDominatedSortENS(b *testing.B) {
	pop := benchEvaluated(192)
	sc := new(selScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.nonDominatedSort(pop)
	}
}

func BenchmarkCrowding(b *testing.B) {
	pop := benchEvaluated(192)
	sc := new(selScratch)
	fronts := sc.nonDominatedSort(pop)
	front := fronts[0]
	for _, f := range fronts {
		if len(f) > len(front) {
			front = f
		}
	}
	front = append([]*solution(nil), front...) // detach from scratch views
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.assignCrowding(front)
	}
}

func benchArchiveBatches() [][]*solution {
	rng := rand.New(rand.NewSource(21))
	batches := make([][]*solution, 24)
	for i := range batches {
		batches[i] = randomTestPop(rng, 64, 2, 64, 0)
	}
	return batches
}

func BenchmarkUpdateArchiveRebuild(b *testing.B) {
	batches := benchArchiveBatches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var archive []*solution
		for _, batch := range batches {
			archive = referenceUpdateArchive(archive, batch, 256)
		}
	}
}

func BenchmarkUpdateArchiveIncremental(b *testing.B) {
	batches := benchArchiveBatches()
	sc := new(selScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch := newArchiveState(256, sc)
		for _, batch := range batches {
			arch.add(batch)
		}
	}
}
