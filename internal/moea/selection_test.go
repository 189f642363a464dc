package moea

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// checkFrontsMatchReference runs sc's sort and the reference on pop and
// fails unless ranks, fronts and within-front emission order agree
// pointer for pointer.
func checkFrontsMatchReference(t *testing.T, sc *selScratch, pop []*solution, what string) {
	t.Helper()
	want := referenceNonDominatedSort(pop)
	wantRanks := make([]int, len(pop))
	for i, s := range pop {
		wantRanks[i] = s.rank
	}
	got := sc.nonDominatedSort(pop)
	if len(got) != len(want) {
		t.Fatalf("%s: %d fronts, want %d", what, len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			t.Fatalf("%s front %d: %d members, want %d", what, r, len(got[r]), len(want[r]))
		}
		for k := range want[r] {
			if got[r][k] != want[r][k] {
				t.Fatalf("%s front %d position %d: solution differs from reference emission order", what, r, k)
			}
		}
	}
	for i, s := range pop {
		if s.rank != wantRanks[i] {
			t.Fatalf("%s: solution %d rank %d, want %d", what, i, s.rank, wantRanks[i])
		}
	}
}

// sortSpecials are the objective values the two-objective oracle draws
// from: infinities, both zeros (equal under ==, distinct in bits) and a few
// finite levels, so duplicates and exact ties are common.
var sortSpecials = []float64{math.Inf(-1), -2, -1, math.Copysign(0, -1), 0, 0.5, 1, 3, math.Inf(1)}

// violationSpecials are the violations it draws from: both zeros
// (feasible) and tied positive levels up to +Inf.
var violationSpecials = []float64{0, math.Copysign(0, -1), 1, 2, math.Inf(1)}

// infeasibleSpecials are the violations the fuzz target and the
// odd-violation oracle draw for an infeasible solution: the positive
// levels and, beyond what core produces, negative and NaN violations.
// Both are infeasible under constraint-domination, so a feasible member
// dominates them; only the general path sees them.
var infeasibleSpecials = []float64{1, 2, math.Inf(1), -1, math.Inf(-1), math.NaN()}

// TestENSOddViolationsMatchReference pins the general path's presort to
// the FNDS oracle on populations with negative and NaN violations, with
// two to four objectives: each must place a negative violation after the
// feasible members, and a NaN one after every feasible member.
func TestENSOddViolationsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sc := new(selScratch)
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(100)
		m := 2 + rng.Intn(3)
		infeasible := rng.Float64()
		pop := make([]*solution, n)
		odd := false
		for i := range pop {
			ev := Evaluation{Objectives: make([]float64, m)}
			for k := range ev.Objectives {
				ev.Objectives[k] = sortSpecials[rng.Intn(len(sortSpecials))]
			}
			if rng.Float64() < infeasible {
				ev.Violation = infeasibleSpecials[rng.Intn(len(infeasibleSpecials))]
				odd = odd || !(ev.Violation >= 0)
			} else {
				ev.Violation = violationSpecials[rng.Intn(2)]
			}
			pop[i] = &solution{eval: ev}
		}
		if odd && sc.flatKeys(pop) {
			t.Fatalf("trial %d: a negative or NaN violation passed the two-objective gate", trial)
		}
		checkFrontsMatchReference(t, sc, pop, fmt.Sprintf("trial %d (n=%d m=%d)", trial, n, m))
	}
}

// TestBiObjectiveSortMatchesReference pins the two-objective fast path
// (O(1) front test, flat-key presort, sliding-window emission rebuild)
// to the FNDS oracle over thousands of tie-heavy populations with
// infinities, signed zeros and tied violations, and checks that a NaN
// objective, on a feasible or an infeasible member, sends a population
// down the general path, which matches too.
func TestBiObjectiveSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sc := new(selScratch)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(200)
		levels := 2 + rng.Intn(len(sortSpecials)-1)
		base := rng.Intn(len(sortSpecials) - levels + 1)
		infeasible := rng.Float64() * 0.5
		pop := make([]*solution, n)
		for i := range pop {
			ev := Evaluation{Objectives: []float64{
				sortSpecials[base+rng.Intn(levels)],
				sortSpecials[base+rng.Intn(levels)],
			}}
			if rng.Float64() < infeasible {
				ev.Violation = violationSpecials[2+rng.Intn(len(violationSpecials)-2)]
			} else {
				ev.Violation = violationSpecials[rng.Intn(2)]
			}
			pop[i] = &solution{eval: ev}
		}
		if trial%10 == 9 {
			// Up to three members get a NaN objective. A feasible one
			// ranks like a NaN violation, an infeasible one by its
			// violation alone, so the reference stays well defined.
			for range 1 + rng.Intn(3) {
				k := rng.Intn(n)
				pop[k].eval.Violation = float64(trial / 10 % 2)
				pop[k].eval.Objectives[rng.Intn(2)] = math.NaN()
			}
			if sc.flatKeys(pop) {
				t.Fatalf("trial %d: a NaN objective passed the two-objective gate", trial)
			}
		} else if !sc.flatKeys(pop) {
			t.Fatalf("trial %d: a two-objective population failed the gate", trial)
		}
		checkFrontsMatchReference(t, sc, pop, fmt.Sprintf("trial %d (n=%d)", trial, n))
	}
}

// FuzzNonDominatedSortMatchesReference drives both sort paths against the
// FNDS oracle: the first byte picks the objective count (2–4), the second
// the violation share, and each further group of bytes one solution's
// objectives and violation over the special-value tables, negative and
// NaN violations and NaN objectives included. Its seed corpus is under
// testdata/fuzz/.
func FuzzNonDominatedSortMatchesReference(f *testing.F) {
	sc := new(selScratch)
	objectiveSpecials := append(slices.Clone(sortSpecials), math.NaN())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := 2 + int(data[0])%3
		infeasible := int(data[1]) % 4
		var pop []*solution
		for q := 2; q+m < len(data) && len(pop) < 128; q += m + 1 {
			ev := Evaluation{Objectives: make([]float64, m)}
			for k := range ev.Objectives {
				ev.Objectives[k] = objectiveSpecials[int(data[q+k])%len(objectiveSpecials)]
			}
			if b := int(data[q+m]); b%4 < infeasible {
				ev.Violation = infeasibleSpecials[b/4%len(infeasibleSpecials)]
			} else {
				ev.Violation = violationSpecials[b/4%2]
			}
			pop = append(pop, &solution{eval: ev})
		}
		checkFrontsMatchReference(t, sc, pop, fmt.Sprintf("m=%d n=%d", m, len(pop)))
	})
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
	// Tie-heavy fronts: with two or three levels per objective most
	// members tie, so which tied member the sort puts on the Inf boundary,
	// and which neighbours the interior members see, depend on the sort's
	// permutation; it must stay sort.Slice's. Infinite levels add NaN
	// crowding terms (Inf−Inf), which must match too.
	for trial := 0; trial < 400; trial++ {
		n := 3 + rng.Intn(80)
		m := 2 + rng.Intn(2)
		levels := 2 + rng.Intn(2)
		base := rng.Intn(len(sortSpecials) - levels + 1)
		front := make([]*solution, n)
		ref := make([]*solution, n)
		for i := range front {
			objs := make([]float64, m)
			for k := range objs {
				objs[k] = sortSpecials[base+rng.Intn(levels)]
			}
			front[i] = &solution{eval: Evaluation{Objectives: objs}}
			ref[i] = &solution{eval: front[i].eval}
		}
		assignCrowdingReference(ref)
		sc.assignCrowding(front)
		for i := range front {
			if math.Float64bits(front[i].crowd) != math.Float64bits(ref[i].crowd) {
				t.Fatalf("tie-heavy trial %d member %d: crowd %v, want %v", trial, i, front[i].crowd, ref[i].crowd)
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

// ---- benchmarks: the selection-path kernel pairs (old vs new) ----

func benchEvaluated(size int) []*solution {
	p := &benchProblem{n: 30}
	pop := benchPopulation(p, size)
	(&runState{p: p, params: Params{Workers: 1}}).evaluate(pop)
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

// BenchmarkNonDominatedSortENS3 keeps the general path measured: a
// three-objective population never takes the two-objective fast path that
// BenchmarkNonDominatedSortENS runs.
func BenchmarkNonDominatedSortENS3(b *testing.B) {
	pop := benchEvaluated(192)
	for _, s := range pop {
		var c float64
		for t, g := range s.genome.Genes {
			c += float64(int(g.PE) * int(g.Impl+1) * (t%5 + 1))
		}
		s.eval.Objectives = append(s.eval.Objectives, c)
	}
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

// nonDominatedSort and assignCrowding run the selection kernels on a
// throwaway scratch.
func nonDominatedSort(pop []*solution) [][]*solution {
	return new(selScratch).nonDominatedSort(pop)
}

func assignCrowding(front []*solution) {
	new(selScratch).assignCrowding(front)
}

// updateArchive is the one-shot form of archiveState.add: merge batch into
// archive and return the new member list.
func updateArchive(archive, batch []*solution, limit int) []*solution {
	a := newArchiveState(limit, new(selScratch))
	a.members = archive
	a.add(batch)
	return a.members
}
