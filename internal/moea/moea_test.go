package moea

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/pareto"
)

// FrontObjectives extracts the objective vectors of the front.
func (r *Result) FrontObjectives() [][]float64 {
	out := make([][]float64, len(r.Front))
	for i, s := range r.Front {
		out[i] = s.Objectives
	}
	return out
}

// zdtProblem is a discretized ZDT1-style benchmark mapped onto the genome
// encoding: each task's Impl field is a decision variable in [0, levels).
// The known Pareto-optimal front is f2 = 1 − sqrt(f1) at g = 1 (all
// variables beyond the first equal to zero).
type zdtProblem struct {
	n      int
	levels int
}

func (p *zdtProblem) NumTasks() int      { return p.n }
func (p *zdtProblem) NumObjectives() int { return 2 }
func (p *zdtProblem) RandomGene(rng *rand.Rand, task int) Gene {
	return Gene{Impl: rng.Intn(p.levels)}
}
func (p *zdtProblem) MutateGene(rng *rand.Rand, task int, g Gene) Gene {
	g.Impl = rng.Intn(p.levels)
	return g
}
func (p *zdtProblem) Evaluate(g *Genome) Evaluation {
	x := func(t int) float64 { return float64(g.Genes[t].Impl) / float64(p.levels-1) }
	f1 := x(0)
	sum := 0.0
	for t := 1; t < p.n; t++ {
		sum += x(t)
	}
	gv := 1 + 9*sum/float64(p.n-1)
	f2 := gv * (1 - math.Sqrt(f1/gv))
	return Evaluation{Objectives: []float64{f1, f2}}
}

// orderProblem rewards orders close to the identity permutation: the single
// objective is the total displacement. Exercises the scheduling crossover
// and mutation machinery.
type orderProblem struct{ n int }

func (p *orderProblem) NumTasks() int                               { return p.n }
func (p *orderProblem) NumObjectives() int                          { return 1 }
func (p *orderProblem) RandomGene(*rand.Rand, int) Gene             { return Gene{} }
func (p *orderProblem) MutateGene(_ *rand.Rand, _ int, g Gene) Gene { return g }
func (p *orderProblem) Evaluate(g *Genome) Evaluation {
	d := 0.0
	for pos, t := range g.Order {
		d += math.Abs(float64(pos - t))
	}
	return Evaluation{Objectives: []float64{d}}
}

// constrainedProblem forbids f1 < 0.3.
type constrainedProblem struct{ zdtProblem }

func (p *constrainedProblem) Evaluate(g *Genome) Evaluation {
	ev := p.zdtProblem.Evaluate(g)
	if ev.Objectives[0] < 0.3 {
		ev.Violation = 0.3 - ev.Objectives[0]
	}
	return ev
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams(40, 10, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Params){
		func(p *Params) { p.PopSize = 1 },
		func(p *Params) { p.Generations = 0 },
		func(p *Params) { p.CrossoverProb = 1.5 },
		func(p *Params) { p.MutationProb = -0.1 },
		func(p *Params) { p.TournamentK = 0 },
	}
	for i, mut := range bads {
		p := good
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected parameter error", i)
		}
	}
}

func TestGenomeValidate(t *testing.T) {
	ok := &Genome{Order: []int{1, 0}, Genes: make([]Gene, 2)}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad1 := &Genome{Order: []int{0}, Genes: make([]Gene, 2)}
	if err := bad1.Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	bad2 := &Genome{Order: []int{0, 0}, Genes: make([]Gene, 2)}
	if err := bad2.Validate(); err == nil {
		t.Error("non-permutation accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := &Genome{Order: []int{0, 1}, Genes: make([]Gene, 2)}
	c := g.Clone()
	c.Order[0] = 1
	c.Genes[0].PE = 7
	if g.Order[0] != 0 || g.Genes[0].PE != 7 && g.Genes[0].PE != 0 && false {
		t.Fatal("unexpected")
	}
	if g.Genes[0].PE == 7 {
		t.Fatal("Clone shares gene storage")
	}
}

func TestCrossoverOrderPreservesPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		a := &Genome{Order: rng.Perm(n), Genes: make([]Gene, n)}
		b := &Genome{Order: rng.Perm(n), Genes: make([]Gene, n)}
		crossoverOrder(rng, a, b, new(orderScratch))
		if err := a.Validate(); err != nil {
			t.Fatalf("child A invalid: %v", err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("child B invalid: %v", err)
		}
	}
}

// orderCrossOracle is the allocating OX1 operator crossoverOrder replaced:
// head[:cut] followed by tail's remaining tasks in tail's order.
func orderCrossOracle(head, tail []int, cut int) []int {
	out := append([]int(nil), head[:cut]...)
	used := make([]bool, len(head))
	for _, t := range out {
		used[t] = true
	}
	for _, t := range tail {
		if !used[t] {
			out = append(out, t)
		}
	}
	return out
}

// TestCrossoverOrderMatchesOracle: the in-place crossover with reused
// scratch builds the oracle's children and draws the same random numbers.
func TestCrossoverOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sc := new(orderScratch)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		a := &Genome{Order: rng.Perm(n), Genes: make([]Gene, n)}
		b := &Genome{Order: rng.Perm(n), Genes: make([]Gene, n)}
		seed := rng.Int63()
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		wantA, wantB := a.Order, b.Order
		if n >= 2 {
			cut := 1 + r2.Intn(n-1)
			wantA, wantB = orderCrossOracle(a.Order, b.Order, cut), orderCrossOracle(b.Order, a.Order, cut)
		}
		crossoverOrder(r1, a, b, sc)
		if !slices.Equal(a.Order, wantA) || !slices.Equal(b.Order, wantB) {
			t.Fatalf("trial %d: children %v %v, oracle %v %v", trial, a.Order, b.Order, wantA, wantB)
		}
		if r1.Int63() != r2.Int63() {
			t.Fatalf("trial %d: random draw sequence changed", trial)
		}
	}
}

func TestMutateOrderPreservesPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(25)
		g := &Genome{Order: rng.Perm(n), Genes: make([]Gene, n)}
		mutateOrder(rng, g)
		if err := g.Validate(); err != nil {
			t.Fatalf("mutated genome invalid (n=%d): %v", n, err)
		}
	}
}

func TestCrossoverConfigSwapsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 10
	a := &Genome{Order: rng.Perm(n), Genes: make([]Gene, n)}
	b := &Genome{Order: rng.Perm(n), Genes: make([]Gene, n)}
	for i := 0; i < n; i++ {
		a.Genes[i].PE = 1
		b.Genes[i].PE = 2
	}
	crossoverConfig(rng, a, b)
	// Multiset of PE values must be preserved globally.
	ones, twos := 0, 0
	for i := 0; i < n; i++ {
		for _, g := range []Gene{a.Genes[i], b.Genes[i]} {
			switch g.PE {
			case 1:
				ones++
			case 2:
				twos++
			default:
				t.Fatal("crossover invented a gene value")
			}
		}
		// Per-slot: must remain one '1' and one '2'.
		if a.Genes[i].PE == b.Genes[i].PE {
			t.Fatal("crossover duplicated a slot")
		}
	}
	if ones != n || twos != n {
		t.Fatalf("gene multiset changed: %d ones, %d twos", ones, twos)
	}
}

func TestZDTConvergence(t *testing.T) {
	p := &zdtProblem{n: 12, levels: 33}
	res, err := Run(p, DefaultParams(60, 60, 7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	// The front must be mutually non-dominated.
	objs := res.FrontObjectives()
	if got := len(pareto.Filter(objs)); got != len(objs) {
		t.Fatalf("front contains dominated points: %d of %d survive", got, len(objs))
	}
	// Convergence: hypervolume must beat a random-sampling baseline with
	// the same evaluation budget.
	rng := rand.New(rand.NewSource(8))
	var randObjs [][]float64
	for i := 0; i < res.Evaluations; i++ {
		ev := p.Evaluate(RandomGenome(rng, p))
		randObjs = append(randObjs, ev.Objectives)
	}
	ref := pareto.ReferencePoint(0.1, objs, randObjs)
	hvGA := pareto.Hypervolume(objs, ref)
	hvRand := pareto.Hypervolume(randObjs, ref)
	if hvGA <= hvRand {
		t.Fatalf("GA hypervolume %v not better than random %v", hvGA, hvRand)
	}
	// Close to the analytic front: mean g-value of front members low.
	for _, s := range res.Front {
		f1, f2 := s.Objectives[0], s.Objectives[1]
		if f2 > 1.8-math.Sqrt(f1) {
			t.Fatalf("front point (%v,%v) far from optimal front", f1, f2)
		}
	}
}

func TestOrderConvergence(t *testing.T) {
	p := &orderProblem{n: 14}
	res, err := Run(p, DefaultParams(50, 80, 11), nil)
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, s := range res.Front {
		if s.Objectives[0] < best {
			best = s.Objectives[0]
		}
	}
	// Random permutations of 14 average ~65 displacement; the GA must get
	// close to sorted.
	if best > 12 {
		t.Fatalf("best displacement %v, want near 0", best)
	}
}

func TestConstraintHandling(t *testing.T) {
	p := &constrainedProblem{zdtProblem{n: 8, levels: 17}}
	res, err := Run(p, DefaultParams(40, 40, 13), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("no feasible solutions found")
	}
	for _, s := range res.Front {
		if s.Objectives[0] < 0.3-1e-12 {
			t.Fatalf("front contains infeasible point f1=%v", s.Objectives[0])
		}
	}
}

func TestSeedingInjectsSolutions(t *testing.T) {
	p := &zdtProblem{n: 10, levels: 21}
	// A seed on the true optimal front: x1 = 0, rest 0 → f = (0, 1).
	seed := &Genome{Order: make([]int, 10), Genes: make([]Gene, 10)}
	for i := range seed.Order {
		seed.Order[i] = i
	}
	params := DefaultParams(30, 1, 17)
	res, err := Run(p, params, []*Genome{seed})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.Front {
		if s.Objectives[0] == 0 && math.Abs(s.Objectives[1]-1) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Fatal("optimal seed lost from the archive")
	}
}

func TestSeedingImprovesEarlyQuality(t *testing.T) {
	p := &zdtProblem{n: 16, levels: 33}
	params := DefaultParams(40, 5, 19)
	unseeded, err := Run(p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Seed several near-optimal genomes (x_i = 0, varying x_0).
	var seeds []*Genome
	for k := 0; k < 8; k++ {
		g := &Genome{Order: make([]int, 16), Genes: make([]Gene, 16)}
		for i := range g.Order {
			g.Order[i] = i
		}
		g.Genes[0].Impl = k * 4
		seeds = append(seeds, g)
	}
	seeded, err := Run(p, params, seeds)
	if err != nil {
		t.Fatal(err)
	}
	s, u := seeded.FrontObjectives(), unseeded.FrontObjectives()
	ref := pareto.ReferencePoint(0.1, s, u)
	if hvS, hvU := pareto.Hypervolume(s, ref), pareto.Hypervolume(u, ref); hvS <= hvU {
		t.Fatalf("seeding did not improve early front quality: hypervolume %v vs %v", hvS, hvU)
	}
}

func TestRunRejectsBadSeeds(t *testing.T) {
	p := &zdtProblem{n: 5, levels: 9}
	forEngines(t, func(t *testing.T, run engineFn) {
		bad := &Genome{Order: []int{0, 1}, Genes: make([]Gene, 2)}
		if _, err := run(p, DefaultParams(10, 2, 1), []*Genome{bad}); err == nil {
			t.Fatal("seed with wrong arity accepted")
		}
		invalid := &Genome{Order: []int{0, 0, 1, 2, 3}, Genes: make([]Gene, 5)}
		if _, err := run(p, DefaultParams(10, 2, 1), []*Genome{invalid}); err == nil {
			t.Fatal("non-permutation seed accepted")
		}
	})
}

func TestDeterminism(t *testing.T) {
	p := &zdtProblem{n: 8, levels: 17}
	params := DefaultParams(30, 10, 23)
	params.Workers = 4 // parallel evaluation must not break determinism
	a, err := Run(p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	ao, bo := a.FrontObjectives(), b.FrontObjectives()
	if len(ao) != len(bo) {
		t.Fatalf("nondeterministic front sizes: %d vs %d", len(ao), len(bo))
	}
	for i := range ao {
		for j := range ao[i] {
			if ao[i][j] != bo[i][j] {
				t.Fatal("nondeterministic front contents")
			}
		}
	}
}

func TestNonDominatedSortRanks(t *testing.T) {
	mk := func(objs ...float64) *solution {
		return &solution{eval: Evaluation{Objectives: objs}}
	}
	pop := []*solution{
		mk(1, 1), // rank 0
		mk(2, 2), // rank 1
		mk(3, 3), // rank 2
		mk(0, 4), // rank 0 (incomparable with (1,1))
	}
	fronts := nonDominatedSort(pop)
	if len(fronts) != 3 {
		t.Fatalf("got %d fronts, want 3", len(fronts))
	}
	if pop[0].rank != 0 || pop[3].rank != 0 || pop[1].rank != 1 || pop[2].rank != 2 {
		t.Fatalf("ranks wrong: %d %d %d %d", pop[0].rank, pop[1].rank, pop[2].rank, pop[3].rank)
	}
}

func TestConstrainedDominates(t *testing.T) {
	feasA := &solution{eval: Evaluation{Objectives: []float64{1, 1}}}
	feasB := &solution{eval: Evaluation{Objectives: []float64{2, 2}}}
	infeasSmall := &solution{eval: Evaluation{Objectives: []float64{0, 0}, Violation: 0.1}}
	infeasBig := &solution{eval: Evaluation{Objectives: []float64{0, 0}, Violation: 0.5}}
	if !constrainedDominates(feasA, feasB) {
		t.Error("feasible dominance failed")
	}
	if !constrainedDominates(feasB, infeasSmall) {
		t.Error("feasible must dominate infeasible")
	}
	if constrainedDominates(infeasSmall, feasB) {
		t.Error("infeasible must not dominate feasible")
	}
	if !constrainedDominates(infeasSmall, infeasBig) {
		t.Error("smaller violation must dominate")
	}
}

func TestCrowdingBoundariesInfinite(t *testing.T) {
	mk := func(objs ...float64) *solution {
		return &solution{eval: Evaluation{Objectives: objs}}
	}
	front := []*solution{mk(0, 3), mk(1, 2), mk(2, 1), mk(3, 0)}
	assignCrowding(front)
	if !math.IsInf(front[0].crowd, 1) || !math.IsInf(front[3].crowd, 1) {
		t.Fatal("extreme points must have infinite crowding distance")
	}
	if math.IsInf(front[1].crowd, 1) || front[1].crowd <= 0 {
		t.Fatalf("interior crowding distance %v invalid", front[1].crowd)
	}
}

func TestPropertyOperatorsPreserveValidity(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		rng := rand.New(rand.NewSource(seed))
		a := &Genome{Order: rng.Perm(n), Genes: make([]Gene, n)}
		b := &Genome{Order: rng.Perm(n), Genes: make([]Gene, n)}
		crossoverConfig(rng, a, b)
		crossoverOrder(rng, a, b, new(orderScratch))
		mutateOrder(rng, a)
		mutateOrder(rng, b)
		return a.Validate() == nil && b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFixedOrderPinsSchedules(t *testing.T) {
	p := &zdtProblem{n: 8, levels: 9}
	params := DefaultParams(20, 6, 31)
	fixed := []int{7, 6, 5, 4, 3, 2, 1, 0}
	params.FixedOrder = fixed
	forEngines(t, func(t *testing.T, run engineFn) {
		res, err := run(p, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range res.Front {
			for i, v := range s.Genome.Order {
				if v != fixed[i] {
					t.Fatal("fixed order not preserved through the run")
				}
			}
		}
	})
}

func TestFixedOrderValidation(t *testing.T) {
	p := &zdtProblem{n: 5, levels: 9}
	forEngines(t, func(t *testing.T, run engineFn) {
		params := DefaultParams(10, 2, 1)
		params.FixedOrder = []int{0, 1} // wrong arity
		if _, err := run(p, params, nil); err == nil {
			t.Fatal("short fixed order accepted")
		}
		params.FixedOrder = []int{0, 0, 1, 2, 3} // not a permutation
		if _, err := run(p, params, nil); err == nil {
			t.Fatal("non-permutation fixed order accepted")
		}
	})
}

func TestRandomSearchBasics(t *testing.T) {
	p := &zdtProblem{n: 8, levels: 17}
	res, err := RandomSearch(p, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 500 {
		t.Fatalf("evaluations = %d, want 500", res.Evaluations)
	}
	objs := res.FrontObjectives()
	if len(objs) == 0 {
		t.Fatal("empty random-search front")
	}
	if got := len(pareto.Filter(objs)); got != len(objs) {
		t.Fatal("random-search front contains dominated points")
	}
	if _, err := RandomSearch(p, 0, 1); err == nil {
		t.Fatal("zero evaluations accepted")
	}
}

func TestRandomSearchRespectsConstraints(t *testing.T) {
	p := &constrainedProblem{zdtProblem{n: 6, levels: 9}}
	res, err := RandomSearch(p, 800, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Front {
		if s.Objectives[0] < 0.3-1e-12 {
			t.Fatal("infeasible point in random-search front")
		}
	}
}

func TestOperatorDisableFlags(t *testing.T) {
	p := &orderProblem{n: 10}
	params := DefaultParams(20, 10, 11)
	params.DisableOrderCrossover = true
	params.DisableOrderMutation = true
	params.DisableConfigCrossover = true
	// With all order operators off and no config effect, orders are frozen
	// at their random initialization: the best front member must be one of
	// the initial permutations (no improvement machinery exists).
	res, err := Run(p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
}

func TestArchiveCapTruncation(t *testing.T) {
	p := &zdtProblem{n: 10, levels: 65}
	params := DefaultParams(40, 20, 29)
	params.ArchiveCap = 8
	res, err := Run(p, params, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) > 8 {
		t.Fatalf("archive exceeded cap: %d points", len(res.Front))
	}
	if len(res.Front) == 0 {
		t.Fatal("empty capped archive")
	}
	// The capped front must still be mutually non-dominated.
	objs := res.FrontObjectives()
	if got := len(pareto.Filter(objs)); got != len(objs) {
		t.Fatal("capped archive contains dominated points")
	}
}

func TestUpdateArchiveDropsInfeasible(t *testing.T) {
	feasible := &solution{eval: Evaluation{Objectives: []float64{1, 1}}}
	infeasible := &solution{eval: Evaluation{Objectives: []float64{0, 0}, Violation: 1}}
	archive := updateArchive(nil, []*solution{feasible, infeasible}, 10)
	if len(archive) != 1 || archive[0] != feasible {
		t.Fatalf("archive = %d entries, want only the feasible one", len(archive))
	}
}
