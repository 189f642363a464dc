package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/characterize"
	"repro/internal/moea"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/tdse"
	"repro/internal/tgff"
)

// sobelInstance returns a small, fast instance for unit tests.
func sobelInstance() *Instance {
	p := platform.Default()
	return &Instance{
		Graph:      taskgraph.Sobel(),
		Platform:   p,
		Lib:        characterize.Sobel(p),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: DefaultObjectives(),
	}
}

// synInstance returns a synthetic instance with the given task count.
func synInstance(tasks int, seed int64) *Instance {
	p := platform.Default()
	return &Instance{
		Graph:      tgff.MustGenerate(tgff.DefaultConfig(tasks), seed),
		Platform:   p,
		Lib:        characterize.Synthetic(p, characterize.DefaultSyntheticConfig(10), seed+1),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: DefaultObjectives(),
	}
}

func smallCfg(seed int64) RunConfig {
	return RunConfig{Pop: 24, Gens: 12, Seed: seed}
}

func filteredLib(t *testing.T, inst *Instance) *tdse.Library {
	t.Helper()
	fl, err := tdse.Build(inst.Lib, inst.Platform, inst.Catalog, tdse.DefaultOptions(),
		[]tdse.Objective{tdse.AvgExT, tdse.ErrProb})
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

func TestInstanceValidate(t *testing.T) {
	inst := sobelInstance()
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *inst
	bad.Lib = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil library accepted")
	}
	bad2 := *inst
	bad2.Objectives = nil
	if err := bad2.Validate(); err == nil {
		t.Error("empty objectives accepted")
	}
	// Application using more types than the library characterizes.
	b := taskgraph.NewBuilder("wide", 1e4)
	b.AddTask("t", 11, 1)
	bad3 := *inst
	bad3.Graph = b.MustBuild()
	if err := bad3.Validate(); err == nil {
		t.Error("uncharacterized task type accepted")
	}
}

func TestSystemObjectiveStrings(t *testing.T) {
	for _, o := range []SystemObjective{Makespan, AppErrProb, Lifetime, Energy, PeakPower} {
		if o.String() == "" {
			t.Fatal("empty objective name")
		}
	}
	if SystemObjective(42).String() == "" {
		t.Fatal("unknown objective should render")
	}
	if LayerDVFS.String() != "DVFS" || Layer(9).String() == "" {
		t.Fatal("layer names wrong")
	}
}

func TestObjectiveValueSigns(t *testing.T) {
	r := &schedule.Result{MakespanUS: 10, ErrProb: 0.2, MTTFHours: 100, EnergyUJ: 5, PeakPowerW: 3}
	if objectiveValue(r, Makespan) != 10 || objectiveValue(r, AppErrProb) != 0.2 {
		t.Fatal("direct objectives wrong")
	}
	if objectiveValue(r, Lifetime) != -100 {
		t.Fatal("lifetime must be negated")
	}
	if objectiveValue(r, Energy) != 5 || objectiveValue(r, PeakPower) != 3 {
		t.Fatal("energy/power wrong")
	}
}

func TestFcCLRProducesValidFront(t *testing.T) {
	inst := sobelInstance()
	front, err := FcCLR(inst, smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Fatal("empty front")
	}
	objs := front.ObjectiveMatrix()
	if got := len(pareto.Filter(objs)); got != len(objs) {
		t.Fatalf("front not mutually non-dominated: %d of %d", got, len(objs))
	}
	for _, p := range front.Points {
		if p.QoS == nil || p.Genome == nil {
			t.Fatal("front point missing QoS or genome")
		}
		if p.Objectives[0] != p.QoS.MakespanUS || p.Objectives[1] != p.QoS.ErrProb {
			t.Fatal("objectives inconsistent with decoded QoS")
		}
		if err := p.Genome.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPfCLRProducesValidFront(t *testing.T) {
	inst := sobelInstance()
	fl := filteredLib(t, inst)
	front, err := PfCLR(inst, smallCfg(2), fl)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Fatal("empty front")
	}
	// Every decoded point must use only filtered candidates; spot-check by
	// re-decoding and confirming QoS matches objectives.
	for _, p := range front.Points {
		if math.Abs(p.Objectives[1]-p.QoS.ErrProb) > 1e-12 {
			t.Fatal("pfCLR decode mismatch")
		}
	}
}

// hvImprovement is the percentage hypervolume gain of front a over front b
// under a reference point derived from both; positive means a is better.
func hvImprovement(a, b *Front) float64 {
	pa, pb := a.ObjectiveMatrix(), b.ObjectiveMatrix()
	ref := pareto.ReferencePoint(0.1, pa, pb)
	hvB := pareto.Hypervolume(pb, ref)
	return 100 * (pareto.Hypervolume(pa, ref) - hvB) / hvB
}

func TestProposedBeatsOrMatchesFcCLR(t *testing.T) {
	// The paper's headline claim (TABLE VI): the seeded two-stage method
	// improves on plain fcCLR.
	inst := synInstance(15, 3)
	fl := filteredLib(t, inst)
	cfg := RunConfig{Pop: 32, Gens: 16, Seed: 5}
	fc, err := FcCLR(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Proposed(inst, cfg, fl)
	if err != nil {
		t.Fatal(err)
	}
	imp := hvImprovement(prop, fc)
	if imp < 0 {
		t.Fatalf("proposed hypervolume improvement over fcCLR = %v%%, want ≥ 0", imp)
	}
}

func TestProposedBeatsOrMatchesPfCLR(t *testing.T) {
	// Seeding guarantees the fcCLR stage starts from the pfCLR front, so
	// the proposed front can only be at least as good.
	inst := synInstance(12, 7)
	fl := filteredLib(t, inst)
	cfg := RunConfig{Pop: 24, Gens: 10, Seed: 9}
	pf, err := PfCLR(inst, cfg, fl)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Proposed(inst, cfg, fl)
	if err != nil {
		t.Fatal(err)
	}
	imp := hvImprovement(prop, pf)
	if imp < -1e-9 {
		t.Fatalf("proposed worse than its own pfCLR stage: %v%%", imp)
	}
}

func TestCLRBeatsAgnostic(t *testing.T) {
	// Fig. 7 / TABLE V: joint cross-layer optimization dominates the
	// merged single-layer fronts.
	inst := synInstance(15, 11)
	cfg := RunConfig{Pop: 28, Gens: 14, Seed: 13}
	clr, err := Proposed(inst, cfg, filteredLib(t, inst))
	if err != nil {
		t.Fatal(err)
	}
	agn, perLayer, err := Agnostic(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(perLayer) != 4 {
		t.Fatalf("expected 4 single-layer fronts, got %d", len(perLayer))
	}
	imp := hvImprovement(clr, agn)
	if imp <= 0 {
		t.Fatalf("CLR improvement over agnostic = %v%%, want > 0", imp)
	}
}

func TestSingleLayerRestrictionsHonored(t *testing.T) {
	inst := sobelInstance()
	p := newFCProblem(inst, layerRestriction{freeHW: true})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		g := p.RandomGene(rng, 0)
		_, asg, _ := p.decodeGene(0, g)
		if asg.Mode != 0 || asg.SSW != 0 || asg.ASW != 0 {
			t.Fatal("HW-only restriction leaked other layers")
		}
	}
	// Mutation must not escape the restriction either.
	g := p.RandomGene(rng, 0)
	for i := 0; i < 100; i++ {
		g = p.MutateGene(rng, 0, g)
		_, asg, _ := p.decodeGene(0, g)
		if asg.Mode != 0 || asg.SSW != 0 || asg.ASW != 0 {
			t.Fatal("mutation escaped HW-only restriction")
		}
	}
}

func TestSingleLayerUnknownLayer(t *testing.T) {
	if _, err := SingleLayer(sobelInstance(), smallCfg(1), Layer(9)); err == nil {
		t.Fatal("unknown layer accepted")
	}
}

func TestDecodeGeneAlwaysValid(t *testing.T) {
	inst := sobelInstance()
	p := newFCProblem(inst, allFree)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		task := rng.Intn(inst.Graph.NumTasks())
		g := moea.Gene{
			Impl: rng.Intn(1000) - 500,
			PE:   rng.Intn(1000) - 500,
			Mode: rng.Intn(1000) - 500,
			HW:   rng.Intn(1000) - 500,
			SSW:  rng.Intn(1000) - 500,
			ASW:  rng.Intn(1000) - 500,
		}
		impl, asg, pe := p.decodeGene(task, g)
		if pe < 0 || pe >= inst.Platform.NumPEs() {
			t.Fatal("decoded PE out of range")
		}
		pt := inst.Platform.Types()[impl.PETypeIndex]
		if inst.Platform.PEs[pe].Type != pt {
			t.Fatal("decoded PE incompatible with implementation")
		}
		if err := asg.CheckAgainst(inst.Catalog, len(pt.Modes)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMetricsCacheConsistency(t *testing.T) {
	inst := sobelInstance()
	p := newFCProblem(inst, allFree)
	g := moea.Gene{Impl: 1, PE: 2, Mode: 1, HW: 2, SSW: 1, ASW: 3}
	m1, pe1 := p.taskMetrics(0, g)
	m2, pe2 := p.taskMetrics(0, g) // cached path
	if m1 != m2 || pe1 != pe2 {
		t.Fatal("cached metrics differ from fresh evaluation")
	}
}

func TestSpecViolation(t *testing.T) {
	r := &schedule.Result{
		MakespanUS: 1000, FunctionalRel: 0.9, MTTFHours: 1e4,
		EnergyUJ: 500, PeakPowerW: 4,
	}
	if v := specViolation(schedule.Spec{}, r); v != 0 {
		t.Fatalf("unconstrained violation = %v", v)
	}
	v := specViolation(schedule.Spec{MaxMakespanUS: 500}, r)
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("makespan violation = %v, want 1 (100%% over)", v)
	}
	if v := specViolation(schedule.Spec{MaxMakespanUS: 2000, MinFunctionalRel: 0.8}, r); v != 0 {
		t.Fatalf("satisfied spec violated: %v", v)
	}
}

func TestConstrainedRunRespectsSpec(t *testing.T) {
	inst := sobelInstance()
	// First find the typical makespan range, then constrain to its middle.
	free, err := FcCLR(inst, smallCfg(17))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range free.Points {
		lo = math.Min(lo, p.QoS.MakespanUS)
		hi = math.Max(hi, p.QoS.MakespanUS)
	}
	limit := (lo + hi) / 2
	inst.Spec = schedule.Spec{MaxMakespanUS: limit}
	constrained, err := FcCLR(inst, smallCfg(18))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range constrained.Points {
		if p.QoS.MakespanUS > limit {
			t.Fatalf("front point violates makespan spec: %v > %v", p.QoS.MakespanUS, limit)
		}
	}
}

func TestReencodeSeedsPreserveQoS(t *testing.T) {
	// A pfCLR solution re-encoded into the fcCLR space must evaluate to
	// exactly the same QoS metrics.
	inst := sobelInstance()
	fl := filteredLib(t, inst)
	pf, err := PfCLR(inst, smallCfg(21), fl)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := reencodeSeeds(inst, fl, pf)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != len(pf.Points) {
		t.Fatalf("re-encoded %d seeds from %d points", len(seeds), len(pf.Points))
	}
	fc := newFCProblem(inst, allFree)
	for i, s := range seeds {
		res := fc.decodeResult(s)
		want := pf.Points[i].QoS
		if math.Abs(res.MakespanUS-want.MakespanUS) > 1e-9 ||
			math.Abs(res.ErrProb-want.ErrProb) > 1e-12 {
			t.Fatalf("seed %d QoS drift: makespan %v→%v, errprob %v→%v",
				i, want.MakespanUS, res.MakespanUS, want.ErrProb, res.ErrProb)
		}
	}
}

func TestCheckFilteredLibraryErrors(t *testing.T) {
	inst := sobelInstance()
	if err := checkFilteredLibrary(inst, nil); err == nil {
		t.Error("nil library accepted")
	}
	short := &tdse.Library{ByType: make([][]tdse.Candidate, 2)}
	if err := checkFilteredLibrary(inst, short); err == nil {
		t.Error("short library accepted")
	}
	empty := &tdse.Library{ByType: make([][]tdse.Candidate, 4)}
	if err := checkFilteredLibrary(inst, empty); err == nil {
		t.Error("library with empty type accepted")
	}
}

func TestSearchSpaceLog10(t *testing.T) {
	inst := sobelInstance()
	fl := filteredLib(t, inst)
	fc, pf := SearchSpaceLog10(inst, fl)
	if !(fc > pf) {
		t.Fatalf("fcCLR space (1e%v) must exceed pfCLR space (1e%v)", fc, pf)
	}
	if pf <= 0 || math.IsNaN(fc) {
		t.Fatal("implausible space sizes")
	}
	_, pfNil := SearchSpaceLog10(inst, nil)
	if !math.IsNaN(pfNil) {
		t.Fatal("nil filtered library should yield NaN pf size")
	}
}

func TestModHelper(t *testing.T) {
	if mod(-1, 3) != 2 || mod(5, 3) != 2 || mod(0, 1) != 0 {
		t.Fatal("mod wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mod of empty range must panic")
		}
	}()
	mod(1, 0)
}

func TestEvaluateMappingCommInvariant(t *testing.T) {
	// For one and the same mapping, enabling interconnect delays can only
	// lengthen the schedule — the invariant behind the comm ablation.
	inst := synInstance(12, 31)
	front, err := FcCLR(inst, smallCfg(33))
	if err != nil {
		t.Fatal(err)
	}
	commInst := *inst
	commInst.Comm = schedule.CommModel{StartupUS: 50, PerKBUS: 5}
	for _, p := range front.Points {
		free, err := EvaluateMapping(inst, p.Genome)
		if err != nil {
			t.Fatal(err)
		}
		withComm, err := EvaluateMapping(&commInst, p.Genome)
		if err != nil {
			t.Fatal(err)
		}
		if withComm.MakespanUS < free.MakespanUS-1e-9 {
			t.Fatalf("comm delays shortened a schedule: %v < %v",
				withComm.MakespanUS, free.MakespanUS)
		}
		if free.ErrProb != withComm.ErrProb {
			t.Fatal("comm model must not affect functional reliability")
		}
	}
}

func TestEvaluateMappingValidation(t *testing.T) {
	inst := sobelInstance()
	bad := &moea.Genome{Order: []int{0, 1}, Genes: make([]moea.Gene, 2)}
	if _, err := EvaluateMapping(inst, bad); err == nil {
		t.Fatal("wrong-arity genome accepted")
	}
}

func TestMemoryConstraintEnforced(t *testing.T) {
	// With EnforceMemory and a deliberately tiny memory budget, every
	// front point must fit; without enforcement, footprints are ignored.
	inst := synInstance(12, 35)
	// Shrink all capacities so the constraint binds.
	for _, pt := range inst.Platform.Types() {
		pt.LocalMemKB = 300
	}
	inst.EnforceMemory = true
	front, err := FcCLR(inst, RunConfig{Pop: 32, Gens: 16, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Skip("budget too tight for a feasible mapping at this seed")
	}
	for _, p := range front.Points {
		if v := schedule.MemoryViolations(p.QoS, inst.Platform); len(v) != 0 {
			t.Fatalf("front point overflows local memory: %v (usage %v)", v, p.QoS.PEMemKB)
		}
	}
}

func TestMappingOnlyHasNoReliability(t *testing.T) {
	inst := sobelInstance()
	front, err := MappingOnly(inst, smallCfg(41))
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Fatal("empty mapping-only front")
	}
	for _, pt := range front.Points {
		for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
			_, asg, err := DecodeConfig(inst, pt.Genome, tsk)
			if err != nil {
				t.Fatal(err)
			}
			if asg.Mode != 0 || asg.HW != 0 || asg.SSW != 0 || asg.ASW != 0 {
				t.Fatal("mapping-only design uses reliability methods")
			}
		}
	}
}

func TestSingleLayerFixedPinsMapping(t *testing.T) {
	inst := sobelInstance()
	front, err := SingleLayerFixed(inst, smallCfg(43), LayerHW)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Fatal("empty fixed single-layer front")
	}
	// All points share one mapping (same PE per task, same order).
	ref := DecodePEs(inst, front.Points[0].Genome)
	for _, pt := range front.Points {
		pes := DecodePEs(inst, pt.Genome)
		for tsk := range pes {
			if pes[tsk] != ref[tsk] {
				t.Fatal("fixed single-layer run changed the mapping")
			}
		}
		for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
			_, asg, err := DecodeConfig(inst, pt.Genome, tsk)
			if err != nil {
				t.Fatal(err)
			}
			if asg.Mode != 0 || asg.SSW != 0 || asg.ASW != 0 {
				t.Fatal("fixed HW-only run leaked other layers")
			}
		}
	}
}

func TestMOEADEngineOnRealProblem(t *testing.T) {
	inst := sobelInstance()
	cfg := smallCfg(47)
	cfg.Engine = MOEAD
	front, err := FcCLR(inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Fatal("MOEA/D produced empty front")
	}
	for _, p := range front.Points {
		if p.Objectives[0] != p.QoS.MakespanUS {
			t.Fatal("MOEA/D front decode mismatch")
		}
	}
	if NSGA2.String() != "NSGA-II" || MOEAD.String() != "MOEA/D" || Engine(9).String() == "" {
		t.Fatal("engine names wrong")
	}
	cfg.Engine = Engine(9)
	if _, err := FcCLR(inst, cfg); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestHEFTSeedValidAndStrong(t *testing.T) {
	inst := synInstance(15, 51)
	fl := filteredLib(t, inst)
	seed, err := HEFTSeed(inst, fl)
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Validate(); err != nil {
		t.Fatal(err)
	}
	qos, err := EvaluatePFMapping(inst, fl, seed)
	if err != nil {
		t.Fatal(err)
	}
	// The HEFT seed should beat the median random mapping on makespan.
	rng := rand.New(rand.NewSource(1))
	p := newPFProblem(inst, fl)
	better := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		g := moea.RandomGenome(rng, p)
		r := p.decodeResult(g)
		if qos.MakespanUS < r.MakespanUS {
			better++
		}
	}
	if better < trials*3/4 {
		t.Fatalf("HEFT seed beat only %d/%d random mappings on makespan", better, trials)
	}
}

func TestEvaluatePFMappingValidation(t *testing.T) {
	inst := sobelInstance()
	fl := filteredLib(t, inst)
	bad := &moea.Genome{Order: []int{0, 1}, Genes: make([]moea.Gene, 2)}
	if _, err := EvaluatePFMapping(inst, fl, bad); err == nil {
		t.Fatal("wrong-arity genome accepted")
	}
}

func TestPfCLRWithSeedsKeepsSeedQuality(t *testing.T) {
	inst := synInstance(12, 53)
	fl := filteredLib(t, inst)
	seed, err := HEFTSeed(inst, fl)
	if err != nil {
		t.Fatal(err)
	}
	seedQoS, err := EvaluatePFMapping(inst, fl, seed)
	if err != nil {
		t.Fatal(err)
	}
	front, err := PfCLRWithSeeds(inst, smallCfg(55), fl, []*moea.Genome{seed})
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(1)
	for _, p := range front.Points {
		best = math.Min(best, p.QoS.MakespanUS)
	}
	if best > seedQoS.MakespanUS+1e-9 {
		t.Fatalf("seeded front's best makespan %v worse than the seed's %v", best, seedQoS.MakespanUS)
	}
}
