package repro_test

import (
	"math"
	"testing"

	"repro/internal/characterize"
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/tdse"
	"repro/internal/tgff"
)

// Integration tests exercise the full pipeline across module boundaries:
// characterization → task-level DSE → system-level DSE → QoS decoding,
// including the extension features (extended catalog, communication model)
// and the fault-injection cross-check.

func buildInstance(t *testing.T, tasks int, seed int64, cat *relmodel.Catalog) (*core.Instance, *tdse.Library) {
	t.Helper()
	p := platform.Default()
	inst := &core.Instance{
		Graph:      tgff.MustGenerate(tgff.DefaultConfig(tasks), seed),
		Platform:   p,
		Lib:        characterize.Synthetic(p, characterize.DefaultSyntheticConfig(10), seed+100),
		Catalog:    cat,
		Objectives: core.DefaultObjectives(),
	}
	flib, err := tdse.Build(inst.Lib, p, cat, tdse.DefaultOptions(),
		[]tdse.Objective{tdse.AvgExT, tdse.ErrProb})
	if err != nil {
		t.Fatal(err)
	}
	return inst, flib
}

func TestFullPipelineDeterminism(t *testing.T) {
	runOnce := func() [][]float64 {
		inst, flib := buildInstance(t, 12, 5, relmodel.DefaultCatalog())
		cfg := core.RunConfig{Pop: 20, Gens: 8, Seed: 3}
		front, err := core.Proposed(inst, cfg, flib)
		if err != nil {
			t.Fatal(err)
		}
		return front.ObjectiveMatrix()
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic front size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("nondeterministic front contents across full pipeline")
			}
		}
	}
}

func TestFullPipelineWithExtendedCatalog(t *testing.T) {
	inst, flib := buildInstance(t, 10, 7, relmodel.ExtendedCatalog())
	cfg := core.RunConfig{Pop: 20, Gens: 8, Seed: 11}
	front, err := core.Proposed(inst, cfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Fatal("extended-catalog DSE produced empty front")
	}
	// The richer catalog must enlarge the configuration space.
	if relmodel.ExtendedCatalog().NumConfigs(3) <= relmodel.DefaultCatalog().NumConfigs(3) {
		t.Fatal("extended catalog not larger than default")
	}
}

func TestCommAwareDSEEndToEnd(t *testing.T) {
	instFree, flib := buildInstance(t, 12, 9, relmodel.DefaultCatalog())
	instComm, _ := buildInstance(t, 12, 9, relmodel.DefaultCatalog())
	instComm.Comm = schedule.CommModel{StartupUS: 50, PerKBUS: 5}
	cfg := core.RunConfig{Pop: 20, Gens: 8, Seed: 13}
	free, err := core.Proposed(instFree, cfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := core.Proposed(instComm, cfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	minMk := func(f *core.Front) float64 {
		m := math.Inf(1)
		for _, p := range f.Points {
			m = math.Min(m, p.QoS.MakespanUS)
		}
		return m
	}
	if minMk(comm) < minMk(free)-1e-9 {
		t.Fatal("communication delays cannot shorten the best makespan")
	}
}

func TestFrontQoSConsistency(t *testing.T) {
	// Every front point's objective vector must match its decoded QoS, and
	// the front must be mutually non-dominated — across all strategies.
	inst, flib := buildInstance(t, 10, 21, relmodel.DefaultCatalog())
	cfg := core.RunConfig{Pop: 16, Gens: 6, Seed: 17}
	strategies := map[string]func() (*core.Front, error){
		"fcCLR":    func() (*core.Front, error) { return core.FcCLR(inst, cfg) },
		"pfCLR":    func() (*core.Front, error) { return core.PfCLR(inst, cfg, flib) },
		"proposed": func() (*core.Front, error) { return core.Proposed(inst, cfg, flib) },
	}
	for name, run := range strategies {
		front, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		objs := front.ObjectiveMatrix()
		if len(pareto.Filter(objs)) != len(objs) {
			t.Fatalf("%s: front contains dominated points", name)
		}
		for _, p := range front.Points {
			if p.Objectives[0] != p.QoS.MakespanUS || p.Objectives[1] != p.QoS.ErrProb {
				t.Fatalf("%s: objectives diverge from decoded QoS", name)
			}
		}
	}
}

func TestAnalyticalEstimatesSurviveFaultInjection(t *testing.T) {
	// Take one optimized Sobel mapping and verify its predicted functional
	// reliability against fault injection of the same CLR configuration.
	p := platform.Default()
	inst := &core.Instance{
		Graph:      taskgraph.Sobel(),
		Platform:   p,
		Lib:        characterize.Sobel(p),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: core.DefaultObjectives(),
	}
	front, err := core.FcCLR(inst, core.RunConfig{Pop: 20, Gens: 8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// Most reliable point.
	best := front.Points[0]
	for _, pt := range front.Points {
		if pt.QoS.ErrProb < best.QoS.ErrProb {
			best = pt
		}
	}
	// Rebuild the chain parameters per task from the genome and simulate.
	params := make([]relmodel.ChainParams, inst.Graph.NumTasks())
	asg := make([]faultsim.TaskAssignment, inst.Graph.NumTasks())
	pes := core.DecodePEs(inst, best.Genome)
	cat := inst.Catalog
	for tsk := 0; tsk < inst.Graph.NumTasks(); tsk++ {
		impl, a, err := core.DecodeConfig(inst, best.Genome, tsk)
		if err != nil {
			t.Fatal(err)
		}
		pt := p.Types()[impl.PETypeIndex]
		hw, ssw, asw := cat.HW[a.HW], cat.SSW[a.SSW], cat.ASW[a.ASW]
		exec := impl.Cycles / pt.Modes[a.Mode].FreqMHz * hw.TimeFactor * asw.TimeFactor
		n := float64(ssw.Checkpoints + 1)
		params[tsk] = relmodel.ChainParams{
			ExecTimeUS:            exec,
			LambdaPerUS:           pt.SEURate(a.Mode) / 1e6,
			Checkpoints:           ssw.Checkpoints,
			DetTimeUS:             ssw.DetectionTimeFrac * exec / n,
			TolTimeUS:             ssw.ToleranceTimeFrac * exec / n,
			ChkTimeUS:             ssw.CheckpointTimeFrac * exec,
			MHW:                   hw.Masking,
			MImplSSW:              impl.ImplicitMasking,
			CovDet:                ssw.DetectionCoverage,
			MTol:                  ssw.ToleranceCoverage,
			MASW:                  asw.Masking,
			ModelCheckpointErrors: true,
		}
		asg[tsk] = faultsim.TaskAssignment{PE: pes[tsk], Params: params[tsk]}
	}
	sim, err := faultsim.SimulateApp(inst.Graph, p.NumPEs(), best.Genome.Order, asg, 30000, 99)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(sim.FunctionalRel - best.QoS.FunctionalRel); d > 0.01 {
		t.Fatalf("fault injection disagrees with analysis: simulated %v vs predicted %v",
			sim.FunctionalRel, best.QoS.FunctionalRel)
	}
}

func TestAllExtensionsTogether(t *testing.T) {
	// Extended catalog + communication model + storage constraints +
	// MOEA/D engine, end to end through the proposed methodology.
	p := platform.Default()
	inst := &core.Instance{
		Graph:         tgff.MustGenerate(tgff.DefaultConfig(10), 61),
		Platform:      p,
		Lib:           characterize.Synthetic(p, characterize.DefaultSyntheticConfig(10), 62),
		Catalog:       relmodel.ExtendedCatalog(),
		Objectives:    core.DefaultObjectives(),
		Comm:          schedule.CommModel{StartupUS: 100, PerKBUS: 10},
		EnforceMemory: true,
	}
	flib, err := tdse.Build(inst.Lib, p, inst.Catalog, tdse.DefaultOptions(),
		[]tdse.Objective{tdse.AvgExT, tdse.ErrProb})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.RunConfig{Pop: 20, Gens: 8, Seed: 63, Engine: core.MOEAD}
	front, err := core.Proposed(inst, cfg, flib)
	if err != nil {
		t.Fatal(err)
	}
	if len(front.Points) == 0 {
		t.Skip("no feasible point under tight memory at this seed")
	}
	for _, pt := range front.Points {
		if v := schedule.MemoryViolations(pt.QoS, p); len(v) != 0 {
			t.Fatalf("front point overflows memory: %v", v)
		}
	}
}

func TestFiveObjectiveDSE(t *testing.T) {
	// The full Eq. 5 objective set: makespan, error probability, lifetime,
	// energy, peak power — the front must be mutually non-dominated in 5-D
	// and its hypervolume computable.
	inst, flib := buildInstance(t, 10, 71, relmodel.DefaultCatalog())
	inst.Objectives = []core.SystemObjective{
		core.Makespan, core.AppErrProb, core.Lifetime, core.Energy, core.PeakPower,
	}
	front, err := core.Proposed(inst, core.RunConfig{Pop: 20, Gens: 8, Seed: 73}, flib)
	if err != nil {
		t.Fatal(err)
	}
	objs := front.ObjectiveMatrix()
	if len(objs) == 0 || len(objs[0]) != 5 {
		t.Fatalf("want 5-objective front, got %dx%d", len(objs), len(objs[0]))
	}
	if got := len(pareto.Filter(objs)); got != len(objs) {
		t.Fatal("5-objective front contains dominated points")
	}
	ref := pareto.ReferencePoint(0.1, objs)
	if hv := pareto.Hypervolume(objs, ref); hv <= 0 {
		t.Fatalf("5-D hypervolume = %v", hv)
	}
}
