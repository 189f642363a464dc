// Package repro_test benchmarks the experiment harness: one benchmark per
// table and figure of the paper's evaluation (reduced budgets — the full
// paper-scale sweep is `go run ./cmd/experiments`), plus micro-benchmarks of
// the substrates (Markov analysis, scheduling, hypervolume, GA generations)
// that dominate DSE runtime.
package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/characterize"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faultsim"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/tdse"
	"repro/internal/tgff"
	"repro/internal/thermal"
)

// benchCfg is the reduced experiment configuration used by the per-figure
// benchmarks.
func benchCfg() experiments.Config {
	cfg := experiments.Quick()
	cfg.Sizes = []int{10, 20}
	return cfg
}

// BenchmarkFig6a runs first in the package, so its first run would pay the
// process's one-time set-up (the chain-analysis scratch free lists and
// other lazily built state, ~365 allocations) that no later row pays. One
// untimed run first keeps its allocs/op at the steady state on every count.
func BenchmarkFig6a(b *testing.B) {
	cfg := benchCfg()
	if _, err := cfg.Fig6a(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig6a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6b(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig6b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		r, err := cfg.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.IncreasePct[0], "pct-improvement-10tasks")
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		r, err := cfg.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.IncreasePct[0], "pct-improvement-10tasks")
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Fig10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7(b *testing.B) {
	cfg := benchCfg()
	cfg.Sizes = []int{10}
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Table7(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- sweep engine benchmarks ----

// benchmarkSweep runs the TABLE V workload (a proposed run and a four-layer
// agnostic run per size — the sweep engine's cells) at the given cell-level
// parallelism.
func benchmarkSweep(b *testing.B, jobs int) {
	cfg := benchCfg()
	cfg.Jobs = jobs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Table5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) { benchmarkSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchmarkSweep(b, runtime.NumCPU()) }

// BenchmarkMetricsCacheSharing measures the instance-level Markov-metric
// cache across strategies: an fcCLR run followed by the four-layer agnostic
// runs on the same instance. The reported hit rate is the fraction of
// task-metric lookups served without re-running the Markov analysis.
func BenchmarkMetricsCacheSharing(b *testing.B) {
	p := platform.Default()
	cfg := core.RunConfig{Pop: 24, Gens: 10, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := &core.Instance{
			Graph:      tgff.MustGenerate(tgff.DefaultConfig(20), 7),
			Platform:   p,
			Lib:        characterize.Synthetic(p, characterize.DefaultSyntheticConfig(10), 8),
			Catalog:    relmodel.DefaultCatalog(),
			Objectives: core.DefaultObjectives(),
		}
		if _, err := core.FcCLR(inst, cfg); err != nil {
			b.Fatal(err)
		}
		if _, _, err := core.Agnostic(inst, cfg); err != nil {
			b.Fatal(err)
		}
		st := inst.MetricsCacheStats()
		b.ReportMetric(st.HitRate()*100, "cache-hit-%")
		b.ReportMetric(float64(st.Entries), "cache-entries")
	}
}

// ---- genome-evaluation benchmarks ----

// benchSobelInstance builds a fresh sobel DSE instance (empty caches).
func benchSobelInstance() *core.Instance {
	p := platform.Default()
	return &core.Instance{
		Graph:      taskgraph.Sobel(),
		Platform:   p,
		Lib:        characterize.Sobel(p),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: core.DefaultObjectives(),
	}
}

// benchSyntheticInstance builds a fresh synthetic-graph instance.
func benchSyntheticInstance(tasks int) *core.Instance {
	p := platform.Default()
	return &core.Instance{
		Graph:      tgff.MustGenerate(tgff.DefaultConfig(tasks), 7),
		Platform:   p,
		Lib:        characterize.Synthetic(p, characterize.DefaultSyntheticConfig(10), 8),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: core.DefaultObjectives(),
	}
}

// benchmarkEvaluateMapping measures one full genome decode + schedule
// evaluation — the per-chromosome inner loop of every GA generation — on an
// optimized genome taken from a short FcCLR run.
func benchmarkEvaluateMapping(b *testing.B, inst *core.Instance) {
	front, err := core.FcCLR(inst, core.RunConfig{Pop: 16, Gens: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	g := front.Points[0].Genome
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateMapping(inst, g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateMappingSobel(b *testing.B) { benchmarkEvaluateMapping(b, benchSobelInstance()) }
func BenchmarkEvaluateMappingSynthetic(b *testing.B) {
	benchmarkEvaluateMapping(b, benchSyntheticInstance(20))
}

// ---- substrate micro-benchmarks ----

func BenchmarkMarkovAnalyze(b *testing.B) {
	params := relmodel.ChainParams{
		ExecTimeUS:            1000,
		LambdaPerUS:           1e-4,
		Checkpoints:           2,
		DetTimeUS:             20,
		TolTimeUS:             30,
		ChkTimeUS:             25,
		MHW:                   0.4,
		MImplSSW:              0.05,
		CovDet:                0.92,
		MTol:                  0.98,
		MASW:                  0.6,
		ModelCheckpointErrors: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relmodel.AnalyzeChains(params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaskEvaluate(b *testing.B) {
	p := platform.Default()
	lib := characterize.Sobel(p)
	cat := relmodel.DefaultCatalog()
	impl := lib.Impls(0)[0]
	asg := relmodel.Assignment{Mode: 1, HW: 2, SSW: 2, ASW: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relmodel.Evaluate(impl, asg, p.Types()[0], cat); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScheduleInputs builds a deterministic decision vector for g.
func benchScheduleInputs(g *taskgraph.Graph, p *platform.Platform) []schedule.TaskDecision {
	decisions := make([]schedule.TaskDecision, g.NumTasks())
	for t := range decisions {
		decisions[t] = schedule.TaskDecision{
			PE: t % p.NumPEs(),
			Metrics: relmodel.Metrics{
				AvgExTimeUS: 100 + float64(t), MinExTimeUS: 100,
				PowerW: 1, MTTFHours: 1e5, ErrProb: 0.01,
			},
		}
	}
	return decisions
}

// benchmarkScheduleRun times list scheduling + the Eq.1–4 QoS reduction,
// either allocating fresh per call (ev == nil, the schedule.Run path) or
// reusing one Evaluator's scratch across iterations.
func benchmarkScheduleRun(b *testing.B, g *taskgraph.Graph, ev *schedule.Evaluator) {
	p := platform.Default()
	decisions := benchScheduleInputs(g, p)
	prio := g.TopoOrder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if ev == nil {
			_, err = schedule.Run(g, p, prio, decisions)
		} else {
			_, err = ev.Run(g, p, prio, decisions)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleRunSobel(b *testing.B) { benchmarkScheduleRun(b, taskgraph.Sobel(), nil) }
func BenchmarkScheduleRun50(b *testing.B) {
	benchmarkScheduleRun(b, tgff.MustGenerate(tgff.DefaultConfig(50), 1), nil)
}
func BenchmarkScheduleEvaluatorSobel(b *testing.B) {
	benchmarkScheduleRun(b, taskgraph.Sobel(), schedule.NewEvaluator())
}
func BenchmarkScheduleEvaluator50(b *testing.B) {
	benchmarkScheduleRun(b, tgff.MustGenerate(tgff.DefaultConfig(50), 1), schedule.NewEvaluator())
}

// BenchmarkScheduleEvaluator50Default is ScheduleEvaluator50 computing only
// what a GA on the default objectives (makespan, error probability) with
// no MTTF, energy or peak-power bound reads.
func BenchmarkScheduleEvaluator50Default(b *testing.B) {
	skip := schedule.AggMTTF | schedule.AggEnergy | schedule.AggPeakPower
	benchmarkScheduleRun(b, tgff.MustGenerate(tgff.DefaultConfig(50), 1), &schedule.Evaluator{Skip: skip})
}

func BenchmarkHypervolume2D(b *testing.B) {
	pts := make([][]float64, 100)
	for i := range pts {
		x := float64(i) / 100
		pts[i] = []float64{x, 1 - x*x}
	}
	ref := []float64{1.2, 1.2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pareto.Hypervolume(pts, ref)
	}
}

func BenchmarkTDSEExplore(b *testing.B) {
	p := platform.Default()
	lib := characterize.Sobel(p)
	cat := relmodel.DefaultCatalog()
	objs := []tdse.Objective{tdse.AvgExT, tdse.ErrProb}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tdse.Explore(lib, taskgraph.SobelGSmth, p, cat, tdse.DefaultOptions(), objs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFcCLRSobel(b *testing.B) {
	p := platform.Default()
	inst := &core.Instance{
		Graph:      taskgraph.Sobel(),
		Platform:   p,
		Lib:        characterize.Sobel(p),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: core.DefaultObjectives(),
	}
	cfg := core.RunConfig{Pop: 24, Gens: 10, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := core.FcCLR(inst, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMOEADSobel(b *testing.B) {
	p := platform.Default()
	inst := &core.Instance{
		Graph:      taskgraph.Sobel(),
		Platform:   p,
		Lib:        characterize.Sobel(p),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: core.DefaultObjectives(),
	}
	cfg := core.RunConfig{Pop: 24, Gens: 10, Seed: 1, Engine: core.MOEAD}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := core.FcCLR(inst, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHEFT50(b *testing.B) {
	p := platform.Default()
	inst := &core.Instance{
		Graph:      tgff.MustGenerate(tgff.DefaultConfig(50), 1),
		Platform:   p,
		Lib:        characterize.Synthetic(p, characterize.DefaultSyntheticConfig(10), 2),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: core.DefaultObjectives(),
	}
	flib, err := tdse.Build(inst.Lib, p, inst.Catalog, tdse.DefaultOptions(),
		[]tdse.Objective{tdse.AvgExT, tdse.ErrProb})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.HEFTSeed(inst, flib); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFaultInjection(b *testing.B) {
	params := relmodel.ChainParams{
		ExecTimeUS: 1000, LambdaPerUS: 2e-4, Checkpoints: 2,
		DetTimeUS: 25, TolTimeUS: 20, ChkTimeUS: 30,
		MHW: 0.4, CovDet: 0.92, MTol: 0.98, MASW: 0.6,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faultsim.SimulateTask(params, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThermalTrace(b *testing.B) {
	g := taskgraph.Sobel()
	p := platform.Default()
	decisions := make([]schedule.TaskDecision, g.NumTasks())
	for t := range decisions {
		decisions[t] = schedule.TaskDecision{
			PE: t % 3,
			Metrics: relmodel.Metrics{
				AvgExTimeUS: 400, MinExTimeUS: 400, PowerW: 1, MTTFHours: 1e5,
			},
		}
	}
	res, err := schedule.Run(g, p, g.TopoOrder(), decisions)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.Simulate(g, p, decisions, res, 3, 20); err != nil {
			b.Fatal(err)
		}
	}
}
