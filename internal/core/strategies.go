package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/moea"
	"repro/internal/pareto"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/sweep"
	"repro/internal/tdse"
)

// Point is one design point of a resulting Pareto front: its objective
// vector, the full system-level QoS metrics and the genome that produced it.
type Point struct {
	Objectives []float64
	QoS        *schedule.Result
	Genome     *moea.Genome
}

// Front is the outcome of one DSE run.
type Front struct {
	Points []Point
	// Evaluations counts fitness evaluations spent producing the front.
	Evaluations int
}

// ObjectiveMatrix returns the objective vectors, for hypervolume analysis.
func (f *Front) ObjectiveMatrix() [][]float64 {
	out := make([][]float64, len(f.Points))
	for i, p := range f.Points {
		out[i] = p.Objectives
	}
	return out
}

// Engine selects the MOEA family driving the search.
type Engine int

const (
	// NSGA2 is the non-dominated-sorting GA (the default).
	NSGA2 Engine = iota
	// MOEAD is the decomposition-based alternative.
	MOEAD
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case NSGA2:
		return "NSGA-II"
	case MOEAD:
		return "MOEA/D"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// RunConfig controls one GA-based DSE run.
type RunConfig struct {
	Pop, Gens int
	Seed      int64
	// Workers bounds parallel fitness evaluation. 0 (the default) draws
	// workers from the process-wide CPU-token budget shared with the sweep
	// engine; an explicit positive value forces that worker count.
	Workers int
	// Engine selects the MOEA family (default NSGA2).
	Engine Engine
	// Jobs bounds strategy-internal run-level parallelism (the per-layer
	// runs of Agnostic); ≤ 0 means GOMAXPROCS. Results are identical for
	// every value — per-run seeds are derived from Seed, never from
	// scheduling.
	Jobs int
	// Ctx, when non-nil, cancels the run between GA generations: the
	// strategy stops within one generation of cancellation and returns
	// ctx.Err() (possibly wrapped with the failing stage). Cancellation
	// never perturbs the RNG stream, so an uncancelled run is identical
	// with or without Ctx.
	Ctx context.Context
	// Progress, when non-nil, receives one event per completed GA
	// generation, labeled with the stage that produced it ("pfclr",
	// "fcclr", "mapping", or a Layer name). Strategies that run stages
	// concurrently (Agnostic with Jobs ≠ 1) invoke it from several
	// goroutines, so handlers must be safe for concurrent use.
	Progress func(ProgressEvent)
	// Checkpoint, when non-nil, makes the run durable: every
	// CheckpointEvery generations each stage hands a resumable engine
	// snapshot to SaveStage, completed stage fronts go to SaveFront, and a
	// cancelled stage snapshots its last generation boundary before
	// returning. A later run of the same spec with the same Checkpointer
	// state skips completed stages and resumes the interrupted one,
	// producing a byte-identical final front.
	Checkpoint Checkpointer
	// CheckpointEvery is the snapshot period in generations (default
	// DefaultCheckpointEvery; meaningful only with Checkpoint set).
	CheckpointEvery int
	// DisableDelta switches off incremental (delta) evaluation. Delta
	// evaluation is exact — fronts are byte-identical either way — so this
	// is a measurement/escape hatch, not a fidelity knob.
	DisableDelta bool
	// Islands, when > 1 together with MigrationEvery ≥ 1, splits each GA
	// stage into that many cooperating islands (NSGA-II only): the
	// population divides across islands, per-island seeds derive from
	// Seed, and elite migrants travel a fixed ring every MigrationEvery
	// generations. The merged front is byte-identical for a fixed
	// (Seed, Islands, MigrationEvery, Migrants) regardless of worker
	// placement or restarts. Islands ≤ 1 — or MigrationEvery = 0 — runs
	// the plain single-population engine, byte-identical to a config
	// without island fields.
	Islands int
	// MigrationEvery is the island migration period in generations.
	MigrationEvery int
	// Migrants is the number of elite migrants exchanged per epoch
	// (default 2 when island mode is active).
	Migrants int
	// TerminateOnPlateau, when set, lets every GA stage stop early once its
	// archive hypervolume has plateaued (see moea.Params.TerminateOnPlateau).
	// Off by default — runs then exhaust their full generation budget and
	// remain byte-identical to configs without the knob. Incompatible with
	// island mode.
	TerminateOnPlateau bool
	// PlateauWindow / PlateauEps tune the plateau detector (0 = the moea
	// package defaults). Meaningful only with TerminateOnPlateau.
	PlateauWindow int
	PlateauEps    float64
}

// islandMode reports whether the config requests cooperative island
// evolution. MigrationEvery = 0 deliberately degrades to the plain
// single-population engine — the pinned compatibility contract.
func (c RunConfig) islandMode() bool { return c.Islands > 1 && c.MigrationEvery > 0 }

// ProgressEvent reports per-generation progress of one optimization stage
// of a strategy run.
type ProgressEvent struct {
	// Stage names the GA stage: "pfclr", "fcclr", "mapping" or a layer
	// name ("DVFS", "HWRel", "SSWRel", "ASWRel").
	Stage string
	// Generation counts completed generations within the stage (0 is the
	// evaluated initial population); Generations is the stage's budget.
	Generation, Generations int
	// Evaluations counts fitness evaluations spent in this stage so far.
	Evaluations int
	// ArchiveSize is the stage's current non-dominated archive size.
	ArchiveSize int
}

// DefaultRunConfig is a moderate budget suitable for the paper-scale
// experiments.
func DefaultRunConfig(seed int64) RunConfig {
	return RunConfig{Pop: 80, Gens: 60, Seed: seed}
}

// paramsFor builds the GA parameters for one named stage, threading the
// config's context and wrapping its progress callback with the stage label.
func (c RunConfig) paramsFor(stage string) moea.Params {
	p := moea.DefaultParams(c.Pop, c.Gens, c.Seed)
	p.Workers = c.Workers
	p.Ctx = c.Ctx
	p.DisableDelta = c.DisableDelta
	if c.TerminateOnPlateau {
		p.TerminateOnPlateau = true
		p.PlateauWindow = c.PlateauWindow
		p.PlateauEps = c.PlateauEps
	}
	if c.Progress != nil {
		progress := c.Progress
		p.OnGeneration = func(g moea.GenerationInfo) {
			progress(ProgressEvent{
				Stage:       stage,
				Generation:  g.Generation,
				Generations: g.Generations,
				Evaluations: g.Evaluations,
				ArchiveSize: g.ArchiveSize,
			})
		}
	}
	return p
}

// runProblem executes the selected engine and decodes the archive front.
// With cfg.Checkpoint set, a stage whose front was already saved is
// restored without running, an interrupted stage resumes from its engine
// snapshot, and the completed front is saved for the next resume.
func runProblem(p moea.Problem, decode func(*moea.Genome) *schedule.Result, cfg RunConfig, seeds []*moea.Genome, stage string) (*Front, error) {
	if cfg.Checkpoint != nil {
		if fs := cfg.Checkpoint.ResumeFront(stage); fs != nil {
			return restoreFront(fs, decode), nil
		}
	}
	params := cfg.paramsFor(stage)
	var res *moea.Result
	var err error
	switch {
	case cfg.islandMode():
		if cfg.TerminateOnPlateau {
			return nil, fmt.Errorf("core: plateau termination is incompatible with island mode")
		}
		// Island mode checkpoints per island under derived stage keys;
		// the plain stage key only ever holds the completed front.
		res, err = runIslandStage(p, cfg, params, seeds, stage)
	case cfg.Engine == NSGA2:
		cfg.checkpointStage(&params, stage)
		res, err = moea.Run(p, params, seeds)
	case cfg.Engine == MOEAD:
		cfg.checkpointStage(&params, stage)
		res, err = moea.RunMOEAD(p, params, seeds)
	default:
		return nil, fmt.Errorf("core: unknown engine %d", int(cfg.Engine))
	}
	if err != nil {
		return nil, err
	}
	front := frontOf(res, decode)
	if cfg.Checkpoint != nil {
		cfg.Checkpoint.SaveFront(stage, SnapshotFront(front))
	}
	return front, nil
}

// checkpointStage makes params resume from, and snapshot to, the stage key
// of cfg.Checkpoint (a no-op without one).
func (c RunConfig) checkpointStage(params *moea.Params, stage string) {
	ck := c.Checkpoint
	if ck == nil {
		return
	}
	params.Resume = ck.ResumeStage(stage)
	params.CheckpointEvery = c.CheckpointEvery
	if params.CheckpointEvery <= 0 {
		params.CheckpointEvery = DefaultCheckpointEvery
	}
	params.OnCheckpoint = func(cp *moea.Checkpoint) { ck.SaveStage(stage, cp) }
}

// frontOf turns an engine result into a Front, decoding each genome's QoS
// metrics. Front points share the result's genomes and objective slices.
func frontOf(res *moea.Result, decode func(*moea.Genome) *schedule.Result) *Front {
	front := &Front{Evaluations: res.Evaluations}
	for _, s := range res.Front {
		front.Points = append(front.Points, Point{
			Objectives: s.Objectives,
			QoS:        decode(s.Genome),
			Genome:     s.Genome,
		})
	}
	return front
}

// FcCLR runs the problem-agnostic full-configuration CLR task mapping
// (§V.B.1): all CLR decisions are separate GA degrees of freedom.
func FcCLR(inst *Instance, cfg RunConfig) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	p := newFCProblem(inst, allFree)
	return runProblem(p, p.decodeResult, cfg, nil, "fcclr")
}

// PfCLR runs the task-level-Pareto-filtered task mapping (§V.B.2) over the
// tDSE library flib.
func PfCLR(inst *Instance, cfg RunConfig, flib *tdse.Library) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := checkFilteredLibrary(inst, flib); err != nil {
		return nil, err
	}
	p := newPFProblem(inst, flib)
	return runProblem(p, p.decodeResult, cfg, nil, "pfclr")
}

// Proposed runs the paper's two-stage methodology (§V.B.3, Fig. 4(b)):
// a pfCLR run prunes the space, its Pareto front is re-encoded into
// full-configuration genomes, and a seeded fcCLR run refines it.
// The returned front is the fcCLR stage's archive (which starts from, and
// therefore can only improve on, the pfCLR seeds).
func Proposed(inst *Instance, cfg RunConfig, flib *tdse.Library) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := checkFilteredLibrary(inst, flib); err != nil {
		return nil, err
	}
	pfStage, err := PfCLR(inst, cfg, flib)
	if err != nil {
		return nil, fmt.Errorf("core: pfCLR stage: %w", err)
	}
	return ProposedFrom(inst, cfg, flib, pfStage)
}

// ProposedFrom runs only the second stage of the proposed methodology: the
// fcCLR search seeded with an existing pfCLR front. Because the seeds
// re-encode exactly (same QoS) and enter the archive, the returned front
// hypervolume-dominates or equals the pfCLR front it started from.
func ProposedFrom(inst *Instance, cfg RunConfig, flib *tdse.Library, pfStage *Front) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := checkFilteredLibrary(inst, flib); err != nil {
		return nil, err
	}
	seeds, err := reencodeSeeds(inst, flib, pfStage)
	if err != nil {
		return nil, err
	}
	fcCfg := cfg
	fcCfg.Seed = cfg.Seed + 1
	p := newFCProblem(inst, allFree)
	front, err := runProblem(p, p.decodeResult, fcCfg, seeds, "fcclr")
	if err != nil {
		return nil, fmt.Errorf("core: seeded fcCLR stage: %w", err)
	}
	// The method's result is the non-dominated union of both stages; this
	// also covers pfCLR points whose seeds were truncated by the
	// population size. The pfCLR points are re-decoded through the
	// full-configuration problem so the merged front is internally
	// consistent even if the filtered library's cached metrics diverge
	// from the instance (e.g. a different operating environment).
	seedFront := &Front{Evaluations: pfStage.Evaluations}
	for _, seed := range seeds {
		q := p.decodeResult(seed)
		seedFront.Points = append(seedFront.Points, Point{
			Objectives: objectiveVector(q, inst.objectives()),
			QoS:        q,
			Genome:     seed,
		})
	}
	return MergeFronts(front, seedFront), nil
}

// reencodeSeeds converts pfCLR front genomes into fcCLR genomes: the chosen
// candidate's base implementation index and CLR assignment become explicit
// gene fields (the guided-search hand-off of Fig. 4(b)).
func reencodeSeeds(inst *Instance, flib *tdse.Library, pf *Front) ([]*moea.Genome, error) {
	// Per task type: base implementation name → index in the full library.
	implIndex := make([]map[string]int, inst.Lib.NumTypes())
	for tt := 0; tt < inst.Lib.NumTypes(); tt++ {
		implIndex[tt] = map[string]int{}
		for i, im := range inst.Lib.Impls(tt) {
			implIndex[tt][im.Name] = i
		}
	}
	compat := compatiblePEs(inst.Platform)
	var seeds []*moea.Genome
	for _, pt := range pf.Points {
		g := pt.Genome.Clone()
		for t := 0; t < inst.Graph.NumTasks(); t++ {
			tt := inst.Graph.Task(t).Type
			cands := flib.Impls(tt)
			c := cands[mod(g.Genes[t].Impl, len(cands))]
			base, ok := implIndex[tt][c.Base.Name]
			if !ok {
				return nil, fmt.Errorf("core: candidate %q not found in base library", c.Base.Name)
			}
			peList := compat[c.Base.PETypeIndex]
			g.Genes[t] = moea.Gene{
				Impl: base,
				PE:   mod(g.Genes[t].PE, len(peList)),
				Mode: c.Assignment.Mode,
				HW:   c.Assignment.HW,
				SSW:  c.Assignment.SSW,
				ASW:  c.Assignment.ASW,
			}
		}
		seeds = append(seeds, g)
	}
	return seeds, nil
}

func checkFilteredLibrary(inst *Instance, flib *tdse.Library) error {
	if flib == nil {
		return fmt.Errorf("core: nil filtered library")
	}
	if len(flib.ByType) < inst.Graph.NumTypes() {
		return fmt.Errorf("core: filtered library covers %d types, application needs %d",
			len(flib.ByType), inst.Graph.NumTypes())
	}
	for tt := 0; tt < inst.Graph.NumTypes(); tt++ {
		if len(flib.ByType[tt]) == 0 {
			return fmt.Errorf("core: filtered library has no implementations for task type %d", tt)
		}
	}
	return nil
}

// Layer identifies a single degree of freedom for the single-layer
// baselines of §VI.C.1.
type Layer int

const (
	// LayerDVFS frees only the DVFS mode.
	LayerDVFS Layer = iota
	// LayerHW frees only the hardware spatial-redundancy method.
	LayerHW
	// LayerSSW frees only the system-software temporal-redundancy method.
	LayerSSW
	// LayerASW frees only the application-software information-redundancy
	// method.
	LayerASW
)

// String names the layer as in Fig. 7's legend.
func (l Layer) String() string {
	switch l {
	case LayerDVFS:
		return "DVFS"
	case LayerHW:
		return "HWRel"
	case LayerSSW:
		return "SSWRel"
	case LayerASW:
		return "ASWRel"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// Layers lists the four single-layer baselines.
func Layers() []Layer { return []Layer{LayerDVFS, LayerHW, LayerSSW, LayerASW} }

// MappingOnly optimizes plain task mapping (Fig. 1(a): task-to-PE binding,
// scheduling and implementation choice) with no reliability methods and
// nominal DVFS — the "task-mapping only" space of Eq. 5, and the baseline
// design the single-layer optimizations start from.
func MappingOnly(inst *Instance, cfg RunConfig) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	p := newFCProblem(inst, layerRestriction{})
	return runProblem(p, p.decodeResult, cfg, nil, "mapping")
}

// SingleLayer models the traditional other-layer-agnostic design flow: the
// optimization keeps the ordinary task-mapping decisions (PE binding,
// scheduling, implementation choice) but enables only one reliability layer
// as a degree of freedom. This is the per-layer run whose merged results
// form the Agnostic comparison of Fig. 7 / TABLE V.
func SingleLayer(inst *Instance, cfg RunConfig, layer Layer) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	r, err := restrictionFor(layer)
	if err != nil {
		return nil, err
	}
	p := newFCProblem(inst, r)
	return runProblem(p, p.decodeResult, cfg, nil, layer.String())
}

// SingleLayerFixed explores one reliability layer in the strict Π C_t
// space of Eq. 5 ("cross-layer-reliability only"): task mapping, scheduling
// and implementation choice are pinned to a performance-optimal baseline
// design (the minimum-makespan point of a MappingOnly run), and only the
// selected layer's configuration varies per task.
func SingleLayerFixed(inst *Instance, cfg RunConfig, layer Layer) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	baseline, evals, err := mappingBaseline(inst, cfg)
	if err != nil {
		return nil, err
	}
	front, err := singleLayerFrom(inst, cfg, layer, baseline)
	if err != nil {
		return nil, err
	}
	front.Evaluations += evals
	return front, nil
}

func restrictionFor(layer Layer) (layerRestriction, error) {
	var r layerRestriction
	switch layer {
	case LayerDVFS:
		r.freeModes = true
	case LayerHW:
		r.freeHW = true
	case LayerSSW:
		r.freeSSW = true
	case LayerASW:
		r.freeASW = true
	default:
		return r, fmt.Errorf("core: unknown layer %d", int(layer))
	}
	return r, nil
}

// mappingBaseline runs MappingOnly and returns its fastest design point.
func mappingBaseline(inst *Instance, cfg RunConfig) (Point, int, error) {
	base, err := MappingOnly(inst, cfg)
	if err != nil {
		return Point{}, 0, fmt.Errorf("core: mapping-only baseline: %w", err)
	}
	if len(base.Points) == 0 {
		return Point{}, 0, fmt.Errorf("core: mapping-only baseline produced no feasible design")
	}
	baseline := base.Points[0]
	for _, p := range base.Points {
		if p.QoS.MakespanUS < baseline.QoS.MakespanUS {
			baseline = p
		}
	}
	return baseline, base.Evaluations, nil
}

// singleLayerFrom explores one layer's configurations on a fixed baseline
// design.
func singleLayerFrom(inst *Instance, cfg RunConfig, layer Layer, baseline Point) (*Front, error) {
	r, err := restrictionFor(layer)
	if err != nil {
		return nil, err
	}
	r.fixedGenes = baseline.Genome.Genes
	p := newFCProblem(inst, r)
	params := cfg.paramsFor(layer.String())
	params.Seed = cfg.Seed + 7
	params.FixedOrder = baseline.Genome.Order
	res, err := moea.Run(p, params, nil)
	if err != nil {
		return nil, err
	}
	return frontOf(res, p.decodeResult), nil
}

// Agnostic runs every single-layer optimization separately and merges the
// dominant points of their fronts — the "other-layer-agnostic" traditional
// approach the CLR methodology is compared against in Fig. 7 / TABLE V.
// It returns the merged front and the per-layer fronts (for plotting).
func Agnostic(inst *Instance, cfg RunConfig) (*Front, map[Layer]*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, nil, err
	}
	// The four per-layer runs are independent; run them as sweep cells.
	// Per-layer seeds derive from cfg.Seed and results merge in layer
	// order, so the merged front is identical for any Jobs value.
	fronts, err := sweep.Map(cfg.Jobs, Layers(), func(i int, layer Layer) (*Front, error) {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*1000
		f, err := SingleLayer(inst, c, layer)
		if err != nil {
			return nil, fmt.Errorf("core: %v-only run: %w", layer, err)
		}
		return f, nil
	})
	if err != nil {
		return nil, nil, err
	}
	perLayer := make(map[Layer]*Front, 4)
	for i, layer := range Layers() {
		perLayer[layer] = fronts[i]
	}
	return MergeFronts(fronts...), perLayer, nil
}

// MergeFronts concatenates the points of several fronts in argument order,
// keeps the dominant (non-dominated) ones and sums the evaluation counts —
// the merge step that turns the four single-layer fronts into the Agnostic
// baseline. The filter preserves concatenation order, so the merged front
// is identical whether the inputs were computed in-process or rebuilt from
// their wire forms by a remote sweep.
func MergeFronts(fronts ...*Front) *Front {
	var all []Point
	evals := 0
	for _, f := range fronts {
		all = append(all, f.Points...)
		evals += f.Evaluations
	}
	objs := make([][]float64, len(all))
	for i, p := range all {
		objs[i] = p.Objectives
	}
	merged := &Front{Evaluations: evals}
	for _, i := range pareto.Filter(objs) {
		merged.Points = append(merged.Points, all[i])
	}
	return merged
}

// SearchSpaceLog10 returns log₁₀ of the design-space sizes of §V.B for the
// instance: fcCLR (P^T · T! · Π Iₜ·FM_CL) and pfCLR (P^T · T! · Π Ipfₜ),
// the quantities motivating the pruning stage.
func SearchSpaceLog10(inst *Instance, flib *tdse.Library) (fc, pf float64) {
	T := inst.Graph.NumTasks()
	P := float64(inst.Platform.NumPEs())
	base := float64(T) * math.Log10(P)
	for k := 2; k <= T; k++ {
		base += math.Log10(float64(k))
	}
	fc, pf = base, base
	modes := maxModes(inst.Platform)
	fmCL := float64(inst.Catalog.NumConfigs(modes))
	for t := 0; t < T; t++ {
		tt := inst.Graph.Task(t).Type
		fc += math.Log10(float64(len(inst.Lib.Impls(tt))) * fmCL)
		if flib != nil {
			pf += math.Log10(float64(len(flib.Impls(tt))))
		}
	}
	if flib == nil {
		pf = math.NaN()
	}
	return fc, pf
}

// FcCLRWithParams is FcCLR with explicit GA parameters, the hook used by
// operator-ablation studies.
func FcCLRWithParams(inst *Instance, params moea.Params) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	p := newFCProblem(inst, allFree)
	res, err := moea.Run(p, params, nil)
	if err != nil {
		return nil, err
	}
	return frontOf(res, p.decodeResult), nil
}

// RandomSearch evaluates random full-configuration design points — the
// problem-agnostic sanity baseline.
func RandomSearch(inst *Instance, evals int, seed int64) (*Front, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	p := newFCProblem(inst, allFree)
	res, err := moea.RandomSearch(p, evals, seed)
	if err != nil {
		return nil, err
	}
	return frontOf(res, p.decodeResult), nil
}

// DecodePEs resolves the concrete PE id of every task of a
// full-configuration genome — used by mapping-locality analyses. The genome
// must use the fcCLR encoding (as produced by FcCLR, Proposed and
// RandomSearch fronts).
func DecodePEs(inst *Instance, g *moea.Genome) []int {
	p := newFCProblem(inst, allFree)
	out := make([]int, inst.Graph.NumTasks())
	for t := range out {
		_, _, pe := p.decodeGene(t, g.Genes[t])
		out[t] = pe
	}
	return out
}

// DecodeConfig resolves the base implementation and CLR assignment of one
// task of a full-configuration genome, for external analysis (e.g. fault
// injection of an optimized mapping).
func DecodeConfig(inst *Instance, g *moea.Genome, task int) (relmodel.Impl, relmodel.Assignment, error) {
	if err := inst.Validate(); err != nil {
		return relmodel.Impl{}, relmodel.Assignment{}, err
	}
	if task < 0 || task >= inst.Graph.NumTasks() {
		return relmodel.Impl{}, relmodel.Assignment{}, fmt.Errorf("core: task %d out of range", task)
	}
	p := newFCProblem(inst, allFree)
	impl, asg, _ := p.decodeGene(task, g.Genes[task])
	return impl, asg, nil
}

// EvaluateMapping decodes a full-configuration genome under the instance's
// models (including the communication and storage extensions when enabled)
// and returns its system-level QoS — for what-if analysis of an optimized
// mapping under altered platform assumptions.
func EvaluateMapping(inst *Instance, g *moea.Genome) (*schedule.Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(g.Genes) != inst.Graph.NumTasks() {
		return nil, fmt.Errorf("core: genome has %d genes, application has %d tasks",
			len(g.Genes), inst.Graph.NumTasks())
	}
	p := newFCProblem(inst, allFree)
	return p.decodeResult(g), nil
}
