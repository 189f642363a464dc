package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/characterize"
	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/moea"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/tdse"
	"repro/internal/tgff"
)

// Constraints are the QoS bounds of Eq. 5; zero values mean unconstrained.
type Constraints struct {
	MaxMakespanUS    float64 `json:"max_makespan_us,omitempty"`
	MinFunctionalRel float64 `json:"min_functional_rel,omitempty"`
	MinMTTFHours     float64 `json:"min_mttf_hours,omitempty"`
	MaxEnergyUJ      float64 `json:"max_energy_uj,omitempty"`
	MaxPeakPowerW    float64 `json:"max_peak_power_w,omitempty"`
}

// JobSpec is the canonical description of one DSE run, shared by the HTTP
// API (POST /v1/jobs) and the CLI. Its normalized JSON form is the result
// cache key: two submissions with the same normalized spec (including the
// seed) are the same deterministic computation.
type JobSpec struct {
	// App selects a built-in application: sobel (default), jpeg or
	// synthetic; GraphText, when non-empty, supplies an inline TGFF-style
	// task graph instead and overrides App.
	App       string `json:"app,omitempty"`
	GraphText string `json:"graph_text,omitempty"`
	// Tasks is the synthetic application's task count (default 20).
	Tasks int `json:"tasks,omitempty"`
	// GraphSeed overrides the seed of the synthetic task-graph generator
	// (0: derive from Seed, as before). LibSeed likewise overrides the seed
	// of the synthetic characterization library (0: Seed+500). They let a
	// remote experiment sweep reproduce the exact experiment-harness
	// instances, whose graph and library seeds differ from the GA seed.
	GraphSeed int64 `json:"graph_seed,omitempty"`
	LibSeed   int64 `json:"lib_seed,omitempty"`
	// Method is the DSE method: proposed (default), fcclr, pfclr,
	// agnostic, or one of the single-layer baselines layer-dvfs,
	// layer-hwrel, layer-sswrel, layer-aswrel (the per-layer runs whose
	// merged fronts form the Agnostic comparison).
	Method string `json:"method,omitempty"`
	// TDSESet selects the task-level objective set used to build the
	// Pareto-filtered library for proposed/pfclr runs: 0 (default) is
	// tDSE_1 = {AvgExT, ErrProb}; 1 and 2 are the richer tDSE_2/tDSE_3
	// sets of the paper's Fig. 9/10 study.
	TDSESet int `json:"tdse_set,omitempty"`
	// Pop, Gens and Seed configure the GA (defaults 60, 40, 1).
	Pop  int   `json:"pop,omitempty"`
	Gens int   `json:"gens,omitempty"`
	Seed int64 `json:"seed,omitempty"`
	// Engine selects the MOEA family: nsga2 (default) or moead.
	Engine string `json:"engine,omitempty"`
	// Jobs bounds strategy-internal run-level parallelism (core.RunConfig
	// semantics; results are identical for every value).
	Jobs int `json:"jobs,omitempty"`
	// Catalog selects the reliability method catalog: default or extended.
	Catalog string `json:"catalog,omitempty"`
	// Objectives are system objectives by name: makespan, errprob,
	// lifetime, energy, power (default ["makespan","errprob"]).
	Objectives  []string    `json:"objectives,omitempty"`
	Constraints Constraints `json:"constraints,omitempty"`
	// CommStartupUS / CommPerKBUS enable the interconnect model; both zero
	// reproduce the paper's communication-free estimation.
	CommStartupUS float64 `json:"comm_startup_us,omitempty"`
	CommPerKBUS   float64 `json:"comm_per_kb_us,omitempty"`
	// EnforceMemory enables the per-PE local-memory storage constraint.
	EnforceMemory bool `json:"enforce_memory,omitempty"`
	// NoDelta disables incremental (delta) fitness evaluation. Results are
	// byte-identical either way — the switch exists for measurement — but it
	// is part of the spec hash because it selects a different computation.
	NoDelta bool `json:"no_delta,omitempty"`
	// Islands splits each GA stage into that many cooperating islands
	// (NSGA-II engine only; 0 or 1 is the plain single population).
	// MigrationEvery is the epoch length in generations between elite
	// exchanges over the fixed ring; Migrants is the elites sent per island
	// per epoch (default 2). Results are deterministic for fixed knobs, so
	// all three are part of the spec hash.
	Islands        int `json:"islands,omitempty"`
	MigrationEvery int `json:"migration_every,omitempty"`
	Migrants       int `json:"migrants,omitempty"`
	// Converge enables hypervolume-plateau termination: each GA stage stops
	// early once ConvergeWindow consecutive generations improved the archive
	// hypervolume by less than ConvergeEps (relative). Off by default —
	// results are then byte-identical to specs without the knobs.
	// Incompatible with island mode. ConvergeWindow defaults to
	// moea.DefaultPlateauWindow, ConvergeEps to moea.DefaultPlateauEps.
	Converge       bool    `json:"converge,omitempty"`
	ConvergeWindow int     `json:"converge_window,omitempty"`
	ConvergeEps    float64 `json:"converge_eps,omitempty"`
	// Platform selects the platform family: the paper's HMPSoC ("",
	// "default", "hmpsoc" — all canonicalized to "" so legacy specs hash
	// identically) or "fpga" (soft cores in configuration memory with
	// scrubbing, see internal/platform.FPGA).
	Platform string `json:"platform,omitempty"`
	// Faults, when present and non-empty, activates the combined
	// fault-model subsystem: the default model plus per-PE-type overrides
	// feed every task-metric evaluation (transient scaling, intermittent
	// bursts, permanent faults with probabilistic repair). An empty model
	// normalizes back to nil, so degraded forms hash like legacy specs.
	Faults *faultmodel.Model `json:"faults,omitempty"`
	// CkptModes enumerates the heterogeneous checkpointing axis during
	// tDSE (proposed/pfclr methods only — zeroed otherwise, like
	// tdse_set): every candidate is additionally evaluated under local and
	// TMR-voted checkpoint policies. CkptIntervals lists the checkpoint
	// counts to enumerate per mode (default [2], each in [1,16]).
	CkptModes     bool  `json:"ckpt_modes,omitempty"`
	CkptIntervals []int `json:"ckpt_intervals,omitempty"`
}

var systemObjectiveNames = map[string]core.SystemObjective{
	"makespan": core.Makespan,
	"errprob":  core.AppErrProb,
	"lifetime": core.Lifetime,
	"energy":   core.Energy,
	"power":    core.PeakPower,
}

// layerMethods maps the single-layer method names to their layers.
var layerMethods = map[string]core.Layer{
	"layer-dvfs":   core.LayerDVFS,
	"layer-hwrel":  core.LayerHW,
	"layer-sswrel": core.LayerSSW,
	"layer-aswrel": core.LayerASW,
}

// LayerMethod returns the canonical method name of a single-layer run.
func LayerMethod(l core.Layer) string {
	for name, layer := range layerMethods {
		if layer == l {
			return name
		}
	}
	panic(fmt.Sprintf("service: unknown layer %d", int(l)))
}

// Normalize fills defaults, lower-cases the enum fields and validates the
// spec. It must be called before Hash, Build or Execute.
func (s *JobSpec) Normalize() error {
	s.App = strings.ToLower(strings.TrimSpace(s.App))
	s.Method = strings.ToLower(strings.TrimSpace(s.Method))
	s.Engine = strings.ToLower(strings.TrimSpace(s.Engine))
	s.Catalog = strings.ToLower(strings.TrimSpace(s.Catalog))
	if s.GraphText != "" {
		s.App = ""
	} else {
		if s.App == "" {
			s.App = "sobel"
		}
		switch s.App {
		case "sobel", "jpeg", "synthetic":
		default:
			return fmt.Errorf("service: unknown application %q", s.App)
		}
	}
	if s.App != "synthetic" {
		s.Tasks = 0
	} else if s.Tasks == 0 {
		s.Tasks = 20
	} else if s.Tasks < 1 {
		return fmt.Errorf("service: task count %d must be ≥ 1", s.Tasks)
	}
	if s.App != "synthetic" {
		// Only the synthetic generator consumes GraphSeed; the inline and
		// built-in graphs ignore it (LibSeed still applies to graph-text
		// specs, whose library is synthesized).
		s.GraphSeed = 0
		if s.GraphText == "" {
			s.LibSeed = 0
		}
	}
	if s.Method == "" {
		s.Method = "proposed"
	}
	if _, ok := layerMethods[s.Method]; !ok {
		switch s.Method {
		case "proposed", "fcclr", "pfclr", "agnostic":
		default:
			return fmt.Errorf("service: unknown method %q", s.Method)
		}
	}
	if !s.needsLibrary() {
		s.TDSESet = 0
	} else if s.TDSESet < 0 || s.TDSESet >= len(tdse.StudyObjectiveSets()) {
		return fmt.Errorf("service: tdse_set %d out of range [0,%d]",
			s.TDSESet, len(tdse.StudyObjectiveSets())-1)
	}
	if s.Engine == "" {
		s.Engine = "nsga2"
	}
	switch s.Engine {
	case "nsga2", "moead":
	default:
		return fmt.Errorf("service: unknown engine %q", s.Engine)
	}
	if s.Catalog == "" {
		s.Catalog = "default"
	}
	switch s.Catalog {
	case "default", "extended", "fpga":
	default:
		return fmt.Errorf("service: unknown catalog %q", s.Catalog)
	}
	if s.Pop == 0 {
		s.Pop = 60
	}
	if s.Gens == 0 {
		s.Gens = 40
	}
	if s.Pop < 2 || s.Gens < 1 {
		return fmt.Errorf("service: population %d / generations %d out of range", s.Pop, s.Gens)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if len(s.Objectives) == 0 {
		s.Objectives = []string{"makespan", "errprob"}
	}
	for i, name := range s.Objectives {
		name = strings.ToLower(strings.TrimSpace(name))
		if _, ok := systemObjectiveNames[name]; !ok {
			return fmt.Errorf("service: unknown system objective %q", name)
		}
		s.Objectives[i] = name
	}
	if len(s.Objectives) < 2 {
		return fmt.Errorf("service: need at least two objectives, got %d", len(s.Objectives))
	}
	if s.Jobs < 0 {
		s.Jobs = 0
	}
	// The float knobs must be finite and non-negative: NaN/Inf would make
	// the canonical spec unhashable (encoding/json rejects them), and
	// negative bounds or costs are meaningless (0 means "unconstrained" /
	// "communication-free").
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"comm_startup_us", s.CommStartupUS},
		{"comm_per_kb_us", s.CommPerKBUS},
		{"max_makespan_us", s.Constraints.MaxMakespanUS},
		{"min_functional_rel", s.Constraints.MinFunctionalRel},
		{"min_mttf_hours", s.Constraints.MinMTTFHours},
		{"max_energy_uj", s.Constraints.MaxEnergyUJ},
		{"max_peak_power_w", s.Constraints.MaxPeakPowerW},
	} {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) || k.v < 0 {
			return fmt.Errorf("service: %s = %v must be finite and non-negative", k.name, k.v)
		}
	}
	if s.Constraints.MinFunctionalRel > 1 {
		return fmt.Errorf("service: min_functional_rel = %v outside [0,1]", s.Constraints.MinFunctionalRel)
	}
	if s.Islands < 0 {
		return fmt.Errorf("service: islands = %d must be non-negative", s.Islands)
	}
	if s.Islands <= 1 {
		// 0 and 1 are both the plain single population; zero all three knobs
		// so the degraded forms hash (and so cache) identically.
		if s.MigrationEvery != 0 || s.Migrants != 0 {
			return fmt.Errorf("service: migration_every/migrants require islands ≥ 2")
		}
		s.Islands = 0
	} else {
		if s.Engine != "nsga2" {
			return fmt.Errorf("service: island mode requires the nsga2 engine")
		}
		if s.Islands > 64 {
			return fmt.Errorf("service: islands = %d exceeds the 64-island cap", s.Islands)
		}
		if s.MigrationEvery <= 0 {
			return fmt.Errorf("service: islands ≥ 2 requires migration_every ≥ 1")
		}
		if s.Pop < 2*s.Islands {
			return fmt.Errorf("service: population %d too small for %d islands (need ≥ %d)",
				s.Pop, s.Islands, 2*s.Islands)
		}
		if s.Migrants == 0 {
			s.Migrants = 2
		}
		if s.Migrants < 0 || s.Migrants >= s.Pop/s.Islands {
			return fmt.Errorf("service: migrants = %d outside [1,%d) for pop %d over %d islands",
				s.Migrants, s.Pop/s.Islands, s.Pop, s.Islands)
		}
	}
	if s.Converge {
		if s.Islands >= 2 {
			return fmt.Errorf("service: converge is incompatible with island mode")
		}
		if s.ConvergeWindow < 0 {
			return fmt.Errorf("service: converge_window = %d must be non-negative", s.ConvergeWindow)
		}
		if math.IsNaN(s.ConvergeEps) || math.IsInf(s.ConvergeEps, 0) || s.ConvergeEps < 0 {
			return fmt.Errorf("service: converge_eps = %v must be finite and non-negative", s.ConvergeEps)
		}
		if s.ConvergeWindow == 0 {
			s.ConvergeWindow = moea.DefaultPlateauWindow
		}
		if s.ConvergeEps == 0 {
			s.ConvergeEps = moea.DefaultPlateauEps
		}
	} else if s.ConvergeWindow != 0 || s.ConvergeEps != 0 {
		return fmt.Errorf("service: converge_window/converge_eps require converge")
	}
	s.Platform = strings.ToLower(strings.TrimSpace(s.Platform))
	switch s.Platform {
	case "", "default", "hmpsoc":
		s.Platform = "" // one canonical (and legacy-identical) degraded form
	case "fpga":
	default:
		return fmt.Errorf("service: unknown platform family %q", s.Platform)
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("service: faults: %w", err)
		}
		if !s.Faults.Enabled() {
			s.Faults = nil // empty model: hash like a legacy spec
		}
	}
	if !s.needsLibrary() {
		// The checkpoint axis is a tDSE enumeration decision; methods that
		// never build the filtered library cannot consume it (same
		// degraded-form treatment as TDSESet).
		s.CkptModes = false
		s.CkptIntervals = nil
	}
	if s.CkptModes {
		if len(s.CkptIntervals) == 0 {
			s.CkptIntervals = []int{2}
		}
		for _, n := range s.CkptIntervals {
			if n < 1 || n > 16 {
				return fmt.Errorf("service: ckpt_intervals entry %d outside [1,16]", n)
			}
		}
	} else if s.CkptIntervals != nil {
		return fmt.Errorf("service: ckpt_intervals requires ckpt_modes")
	}
	return nil
}

// Hash is the canonical content hash of a normalized spec — the result
// cache key. Struct field order fixes the JSON byte stream, so equal specs
// hash equally.
func (s *JobSpec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// A JobSpec of plain scalars and strings cannot fail to marshal.
		panic("service: spec hash: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// needsLibrary reports whether the method runs on the tDSE-filtered
// implementation library.
func (s *JobSpec) needsLibrary() bool {
	return s.Method == "proposed" || s.Method == "pfclr"
}

// TotalGenerations is the job's whole generation budget across all stages
// of its method — the denominator for progress reporting.
func (s *JobSpec) TotalGenerations() int {
	switch s.Method {
	case "proposed":
		return 2 * s.Gens
	case "agnostic":
		return 4 * s.Gens
	default: // fcclr, pfclr and the single-layer methods are one stage
		return s.Gens
	}
}

// Build materializes a normalized spec into a DSE instance and, for
// methods that need it, the task-level Pareto-filtered library.
func Build(s *JobSpec) (*core.Instance, *tdse.Library, error) {
	p, err := platform.Named(s.Platform)
	if err != nil {
		return nil, nil, err
	}
	cat := relmodel.DefaultCatalog()
	switch s.Catalog {
	case "extended":
		cat = relmodel.ExtendedCatalog()
	case "fpga":
		cat = relmodel.FPGACatalog()
	}
	objs := make([]core.SystemObjective, len(s.Objectives))
	for i, name := range s.Objectives {
		objs[i] = systemObjectiveNames[name]
	}
	inst := &core.Instance{
		Platform:      p,
		Catalog:       cat,
		Objectives:    objs,
		Comm:          schedule.CommModel{StartupUS: s.CommStartupUS, PerKBUS: s.CommPerKBUS},
		EnforceMemory: s.EnforceMemory,
		Faults:        s.Faults,
		Spec: schedule.Spec{
			MaxMakespanUS:    s.Constraints.MaxMakespanUS,
			MinFunctionalRel: s.Constraints.MinFunctionalRel,
			MinMTTFHours:     s.Constraints.MinMTTFHours,
			MaxEnergyUJ:      s.Constraints.MaxEnergyUJ,
			MaxPeakPowerW:    s.Constraints.MaxPeakPowerW,
		},
	}
	libSeed := s.LibSeed
	if libSeed == 0 {
		libSeed = s.Seed + 500
	}
	switch {
	case s.GraphText != "":
		g, err := tgff.ParseText(strings.NewReader(s.GraphText))
		if err != nil {
			return nil, nil, fmt.Errorf("service: parsing graph text: %w", err)
		}
		inst.Graph = g
		inst.Lib = characterize.Synthetic(p, characterize.DefaultSyntheticConfig(g.NumTypes()), libSeed)
	case s.App == "sobel":
		inst.Graph = taskgraph.Sobel()
		inst.Lib = characterize.Sobel(p)
	case s.App == "jpeg":
		inst.Graph = taskgraph.JPEG()
		inst.Lib = characterize.JPEG(p)
	default: // synthetic; Normalize rejected everything else
		graphSeed := s.GraphSeed
		if graphSeed == 0 {
			graphSeed = s.Seed
		}
		inst.Graph = tgff.MustGenerate(tgff.DefaultConfig(s.Tasks), graphSeed)
		inst.Lib = characterize.Synthetic(p, characterize.DefaultSyntheticConfig(10), libSeed)
	}
	if err := inst.Validate(); err != nil {
		return nil, nil, err
	}
	var flib *tdse.Library
	if s.needsLibrary() {
		opt := tdse.DefaultOptions()
		opt.Faults = s.Faults
		if s.CkptModes {
			opt.Checkpoints = tdse.CheckpointAxis(s.CkptIntervals)
		}
		flib, err = tdse.Build(inst.Lib, p, inst.Catalog, opt,
			tdse.StudyObjectiveSets()[s.TDSESet])
		if err != nil {
			return nil, nil, err
		}
	}
	return inst, flib, nil
}

// RunHooks bundles the optional observation and durability hooks of a run:
// a per-generation progress callback, and a checkpointer (with its snapshot
// period) that makes the run resumable. All fields may be zero.
type RunHooks struct {
	Progress        func(core.ProgressEvent)
	Checkpoint      core.Checkpointer
	CheckpointEvery int
}

// ExecuteOn runs the spec's method on an already-built instance. ctx
// cancels the run between GA generations; progress (optional) receives
// generation-by-generation events and may be invoked concurrently for
// methods with parallel stages.
func ExecuteOn(ctx context.Context, inst *core.Instance, flib *tdse.Library, s *JobSpec, progress func(core.ProgressEvent)) (*core.Front, error) {
	return ExecuteOnHooks(ctx, inst, flib, s, RunHooks{Progress: progress})
}

// ExecuteOnHooks is ExecuteOn with the full hook set — the entry point the
// durable job service uses to resume checkpointed runs.
func ExecuteOnHooks(ctx context.Context, inst *core.Instance, flib *tdse.Library, s *JobSpec, hooks RunHooks) (*core.Front, error) {
	cfg := core.RunConfig{
		Pop:             s.Pop,
		Gens:            s.Gens,
		Seed:            s.Seed,
		Jobs:            s.Jobs,
		Ctx:             ctx,
		Progress:        hooks.Progress,
		Checkpoint:      hooks.Checkpoint,
		CheckpointEvery: hooks.CheckpointEvery,
		DisableDelta:    s.NoDelta,
		Islands:         s.Islands,
		MigrationEvery:  s.MigrationEvery,
		Migrants:        s.Migrants,
	}
	if s.Converge {
		cfg.TerminateOnPlateau = true
		cfg.PlateauWindow = s.ConvergeWindow
		cfg.PlateauEps = s.ConvergeEps
	}
	if s.Engine == "moead" {
		cfg.Engine = core.MOEAD
	}
	if layer, ok := layerMethods[s.Method]; ok {
		return core.SingleLayer(inst, cfg, layer)
	}
	switch s.Method {
	case "proposed":
		return core.Proposed(inst, cfg, flib)
	case "fcclr":
		return core.FcCLR(inst, cfg)
	case "pfclr":
		return core.PfCLR(inst, cfg, flib)
	case "agnostic":
		front, _, err := core.Agnostic(inst, cfg)
		return front, err
	default:
		return nil, fmt.Errorf("service: unknown method %q", s.Method)
	}
}

// Execute builds the spec's instance and runs it — the one-call entry
// point shared by the CLI and the service workers.
func Execute(ctx context.Context, s *JobSpec, progress func(core.ProgressEvent)) (*core.Front, error) {
	inst, flib, err := Build(s)
	if err != nil {
		return nil, err
	}
	return ExecuteOn(ctx, inst, flib, s, progress)
}
