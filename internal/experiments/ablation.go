package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/moea"
	"repro/internal/scenario"
	"repro/internal/schedule"
	"repro/internal/sweep"
)

// The ablation studies probe the design choices DESIGN.md calls out: the
// two-stage seeding of the proposed methodology, the paper's scheduling
// operators (§V.C), and the communication-aware scheduling extension.
// They are additions beyond the paper's own evaluation.

// AblationSeedingResult compares search strategies at equal evaluation
// budgets on one application.
type AblationSeedingResult struct {
	Tasks int
	// HV per strategy against a common reference.
	Rows []AblationRow
}

// AblationRow is one (strategy, hypervolume, evaluations) measurement.
type AblationRow struct {
	Strategy    string
	Hypervolume float64
	Evaluations int
}

// AblationSeeding quantifies what each ingredient of the proposed method
// contributes: random search, plain fcCLR, standalone pfCLR, and the full
// seeded two-stage flow, all on the same 20-task application.
func (c Config) AblationSeeding() (*AblationSeedingResult, error) {
	inst := c.systemInstance(20)
	flib, err := c.tdseLibrary(0)
	if err != nil {
		return nil, err
	}
	cfg := c.run(c.Seed + 71)

	// fcCLR and the pfCLR→proposed chain are independent arms; random
	// search needs the proposed flow's evaluation count, so it runs after.
	var fc, pf, prop *core.Front
	err = sweep.Run(c.Jobs, []func() error{
		func() error {
			f, err := core.FcCLR(inst, cfg)
			fc = f
			return err
		},
		func() error {
			f, err := core.PfCLR(inst, cfg, flib)
			if err != nil {
				return err
			}
			pf = f
			prop, err = core.ProposedFrom(inst, cfg, flib, pf)
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	// Random search with the same budget as the full proposed flow.
	rnd, err := core.RandomSearch(inst, prop.Evaluations, c.Seed+72)
	if err != nil {
		return nil, err
	}

	fronts := [][][]float64{
		frontPoints(rnd), frontPoints(fc), frontPoints(pf), frontPoints(prop),
	}
	labels := []string{"random-search", "fcCLR", "pfCLR", "proposed (seeded)"}
	evals := []int{rnd.Evaluations, fc.Evaluations, pf.Evaluations, prop.Evaluations}
	hv := commonHypervolumes(fronts...)
	out := &AblationSeedingResult{Tasks: 20}
	for i := range labels {
		out.Rows = append(out.Rows, AblationRow{
			Strategy: labels[i], Hypervolume: hv[i], Evaluations: evals[i],
		})
	}
	return out, nil
}

// Print renders the ablation table.
func (r *AblationSeedingResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation — search strategy contribution (%d tasks)\n", r.Tasks)
	header := []string{"strategy", "hypervolume", "evaluations"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy, fmt.Sprintf("%.4g", row.Hypervolume), fmt.Sprintf("%d", row.Evaluations),
		})
	}
	writeTable(w, header, rows)
}

// AblationOperatorsResult measures each GA operator's contribution.
type AblationOperatorsResult struct {
	Tasks int
	Rows  []AblationRow
}

// AblationOperators disables the paper's scheduling operators one at a time
// during an fcCLR run and reports the hypervolume impact.
func (c Config) AblationOperators() (*AblationOperatorsResult, error) {
	inst := c.systemInstance(20)
	variants := []struct {
		label  string
		mutate func(*moea.Params)
	}{
		{"all operators (paper)", func(*moea.Params) {}},
		{"no config crossover", func(p *moea.Params) { p.DisableConfigCrossover = true }},
		{"no order crossover", func(p *moea.Params) { p.DisableOrderCrossover = true }},
		{"no order mutation", func(p *moea.Params) { p.DisableOrderMutation = true }},
	}
	runs, err := sweep.Map(c.Jobs, variants, func(_ int, v struct {
		label  string
		mutate func(*moea.Params)
	}) (*core.Front, error) {
		params := moea.DefaultParams(c.Pop, c.Gens, c.Seed+81)
		v.mutate(&params)
		return core.FcCLRWithParams(inst, params)
	})
	if err != nil {
		return nil, err
	}
	var fronts [][][]float64
	var evals []int
	for _, front := range runs {
		fronts = append(fronts, frontPoints(front))
		evals = append(evals, front.Evaluations)
	}
	hv := commonHypervolumes(fronts...)
	out := &AblationOperatorsResult{Tasks: 20}
	for i, v := range variants {
		out.Rows = append(out.Rows, AblationRow{Strategy: v.label, Hypervolume: hv[i], Evaluations: evals[i]})
	}
	return out, nil
}

// Print renders the ablation table.
func (r *AblationOperatorsResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation — GA operator contribution, fcCLR (%d tasks)\n", r.Tasks)
	header := []string{"variant", "hypervolume", "evaluations"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy, fmt.Sprintf("%.4g", row.Hypervolume), fmt.Sprintf("%d", row.Evaluations),
		})
	}
	writeTable(w, header, rows)
}

// AblationEngineResult compares the two MOEA engines on one instance.
type AblationEngineResult struct {
	Tasks int
	Rows  []AblationRow
}

// AblationEngine runs the proposed methodology under both MOEA families
// (NSGA-II and MOEA/D) at equal budgets and reports front quality.
func (c Config) AblationEngine() (*AblationEngineResult, error) {
	inst := c.systemInstance(20)
	flib, err := c.tdseLibrary(0)
	if err != nil {
		return nil, err
	}
	engines := []core.Engine{core.NSGA2, core.MOEAD}
	runs, err := sweep.Map(c.Jobs, engines, func(_ int, e core.Engine) (*core.Front, error) {
		cfg := c.run(c.Seed + 95)
		cfg.Engine = e
		return core.Proposed(inst, cfg, flib)
	})
	if err != nil {
		return nil, err
	}
	var fronts [][][]float64
	var evals []int
	for _, front := range runs {
		fronts = append(fronts, frontPoints(front))
		evals = append(evals, front.Evaluations)
	}
	hv := commonHypervolumes(fronts...)
	out := &AblationEngineResult{Tasks: 20}
	for i, e := range engines {
		out.Rows = append(out.Rows, AblationRow{Strategy: e.String(), Hypervolume: hv[i], Evaluations: evals[i]})
	}
	return out, nil
}

// Print renders the engine comparison.
func (r *AblationEngineResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation — MOEA engine comparison, proposed method (%d tasks)\n", r.Tasks)
	header := []string{"engine", "hypervolume", "evaluations"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy, fmt.Sprintf("%.4g", row.Hypervolume), fmt.Sprintf("%d", row.Evaluations),
		})
	}
	writeTable(w, header, rows)
}

// AblationCommResult demonstrates the communication-aware extension (the
// paper's stated future work): the same DSE with and without interconnect
// delays.
type AblationCommResult struct {
	Tasks int
	// NoComm and WithComm are the resulting fronts.
	NoComm, WithComm FrontSeries
	// LocalityNoComm / LocalityWithComm measure the fraction of dependency
	// edges whose endpoints share a PE, averaged over front points: the
	// comm-aware DSE should co-locate communicating tasks more.
	LocalityNoComm, LocalityWithComm float64
}

// AblationComm runs the proposed DSE on one application twice — without a
// communication model and with a shared-interconnect model — and compares
// the achieved fronts and mapping locality.
func (c Config) AblationComm() (*AblationCommResult, error) {
	flib, err := c.tdseLibrary(0)
	if err != nil {
		return nil, err
	}
	out := &AblationCommResult{Tasks: 20}

	instFree := c.systemInstance(20)
	instComm := c.systemInstance(20)
	instComm.Comm = schedule.CommModel{StartupUS: 200, PerKBUS: 25}
	var free, comm *core.Front
	err = sweep.Run(c.Jobs, []func() error{
		func() error {
			f, err := core.Proposed(instFree, c.run(c.Seed+91), flib)
			free = f
			return err
		},
		func() error {
			f, err := core.Proposed(instComm, c.run(c.Seed+91), flib)
			comm = f
			return err
		},
	})
	if err != nil {
		return nil, err
	}

	out.NoComm = FrontSeries{Label: "no-comm", Points: sortedFront(frontPoints(free))}
	out.WithComm = FrontSeries{Label: "with-comm", Points: sortedFront(frontPoints(comm))}
	out.LocalityNoComm = avgLocality(instFree, free)
	out.LocalityWithComm = avgLocality(instComm, comm)
	return out, nil
}

// avgLocality averages, over front points, the fraction of edges whose two
// tasks are mapped to the same PE.
func avgLocality(inst *core.Instance, f *core.Front) float64 {
	if len(f.Points) == 0 {
		return 0
	}
	edges := inst.Graph.Edges()
	total := 0.0
	for _, pt := range f.Points {
		pePerTask := core.DecodePEs(inst, pt.Genome)
		local := 0
		for _, e := range edges {
			if pePerTask[e.From] == pePerTask[e.To] {
				local++
			}
		}
		total += float64(local) / float64(len(edges))
	}
	return total / float64(len(f.Points))
}

// Print renders the comm ablation.
func (r *AblationCommResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation — communication-aware scheduling extension (%d tasks)\n", r.Tasks)
	fmt.Fprintf(w, "  edge locality: %.1f%% without comm model, %.1f%% with comm model\n",
		100*r.LocalityNoComm, 100*r.LocalityWithComm)
	printFrontSeries(w, []FrontSeries{r.NoComm, r.WithComm}, "avg makespan (us)", "app error prob (%)")
}

// AblationHEFTResult compares GA initialization strategies.
type AblationHEFTResult struct {
	Tasks int
	Rows  []AblationRow
	// HEFTMakespanUS is the constructive schedule's makespan.
	HEFTMakespanUS float64
}

// AblationHEFT measures the value of constructive seeding: a pfCLR run from
// random initialization vs one whose population includes a HEFT-built
// mapping, at equal budgets.
func (c Config) AblationHEFT() (*AblationHEFTResult, error) {
	inst := c.systemInstance(20)
	flib, err := c.tdseLibrary(0)
	if err != nil {
		return nil, err
	}
	seed, err := core.HEFTSeed(inst, flib)
	if err != nil {
		return nil, err
	}
	seedQoS, err := core.EvaluatePFMapping(inst, flib, seed)
	if err != nil {
		return nil, err
	}
	var plain, seeded *core.Front
	err = sweep.Run(c.Jobs, []func() error{
		func() error {
			f, err := core.PfCLR(inst, c.run(c.Seed+97), flib)
			plain = f
			return err
		},
		func() error {
			f, err := core.PfCLRWithSeeds(inst, c.run(c.Seed+97), flib, []*moea.Genome{seed})
			seeded = f
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	hv := commonHypervolumes(frontPoints(plain), frontPoints(seeded))
	return &AblationHEFTResult{
		Tasks: 20,
		Rows: []AblationRow{
			{Strategy: "pfCLR (random init)", Hypervolume: hv[0], Evaluations: plain.Evaluations},
			{Strategy: "pfCLR (HEFT-seeded)", Hypervolume: hv[1], Evaluations: seeded.Evaluations},
		},
		HEFTMakespanUS: seedQoS.MakespanUS,
	}, nil
}

// Print renders the seeding comparison.
func (r *AblationHEFTResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation — HEFT constructive seeding, pfCLR (%d tasks); HEFT schedule %.0f µs\n",
		r.Tasks, r.HEFTMakespanUS)
	header := []string{"initialization", "hypervolume", "evaluations"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Strategy, fmt.Sprintf("%.4g", row.Hypervolume), fmt.Sprintf("%d", row.Evaluations),
		})
	}
	writeTable(w, header, rows)
}

// ScenarioResult reports the operating-condition study (extension): the
// adaptive per-scenario policy vs the static worst-case design.
type ScenarioResult struct {
	Study *scenario.StudyResult
}

// Scenario runs the mission-profile study of the scenario package on a
// 15-task synthetic application over the default three-environment profile.
func (c Config) Scenario() (*ScenarioResult, error) {
	inst := c.systemInstance(15)
	study, err := scenario.Study(inst, c.run(c.Seed+99),
		TDSEObjectiveSets()[0], scenario.DefaultSet())
	if err != nil {
		return nil, err
	}
	return &ScenarioResult{Study: study}, nil
}

// Print renders the policy comparison.
func (r *ScenarioResult) Print(w io.Writer) {
	s := r.Study
	fmt.Fprintf(w, "Extension — operating scenarios: static worst-case vs adaptive (target err ≤ %.4f%%)\n",
		s.ReliabilityTarget*100)
	header := []string{"scenario", "fault-rate", "weight", "static mk(us)", "adaptive mk(us)"}
	var rows [][]string
	for i, sc := range s.Set {
		rows = append(rows, []string{
			sc.Name,
			fmt.Sprintf("x%g", sc.FaultRateFactor),
			fmt.Sprintf("%.0f%%", sc.Weight*100),
			fmt.Sprintf("%.0f", s.Static.PerScenario[i].MakespanUS),
			fmt.Sprintf("%.0f", s.Adaptive.PerScenario[i].MakespanUS),
		})
	}
	writeTable(w, header, rows)
	fmt.Fprintf(w, "expected makespan: static %.0f µs, adaptive %.0f µs (adaptive %.0f%% faster)\n",
		s.Static.ExpMakespanUS, s.Adaptive.ExpMakespanUS, s.SpeedupPct())
}

// MemoryResult reports the storage-constraint extension: the same DSE with
// and without per-PE local memory enforcement under tightened capacities.
type MemoryResult struct {
	Tasks int
	// CapKB is the tightened per-PE capacity used for the study.
	CapKB float64
	// Unconstrained / Constrained are the resulting fronts.
	Unconstrained, Constrained FrontSeries
	// OverflowUnconstrained is the fraction of unconstrained front points
	// that would violate the capacity — what the paper-mode DSE silently
	// ships; the constrained front has zero by construction.
	OverflowUnconstrained float64
}

// Memory runs the proposed DSE on one application with and without the
// storage-constraint extension under deliberately tight local memories.
func (c Config) Memory() (*MemoryResult, error) {
	flib, err := c.tdseLibrary(0)
	if err != nil {
		return nil, err
	}
	const capKB = 350
	tighten := func(inst *core.Instance) {
		for _, pt := range inst.Platform.Types() {
			pt.LocalMemKB = capKB
		}
	}

	instFree := c.systemInstance(20)
	tighten(instFree)
	instMem := c.systemInstance(20)
	tighten(instMem)
	instMem.EnforceMemory = true
	var free, constrained *core.Front
	err = sweep.Run(c.Jobs, []func() error{
		func() error {
			f, err := core.Proposed(instFree, c.run(c.Seed+103), flib)
			free = f
			return err
		},
		func() error {
			f, err := core.Proposed(instMem, c.run(c.Seed+103), flib)
			constrained = f
			return err
		},
	})
	if err != nil {
		return nil, err
	}

	out := &MemoryResult{
		Tasks:         20,
		CapKB:         capKB,
		Unconstrained: FrontSeries{Label: "paper-mode", Points: sortedFront(frontPoints(free))},
		Constrained:   FrontSeries{Label: "memory-enforced", Points: sortedFront(frontPoints(constrained))},
	}
	violating := 0
	for _, pt := range free.Points {
		// Re-evaluate under the memory-enforcing instance to expose usage.
		q, err := core.EvaluateMapping(instMem, pt.Genome)
		if err != nil {
			return nil, err
		}
		if len(schedule.MemoryViolations(q, instMem.Platform)) > 0 {
			violating++
		}
	}
	if len(free.Points) > 0 {
		out.OverflowUnconstrained = float64(violating) / float64(len(free.Points))
	}
	return out, nil
}

// Print renders the storage study.
func (r *MemoryResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Extension — storage constraints (%d tasks, %g KB per PE)\n", r.Tasks, r.CapKB)
	fmt.Fprintf(w, "  paper-mode front: %d points, %.0f%% overflow local memory; enforced front: %d points, all fit\n",
		len(r.Unconstrained.Points), 100*r.OverflowUnconstrained, len(r.Constrained.Points))
	printFrontSeries(w, []FrontSeries{r.Unconstrained, r.Constrained}, "avg makespan (us)", "app error prob (%)")
}
