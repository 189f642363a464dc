package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/tdse"
	"repro/internal/tgff"
)

// systemInstance builds a synthetic system-level instance of the given size
// over the shared ten-type library.
func (c Config) systemInstance(tasks int) *core.Instance {
	p := platform.Default()
	return &core.Instance{
		Graph:      tgff.MustGenerate(tgff.DefaultConfig(tasks), c.Seed+int64(tasks)),
		Platform:   p,
		Lib:        syntheticLibrary(c, p),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: core.DefaultObjectives(),
	}
}

// tdseLibrary builds the pfCLR input library for the k-th tDSE objective
// set (0-based) over the shared synthetic characterization.
func (c Config) tdseLibrary(k int) (*tdse.Library, error) {
	p := platform.Default()
	return tdse.Build(syntheticLibrary(c, p), p, relmodel.DefaultCatalog(),
		tdse.DefaultOptions(), TDSEObjectiveSets()[k])
}

// systemSpec is the wire form of one system-level experiment cell: a
// JobSpec from which a remote worker rebuilds exactly the instance of
// systemInstance(tasks) — graph seed Seed+tasks, library seed Seed+500,
// default platform/catalog/objectives — and runs the given method with the
// given budget. Jobs is left zero: it never affects results, and omitting
// it keeps worker cache keys stable across local -jobs settings.
func (c Config) systemSpec(method string, tasks, gens int, seed int64) *service.JobSpec {
	return &service.JobSpec{
		App:            "synthetic",
		Tasks:          tasks,
		GraphSeed:      c.Seed + int64(tasks),
		LibSeed:        c.Seed + 500,
		Method:         method,
		Pop:            c.Pop,
		Gens:           gens,
		Seed:           seed,
		Islands:        c.Islands,
		MigrationEvery: c.MigrationEvery,
		Migrants:       c.Migrants,
		Converge:       c.Converge,
		ConvergeWindow: c.ConvergeWindow,
		ConvergeEps:    c.ConvergeEps,
	}
}

// cell is one system-level experiment run, in two forms that compute the
// same front: spec, its wire form for a remote run (nil pins the cell to
// the local path), and local, the in-process run that is ground truth.
// store receives the front; each cell stores into its own slot, and the
// caller merges the slots in cell order after runCells returns.
type cell struct {
	spec  *service.JobSpec
	local func() (*core.Front, error)
	store func(*core.Front)
}

// runCells executes cells with the sweep engine, at most c.Jobs at once.
// A cell with a spec goes through the remote client when one is
// configured, and runs locally otherwise. Either way the lowest-indexed
// cell error wins, so the caller-visible outcome is identical.
func (c Config) runCells(cells []cell) error {
	tasks := make([]func() error, len(cells))
	for i := range cells {
		cl := &cells[i]
		tasks[i] = func() error {
			var front *core.Front
			var err error
			if c.Remote != nil && cl.spec != nil {
				front, err = c.Remote.Run(context.Background(), cl.spec, cl.local)
			} else {
				front, err = cl.local()
			}
			if err != nil {
				return err
			}
			cl.store(front)
			return nil
		}
	}
	return sweep.Run(c.Jobs, tasks)
}

// agnosticCells builds the four single-layer cells whose merged fronts
// form the Agnostic baseline, replicating core.Agnostic's seed derivation
// (layer i runs at seed+i·1000) so the distributed decomposition is
// byte-identical to the in-process call. Fronts land in out[0..3] in layer
// order.
func (c Config) agnosticCells(inst *core.Instance, tasks int, seed int64, out []*core.Front) []cell {
	var cells []cell
	for i, layer := range core.Layers() {
		i, layer := i, layer
		layerCfg := c.run(seed + int64(i)*1000)
		cells = append(cells, cell{
			spec: c.systemSpec(service.LayerMethod(layer), tasks, c.Gens, layerCfg.Seed),
			local: func() (*core.Front, error) {
				f, err := core.SingleLayer(inst, layerCfg, layer)
				if err != nil {
					return nil, fmt.Errorf("experiments: %v-only run: %w", layer, err)
				}
				return f, nil
			},
			store: func(f *core.Front) { out[i] = f },
		})
	}
	return cells
}

// Fig7Result holds the system-level fronts of the cross-layer vs.
// layer-agnostic comparison for one application (Fig. 7).
type Fig7Result struct {
	Tasks int
	// CLR is the cross-layer front; Agnostic merges the dominant points of
	// the four single-layer fronts, which are also included.
	CLR, Agnostic FrontSeries
	PerLayer      []FrontSeries
	// ImprovementPct is the hypervolume increase of CLR over Agnostic.
	ImprovementPct float64
}

// Fig7 reproduces Fig. 7: the Pareto front from cross-layer optimization
// against the combined front of the four single-layer optimizations, for a
// synthetic application with 20 tasks.
func (c Config) Fig7() (*Fig7Result, error) {
	return c.fig7At(20)
}

func (c Config) fig7At(tasks int) (*Fig7Result, error) {
	inst := c.systemInstance(tasks)
	flib, err := c.tdseLibrary(0)
	if err != nil {
		return nil, err
	}
	// Equal total evaluation budget: the agnostic side runs four GA
	// optimizations, the proposed flow two stages — double the stage
	// budget so both approaches spend 4× (pop·gens) evaluations.
	// The CLR run and the four single-layer runs are independent cells on
	// the shared instance (and its shared metric cache); seeds are fixed
	// per cell, and the agnostic side is merged from the layer fronts in
	// layer order, exactly as core.Agnostic would.
	clrCfg := c.run(c.Seed + 1)
	clrCfg.Gens *= 2
	var clr *core.Front
	layerFronts := make([]*core.Front, len(core.Layers()))
	cells := []cell{{
		spec: c.systemSpec("proposed", tasks, clrCfg.Gens, clrCfg.Seed),
		local: func() (*core.Front, error) {
			f, err := core.Proposed(inst, clrCfg, flib)
			if err != nil {
				return nil, fmt.Errorf("experiments: CLR run: %w", err)
			}
			return f, nil
		},
		store: func(f *core.Front) { clr = f },
	}}
	cells = append(cells, c.agnosticCells(inst, tasks, c.Seed+2, layerFronts)...)
	if err := c.runCells(cells); err != nil {
		return nil, err
	}
	agn := core.MergeFronts(layerFronts...)
	perLayer := make(map[core.Layer]*core.Front, len(layerFronts))
	for i, layer := range core.Layers() {
		perLayer[layer] = layerFronts[i]
	}
	out := &Fig7Result{
		Tasks:    tasks,
		CLR:      FrontSeries{Label: "CLR", Points: sortedFront(frontPoints(clr))},
		Agnostic: FrontSeries{Label: "Agnostic", Points: sortedFront(frontPoints(agn))},
	}
	for _, layer := range core.Layers() {
		out.PerLayer = append(out.PerLayer, FrontSeries{
			Label:  layer.String(),
			Points: sortedFront(frontPoints(perLayer[layer])),
		})
	}
	hv := commonHypervolumes(out.CLR.Points, out.Agnostic.Points)
	out.ImprovementPct = pctIncrease(hv[0], hv[1])
	return out, nil
}

// Print renders the figure data.
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 7 — CLR vs single-layer/agnostic fronts (%d tasks); CLR hypervolume +%.0f%% over Agnostic\n",
		r.Tasks, r.ImprovementPct)
	series := append([]FrontSeries{r.Agnostic, r.CLR}, r.PerLayer...)
	printFrontSeries(w, series, "avg makespan (us)", "app error prob (%)")
}

// Table5Result holds the per-size hypervolume improvements of cross-layer
// optimization over the agnostic approach (TABLE V).
type Table5Result struct {
	Sizes []int
	// IncreasePct[i] is the % hypervolume increase at Sizes[i].
	IncreasePct []float64
}

// Table5 reproduces TABLE V: the improvement in Pareto-front hypervolume
// with cross-layer optimization over the other-layer-agnostic approach for
// applications of increasing size.
func (c Config) Table5() (*Table5Result, error) {
	flib, err := c.tdseLibrary(0)
	if err != nil {
		return nil, err
	}
	out := &Table5Result{Sizes: c.Sizes}
	// One cell per (size, strategy run): a proposed cell and four
	// single-layer cells per size. Cells of one size share the instance,
	// so their Markov-metric cache is shared too.
	clrs := make([]*core.Front, len(c.Sizes))
	layerFronts := make([][]*core.Front, len(c.Sizes))
	var cells []cell
	for i, tasks := range c.Sizes {
		i, tasks := i, tasks
		inst := c.systemInstance(tasks)
		// Equal total budgets, as in fig7At.
		clrCfg := c.run(c.Seed + int64(tasks)*7 + 1)
		clrCfg.Gens *= 2
		cells = append(cells, cell{
			spec: c.systemSpec("proposed", tasks, clrCfg.Gens, clrCfg.Seed),
			local: func() (*core.Front, error) {
				return core.Proposed(inst, clrCfg, flib)
			},
			store: func(f *core.Front) { clrs[i] = f },
		})
		layerFronts[i] = make([]*core.Front, len(core.Layers()))
		cells = append(cells, c.agnosticCells(inst, tasks, c.Seed+int64(tasks)*7+2, layerFronts[i])...)
	}
	if err := c.runCells(cells); err != nil {
		return nil, err
	}
	for i := range c.Sizes {
		agn := core.MergeFronts(layerFronts[i]...)
		hv := commonHypervolumes(frontPoints(clrs[i]), frontPoints(agn))
		out.IncreasePct = append(out.IncreasePct, pctIncrease(hv[0], hv[1]))
	}
	return out, nil
}

// Print renders TABLE V.
func (r *Table5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "TABLE V — % increase in hypervolume: cross-layer over agnostic")
	printSizeRow(w, r.Sizes, r.IncreasePct)
}

// Fig8Result holds the proposed-vs-fcCLR fronts of one application (Fig. 8),
// with standard front-quality metrics alongside the hypervolume comparison.
type Fig8Result struct {
	Tasks              int
	FcCLR, Proposed    FrontSeries
	ImprovementPct     float64
	FcEvals, PropEvals int
	// SpacingFc / SpacingProp are Schott's spacing per front (lower =
	// more even spread); IGDFc is the fcCLR front's inverted generational
	// distance to the proposed front (its distance from the better set).
	SpacingFc, SpacingProp, IGDFc float64
}

// Fig8 reproduces Fig. 8: the Pareto fronts of the proposed two-stage
// method and the fcCLR baseline for a 50-task synthetic application.
func (c Config) Fig8() (*Fig8Result, error) {
	return c.fig8At(50)
}

func (c Config) fig8At(tasks int) (*Fig8Result, error) {
	inst := c.systemInstance(tasks)
	flib, err := c.tdseLibrary(0)
	if err != nil {
		return nil, err
	}
	var fc, prop *core.Front
	fcCfg, propCfg := c.run(c.Seed+3), c.run(c.Seed+4)
	err = c.runCells([]cell{
		{
			spec:  c.systemSpec("fcclr", tasks, c.Gens, fcCfg.Seed),
			local: func() (*core.Front, error) { return core.FcCLR(inst, fcCfg) },
			store: func(f *core.Front) { fc = f },
		},
		{
			spec:  c.systemSpec("proposed", tasks, c.Gens, propCfg.Seed),
			local: func() (*core.Front, error) { return core.Proposed(inst, propCfg, flib) },
			store: func(f *core.Front) { prop = f },
		},
	})
	if err != nil {
		return nil, err
	}
	hv := commonHypervolumes(frontPoints(prop), frontPoints(fc))
	return &Fig8Result{
		Tasks:          tasks,
		FcCLR:          FrontSeries{Label: "fcCLR", Points: sortedFront(frontPoints(fc))},
		Proposed:       FrontSeries{Label: "proposed", Points: sortedFront(frontPoints(prop))},
		ImprovementPct: pctIncrease(hv[0], hv[1]),
		FcEvals:        fc.Evaluations,
		PropEvals:      prop.Evaluations,
		SpacingFc:      pareto.Spacing(frontPoints(fc)),
		SpacingProp:    pareto.Spacing(frontPoints(prop)),
		IGDFc:          pareto.IGD(frontPoints(fc), frontPoints(prop)),
	}, nil
}

// Print renders the figure data.
func (r *Fig8Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 8 — proposed vs fcCLR fronts (%d tasks); proposed hypervolume +%.0f%%\n",
		r.Tasks, r.ImprovementPct)
	fmt.Fprintf(w, "  front quality: spacing fcCLR %.4g vs proposed %.4g; fcCLR IGD to proposed %.4g\n",
		r.SpacingFc, r.SpacingProp, r.IGDFc)
	printFrontSeries(w, []FrontSeries{r.FcCLR, r.Proposed}, "avg makespan (us)", "app error prob (%)")
}

// Table6Result holds the per-size hypervolume improvements of the proposed
// method over fcCLR (TABLE VI).
type Table6Result struct {
	Sizes       []int
	IncreasePct []float64
}

// Table6 reproduces TABLE VI: the percentage increase in Pareto-front
// hypervolume of the proposed approach over fcCLR optimization for
// applications with varying numbers of tasks.
func (c Config) Table6() (*Table6Result, error) {
	flib, err := c.tdseLibrary(0)
	if err != nil {
		return nil, err
	}
	out := &Table6Result{Sizes: c.Sizes}
	fcs := make([]*core.Front, len(c.Sizes))
	props := make([]*core.Front, len(c.Sizes))
	var cells []cell
	for i, tasks := range c.Sizes {
		i, tasks := i, tasks
		inst := c.systemInstance(tasks)
		fcCfg := c.run(c.Seed + int64(tasks)*11 + 1)
		propCfg := c.run(c.Seed + int64(tasks)*11 + 2)
		cells = append(cells,
			cell{
				spec:  c.systemSpec("fcclr", tasks, c.Gens, fcCfg.Seed),
				local: func() (*core.Front, error) { return core.FcCLR(inst, fcCfg) },
				store: func(f *core.Front) { fcs[i] = f },
			},
			cell{
				spec:  c.systemSpec("proposed", tasks, c.Gens, propCfg.Seed),
				local: func() (*core.Front, error) { return core.Proposed(inst, propCfg, flib) },
				store: func(f *core.Front) { props[i] = f },
			},
		)
	}
	if err := c.runCells(cells); err != nil {
		return nil, err
	}
	for i := range c.Sizes {
		hv := commonHypervolumes(frontPoints(props[i]), frontPoints(fcs[i]))
		out.IncreasePct = append(out.IncreasePct, pctIncrease(hv[0], hv[1]))
	}
	return out, nil
}

// Print renders TABLE VI.
func (r *Table6Result) Print(w io.Writer) {
	fmt.Fprintln(w, "TABLE VI — % increase in hypervolume: proposed over fcCLR")
	printSizeRow(w, r.Sizes, r.IncreasePct)
}

// Fig10Result holds the fronts of the proposed and standalone pfCLR methods
// for the three tDSE libraries of increasing size (Fig. 10).
type Fig10Result struct {
	Tasks int
	// Series holds proposed_1, pfCLR_1, …, proposed_3, pfCLR_3.
	Series []FrontSeries
}

// Fig10 reproduces Fig. 10: Pareto fronts of three optimization runs with
// the proposed and pfCLR methods under an increasing number of task-level
// implementations, for an application with 30 tasks.
func (c Config) Fig10() (*Fig10Result, error) {
	inst := c.systemInstance(30)
	out := &Fig10Result{Tasks: 30}
	// One sweep cell per tDSE library: each cell is a dependent chain
	// (library build → pfCLR → seeded fcCLR); the three chains are
	// independent and share the instance's metric cache.
	type chain struct{ pf, prop *core.Front }
	chains, err := sweep.Map(c.Jobs, []int{0, 1, 2}, func(_ int, k int) (chain, error) {
		flib, err := c.tdseLibrary(k)
		if err != nil {
			return chain{}, err
		}
		pf, err := core.PfCLR(inst, c.run(c.Seed+int64(k)*31+5), flib)
		if err != nil {
			return chain{}, err
		}
		// proposed_k extends exactly the pfCLR_k run shown alongside it.
		prop, err := core.ProposedFrom(inst, c.run(c.Seed+int64(k)*31+6), flib, pf)
		if err != nil {
			return chain{}, err
		}
		return chain{pf: pf, prop: prop}, nil
	})
	if err != nil {
		return nil, err
	}
	for k, ch := range chains {
		out.Series = append(out.Series,
			FrontSeries{Label: fmt.Sprintf("proposed_%d", k+1), Points: sortedFront(frontPoints(ch.prop))},
			FrontSeries{Label: fmt.Sprintf("pfCLR_%d", k+1), Points: sortedFront(frontPoints(ch.pf))},
		)
	}
	return out, nil
}

// Print renders the figure data.
func (r *Fig10Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Fig. 10 — proposed vs pfCLR fronts for three tDSE libraries (%d tasks)\n", r.Tasks)
	printFrontSeries(w, r.Series, "avg makespan (us)", "app error prob (%)")
}

// Table7Result holds the per-size hypervolume increases of every variant
// over pfCLR_3 (TABLE VII).
type Table7Result struct {
	Sizes []int
	// IncreasePct[i] holds, for Sizes[i], the increases of
	// proposed_1, pfCLR_1, proposed_2, pfCLR_2, proposed_3, pfCLR_3
	// (the last is 0 by construction).
	IncreasePct [][]float64
}

// Table7Columns labels the columns of TABLE VII.
var Table7Columns = []string{"proposed_1", "pfCLR_1", "proposed_2", "pfCLR_2", "proposed_3", "pfCLR_3"}

// Table7 reproduces TABLE VII: the percentage increase in Pareto-front
// hypervolume over pfCLR_3 for the proposed and pfCLR methods under the
// three tDSE libraries, across application sizes.
func (c Config) Table7() (*Table7Result, error) {
	// The three library builds are independent of each other and of the
	// instances, so they are their own (small) sweep.
	flibs, err := sweep.Map(c.Jobs, []int{0, 1, 2}, func(_ int, k int) (*tdse.Library, error) {
		return c.tdseLibrary(k)
	})
	if err != nil {
		return nil, err
	}
	out := &Table7Result{Sizes: c.Sizes}
	// One sweep cell per (size, library): each is a pfCLR → seeded-fcCLR
	// chain; the 3·len(Sizes) chains are independent, and chains of one
	// size share the instance's metric cache.
	fronts := make([][][][]float64, len(c.Sizes))
	var cells []func() error
	for i, tasks := range c.Sizes {
		i, tasks := i, tasks
		inst := c.systemInstance(tasks)
		fronts[i] = make([][][]float64, 6)
		for k := 0; k < 3; k++ {
			k := k
			cells = append(cells, func() error {
				pf, err := core.PfCLR(inst, c.run(c.Seed+int64(tasks)*13+int64(k)*2+2), flibs[k])
				if err != nil {
					return err
				}
				// proposed_k extends exactly the pfCLR_k run it is compared to.
				prop, err := core.ProposedFrom(inst, c.run(c.Seed+int64(tasks)*13+int64(k)*2+1), flibs[k], pf)
				if err != nil {
					return err
				}
				fronts[i][2*k] = frontPoints(prop)
				fronts[i][2*k+1] = frontPoints(pf)
				return nil
			})
		}
	}
	if err := sweep.Run(c.Jobs, cells); err != nil {
		return nil, err
	}
	for i := range c.Sizes {
		hv := commonHypervolumes(fronts[i]...)
		row := make([]float64, 6)
		for j := range hv {
			row[j] = pctIncrease(hv[j], hv[5])
		}
		out.IncreasePct = append(out.IncreasePct, row)
	}
	return out, nil
}

// Print renders TABLE VII.
func (r *Table7Result) Print(w io.Writer) {
	fmt.Fprintln(w, "TABLE VII — % increase in hypervolume over pfCLR_3")
	header := append([]string{"#Tasks"}, Table7Columns...)
	var rows [][]string
	for i, size := range r.Sizes {
		row := []string{fmt.Sprintf("%d", size)}
		for _, v := range r.IncreasePct[i] {
			row = append(row, fmt.Sprintf("%.0f", v))
		}
		rows = append(rows, row)
	}
	writeTable(w, header, rows)
}

// sortedFront sorts 2-D points by the first objective for readable output.
func sortedFront(pts [][]float64) [][]float64 {
	out := make([][]float64, len(pts))
	copy(out, pts)
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// printSizeRow renders a one-row-per-metric table keyed by application size.
func printSizeRow(w io.Writer, sizes []int, values []float64) {
	header := []string{"#Tasks"}
	row := []string{"% increase"}
	for i, s := range sizes {
		header = append(header, fmt.Sprintf("%d", s))
		row = append(row, fmt.Sprintf("%.0f", values[i]))
	}
	writeTable(w, header, [][]string{row})
}
