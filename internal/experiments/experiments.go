// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI): the task-level DSE studies (Fig. 6, TABLE IV,
// Fig. 9) and the system-level comparisons (Fig. 7/TABLE V vs. the
// layer-agnostic baseline, Fig. 8/TABLE VI vs. fcCLR, Fig. 10/TABLE VII
// vs. standalone pfCLR). Each experiment returns structured series data and
// can render itself as an aligned text table, so the cmd/experiments binary
// and the benchmark harness share one implementation.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/characterize"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/pareto"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/taskgraph"
	"repro/internal/tdse"
)

// Config scales the experiment suite. Default() reproduces the paper's
// scale; reduced budgets (for benchmarks and smoke tests) shrink the GA
// budget and the application-size sweep.
type Config struct {
	// Pop and Gens are the GA budget per optimization run.
	Pop, Gens int
	// Seed derives all per-run seeds.
	Seed int64
	// Sizes are the synthetic application sizes of TABLEs V-VII.
	Sizes []int
	// Workers bounds parallel fitness evaluation. 0 (the default) draws
	// workers from the process-wide CPU-token budget shared with the sweep
	// engine; an explicit positive value forces that count per GA run.
	Workers int
	// Jobs bounds the number of experiment cells (strategy run × size ×
	// layer × ablation arm) executed concurrently; ≤ 0 means GOMAXPROCS.
	// All per-cell seeds derive from Seed and results are merged in a
	// fixed order, so output is byte-identical for every Jobs value.
	Jobs int
	// Remote, when non-nil, runs the system-level experiment cells
	// (Fig. 7/8, TABLEs V/VI) through a gateway or daemon job API. Each
	// remote cell is a self-contained JobSpec reproducing the local
	// instance from seeds, results merge in cell order, and every remote
	// failure falls back to the cell's local closure — so output stays
	// byte-identical to a purely local run. Experiments without a wire
	// form (Fig. 10, TABLE VII, ablations, task-level studies) always run
	// locally.
	Remote *gateway.Client
	// Islands, MigrationEvery and Migrants switch every GA run into
	// island mode (core.RunConfig semantics; all zero — the default —
	// keeps the single-population engine and the canonical outputs).
	Islands        int
	MigrationEvery int
	Migrants       int
	// Converge, ConvergeWindow and ConvergeEps enable hypervolume-plateau
	// termination on every GA run (core.RunConfig semantics; all zero — the
	// default — exhausts full generation budgets and keeps the canonical
	// outputs). Incompatible with island mode.
	Converge       bool
	ConvergeWindow int
	ConvergeEps    float64
}

// Default returns the paper-scale configuration: applications of 10–100
// tasks in steps of ten.
func Default() Config {
	return Config{
		Pop:   60,
		Gens:  40,
		Seed:  2020,
		Sizes: []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100},
	}
}

// Quick returns a reduced configuration for smoke tests and benchmarks.
func Quick() Config {
	return Config{Pop: 24, Gens: 10, Seed: 2020, Sizes: []int{10, 20, 30}}
}

func (c Config) run(seed int64) core.RunConfig {
	return core.RunConfig{
		Pop: c.Pop, Gens: c.Gens, Seed: seed, Workers: c.Workers, Jobs: c.Jobs,
		Islands: c.Islands, MigrationEvery: c.MigrationEvery, Migrants: c.Migrants,
		TerminateOnPlateau: c.Converge, PlateauWindow: c.ConvergeWindow, PlateauEps: c.ConvergeEps,
	}
}

// sobelInstance builds the real-application instance of Fig. 2(b).
func (c Config) sobelInstance() *core.Instance {
	p := platform.Default()
	return &core.Instance{
		Graph:      taskgraph.Sobel(),
		Platform:   p,
		Lib:        characterize.Sobel(p),
		Catalog:    relmodel.DefaultCatalog(),
		Objectives: core.DefaultObjectives(),
	}
}

// TDSEObjectiveSets returns the three task-level objective sets of the
// tDSE_1/tDSE_2/tDSE_3 study (Fig. 9, Fig. 10, TABLE VII); see
// tdse.StudyObjectiveSets, where the canonical list lives so the job
// service can reference the same sets without importing this package.
func TDSEObjectiveSets() [][]tdse.Objective {
	return tdse.StudyObjectiveSets()
}

// FrontSeries is one labeled 2-D front (makespan µs, error probability).
type FrontSeries struct {
	Label  string
	Points [][]float64
}

// commonHypervolumes computes the hypervolume of every front against one
// shared reference point (per-objective max over all fronts, +10%), the
// comparison protocol behind TABLEs V-VII.
func commonHypervolumes(fronts ...[][]float64) []float64 {
	ref := pareto.ReferencePoint(0.1, fronts...)
	out := make([]float64, len(fronts))
	for i, f := range fronts {
		out[i] = pareto.Hypervolume(f, ref)
	}
	return out
}

// pctIncrease returns 100·(a−b)/b.
func pctIncrease(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1e9 // sentinel for "division by an empty front"
	}
	return 100 * (a - b) / b
}

// writeTable renders rows of cells with aligned columns.
func writeTable(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// frontPoints extracts the objective matrix of a core front.
func frontPoints(f *core.Front) [][]float64 { return f.ObjectiveMatrix() }
