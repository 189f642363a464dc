// Command experiments regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows/series the paper
// reports (front point lists for figures, aligned tables for TABLEs).
//
// Usage:
//
//	experiments [-run all|fig6a,fig6b,table4,fig7,table5,fig8,table6,fig9,fig10,table7,
//	             ablation-seeding,ablation-operators,ablation-comm,ablation-engine,
//	             ablation-heft,ext-scenario,ext-memory,ext-fpga]
//	            [-pop N] [-gens N] [-seed N] [-sizes 10,20,...] [-quick] [-jobs N]
//	            [-timing=false] [-json file]
//	            [-cpuprofile file] [-memprofile file]
//
// -quick switches to a reduced GA budget and a short size sweep, useful for
// smoke-testing the full pipeline in under a minute.
//
// -jobs bounds how many experiment cells (strategy run × size × layer ×
// ablation arm) execute concurrently; 0 (the default) uses every core.
// Output is byte-identical for every -jobs value at a fixed -seed — only
// the per-experiment wall-clock in the section headers differs. Use
// -timing=false to drop wall-clock times from section headers when
// diffing runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type printable interface{ Print(io.Writer) }

func run(args []string, w, errw io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	runList := fs.String("run", "all", "comma-separated experiment ids, or 'all'")
	quick := fs.Bool("quick", false, "reduced budget smoke run")
	pop := fs.Int("pop", 0, "GA population size (0 = default)")
	gens := fs.Int("gens", 0, "GA generations (0 = default)")
	seed := fs.Int64("seed", 0, "master seed (0 = default)")
	sizes := fs.String("sizes", "", "comma-separated task counts for the table sweeps")
	jobs := fs.Int("jobs", 0, "max concurrent experiment cells (0 = all cores, 1 = sequential)")
	jsonPath := fs.String("json", "", "also write all results as JSON to this file")
	timing := fs.Bool("timing", true, "include wall-clock times in section headers")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The acceleration and selection summaries go to stderr: stdout is
	// golden-compared across worker counts.
	// Registered before the profiling setup so the counters are reported
	// even when the run aborts on a profile error or mid-experiment.
	defer func() {
		a := core.AccelTotals()
		if a.DeltaParentReuse+a.DeltaPrefixRuns+a.DeltaFullRuns+a.PairedSolves+a.SoloSolves+a.ScreenEstimated > 0 {
			fmt.Fprintf(errw, "eval accel: delta %d reused / %d prefix / %d full, %d metrics reused; tdse screen %d estimated / %d solved, %d fallbacks; chain solves %d paired / %d solo, %d plans compiled, %d dense fallbacks\n",
				a.DeltaParentReuse, a.DeltaPrefixRuns, a.DeltaFullRuns, a.MetricsReused,
				a.ScreenEstimated, a.ScreenSolved, a.ScreenFallbacks,
				a.PairedSolves, a.SoloSolves, a.PlanCompiles, a.DenseFallbacks)
		}
		s := core.SelectionTotals()
		if s.SortNanos+s.ArchiveNanos > 0 {
			fmt.Fprintf(errw, "selection: %.2fs sorting, %.2fs archive\n",
				float64(s.SortNanos)/1e9, float64(s.ArchiveNanos)/1e9)
		}
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: memprofile:", err)
			}
		}()
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *pop > 0 {
		cfg.Pop = *pop
	}
	if *gens > 0 {
		cfg.Gens = *gens
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			return err
		}
		cfg.Sizes = parsed
	}
	cfg.Jobs = *jobs

	type experiment struct {
		id  string
		run func() (printable, error)
	}
	all := []experiment{
		{"fig6a", func() (printable, error) { return cfg.Fig6a() }},
		{"fig6b", func() (printable, error) { return cfg.Fig6b() }},
		{"table4", func() (printable, error) { return cfg.Table4() }},
		{"fig7", func() (printable, error) { return cfg.Fig7() }},
		{"table5", func() (printable, error) { return cfg.Table5() }},
		{"fig8", func() (printable, error) { return cfg.Fig8() }},
		{"table6", func() (printable, error) { return cfg.Table6() }},
		{"fig9", func() (printable, error) { return cfg.Fig9() }},
		{"fig10", func() (printable, error) { return cfg.Fig10() }},
		{"table7", func() (printable, error) { return cfg.Table7() }},
		// Ablation studies beyond the paper's own evaluation (see DESIGN.md).
		{"ablation-seeding", func() (printable, error) { return cfg.AblationSeeding() }},
		{"ablation-operators", func() (printable, error) { return cfg.AblationOperators() }},
		{"ablation-comm", func() (printable, error) { return cfg.AblationComm() }},
		{"ablation-engine", func() (printable, error) { return cfg.AblationEngine() }},
		{"ablation-heft", func() (printable, error) { return cfg.AblationHEFT() }},
		{"ext-scenario", func() (printable, error) { return cfg.Scenario() }},
		{"ext-memory", func() (printable, error) { return cfg.Memory() }},
		{"ext-fpga", func() (printable, error) { return cfg.FPGA() }},
	}

	want := map[string]bool{}
	if *runList != "all" {
		for _, id := range strings.Split(*runList, ",") {
			want[strings.TrimSpace(id)] = true
		}
		for id := range want {
			known := false
			for _, e := range all {
				if e.id == id {
					known = true
				}
			}
			if !known {
				return fmt.Errorf("unknown experiment %q", id)
			}
		}
	}

	collected := map[string]any{}
	for _, e := range all {
		if *runList != "all" && !want[e.id] {
			continue
		}
		start := time.Now()
		res, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if *timing {
			fmt.Fprintf(w, "== %s (%.1fs) ==\n", e.id, time.Since(start).Seconds())
		} else {
			fmt.Fprintf(w, "== %s ==\n", e.id)
		}
		res.Print(w)
		fmt.Fprintln(w)
		collected[e.id] = res
	}
	if *jsonPath != "" {
		blob, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding results: %w", err)
		}
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonPath, err)
		}
		fmt.Fprintf(w, "results written to %s\n", *jsonPath)
	}
	return nil
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
