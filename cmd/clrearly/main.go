// Command clrearly runs the CL(R)Early system-level DSE end to end on one
// application and prints the resulting Pareto front with full QoS metrics.
//
// Usage:
//
//	clrearly [-app sobel|jpeg|synthetic] [-tasks N] [-method proposed|fcclr|pfclr|agnostic]
//	         [-pop N] [-gens N] [-seed N] [-engine nsga2|moead] [-json]
//	         [-max-makespan US] [-min-frel F] [-min-mttf H] [-max-energy UJ] [-max-power W]
//	         [-platform hmpsoc|fpga] [-catalog default|extended|fpga]
//	         [-faults model.json] [-ckpt-modes] [-ckpt-intervals 1,2]
//	         [-remote URL]
//
// -remote offloads the run to a clrearlygw gateway or a clrearlyd daemon
// (http://KEY@host:port; the userinfo is the API key) with a transparent
// local fallback; the printed front is byte-identical to a local run
// either way. A rejected API key is an error, not a fallback.
//
// The synthetic application uses the TGFF-style generator over ten task
// types; sobel is the five-task edge-detection pipeline of the paper's
// Fig. 2(b). The flags are parsed into the same canonical job spec the
// clrearlyd service accepts, and -json emits the front in the service's
// wire format, so CLI and API output stay in lockstep.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/gantt"
	"repro/internal/gateway"
	"repro/internal/schedule"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "clrearly:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("clrearly", flag.ContinueOnError)
	app := fs.String("app", "sobel", "application: sobel, jpeg or synthetic")
	graphFile := fs.String("graph-file", "", "load the application from a TGFF text file (overrides -app)")
	tasks := fs.Int("tasks", 20, "task count for synthetic applications")
	method := fs.String("method", "proposed", "DSE method: proposed, fcclr, pfclr or agnostic")
	pop := fs.Int("pop", 60, "GA population size")
	gens := fs.Int("gens", 40, "GA generations")
	seed := fs.Int64("seed", 1, "random seed")
	engine := fs.String("engine", "nsga2", "MOEA family: nsga2 or moead")
	maxMakespan := fs.Float64("max-makespan", 0, "makespan constraint in µs (0 = none)")
	minFRel := fs.Float64("min-frel", 0, "functional reliability constraint (0 = none)")
	minMTTF := fs.Float64("min-mttf", 0, "MTTF constraint in hours (0 = none)")
	maxEnergy := fs.Float64("max-energy", 0, "energy constraint in µJ (0 = none)")
	maxPower := fs.Float64("max-power", 0, "peak power constraint in W (0 = none)")
	catalog := fs.String("catalog", "default", "reliability method catalog: default, extended or fpga")
	platformName := fs.String("platform", "", "platform family: hmpsoc (default) or fpga")
	faultsFile := fs.String("faults", "", "JSON fault-model file activating the combined transient+permanent analysis")
	ckptModes := fs.Bool("ckpt-modes", false, "enumerate local/TMR checkpoint policies during tDSE (proposed/pfclr)")
	ckptIntervals := fs.String("ckpt-intervals", "", "comma-separated checkpoint counts for -ckpt-modes (default 2)")
	objectives := fs.String("objectives", "makespan,errprob",
		"comma-separated system objectives: makespan, errprob, lifetime, energy, power (Eq. 5)")
	commStartup := fs.Float64("comm-startup", 0, "interconnect transfer startup cost in µs (0 = comm-free model)")
	commPerKB := fs.Float64("comm-per-kb", 0, "interconnect cost per KB in µs")
	memory := fs.Bool("memory", false, "enforce per-PE local memory capacities")
	noDelta := fs.Bool("no-delta", false, "disable incremental delta evaluation (full re-evaluation of every offspring)")
	islands := fs.Int("islands", 0, "split each GA stage into this many cooperating islands (nsga2 only; 0/1 = single population)")
	migrationEvery := fs.Int("migration-every", 0, "generations between island migrant exchanges (required with -islands ≥ 2)")
	migrants := fs.Int("migrants", 0, "elites exchanged per island per epoch (0 = default 2)")
	converge := fs.Bool("converge", false, "stop GA stages early once the archive hypervolume plateaus (incompatible with -islands)")
	convergeWindow := fs.Int("converge-window", 0, "consecutive low-improvement generations that end a stage under -converge (0 = default 8)")
	convergeEps := fs.Float64("converge-eps", 0, "relative hypervolume-improvement threshold under -converge (0 = default 1e-3)")
	jsonOut := fs.Bool("json", false, "emit the front as JSON in the service wire format")
	ganttChart := fs.Bool("gantt", false, "render the most reliable mapping as a Gantt chart (proposed/fcclr only)")
	remote := fs.String("remote", "", "gateway or daemon URL (http://KEY@host:port); offload the run with local fallback")
	if err := fs.Parse(args); err != nil {
		return err
	}

	spec := service.JobSpec{
		App:            *app,
		Tasks:          *tasks,
		Method:         *method,
		Pop:            *pop,
		Gens:           *gens,
		Seed:           *seed,
		Engine:         *engine,
		Catalog:        *catalog,
		Objectives:     splitList(*objectives),
		CommStartupUS:  *commStartup,
		CommPerKBUS:    *commPerKB,
		EnforceMemory:  *memory,
		NoDelta:        *noDelta,
		Islands:        *islands,
		MigrationEvery: *migrationEvery,
		Migrants:       *migrants,
		Converge:       *converge,
		ConvergeWindow: *convergeWindow,
		ConvergeEps:    *convergeEps,
		Constraints: service.Constraints{
			MaxMakespanUS:    *maxMakespan,
			MinFunctionalRel: *minFRel,
			MinMTTFHours:     *minMTTF,
			MaxEnergyUJ:      *maxEnergy,
			MaxPeakPowerW:    *maxPower,
		},
	}
	if *graphFile != "" {
		text, err := os.ReadFile(*graphFile)
		if err != nil {
			return err
		}
		spec.GraphText = string(text)
	}
	spec.Platform = *platformName
	spec.CkptModes = *ckptModes
	if *ckptIntervals != "" {
		for _, part := range splitList(*ckptIntervals) {
			var n int
			if _, err := fmt.Sscanf(part, "%d", &n); err != nil {
				return fmt.Errorf("-ckpt-intervals entry %q: %w", part, err)
			}
			spec.CkptIntervals = append(spec.CkptIntervals, n)
		}
	}
	if *faultsFile != "" {
		blob, err := os.ReadFile(*faultsFile)
		if err != nil {
			return err
		}
		m, err := faultmodel.Decode(blob)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", *faultsFile, err)
		}
		spec.Faults = m
	}
	if err := spec.Normalize(); err != nil {
		return err
	}
	if *ganttChart && spec.Method != "proposed" && spec.Method != "fcclr" {
		return fmt.Errorf("-gantt requires a full-configuration method (proposed or fcclr)")
	}
	if *ganttChart && *remote != "" {
		// Genomes do not travel on the wire, so a remote front cannot be
		// rendered as a schedule.
		return fmt.Errorf("-gantt requires a local run (drop -remote)")
	}

	inst, flib, err := service.Build(&spec)
	if err != nil {
		return err
	}
	if spec.Method == "proposed" && !*jsonOut {
		fcLog, pfLog := core.SearchSpaceLog10(inst, flib)
		fmt.Fprintf(w, "design space: fcCLR ≈ 10^%.0f points, pfCLR ≈ 10^%.0f points\n", fcLog, pfLog)
	}
	var front *core.Front
	if *remote != "" {
		// The local fallback on the already-built instance makes the
		// output byte-identical to a local run even if the remote side
		// fails.
		var client *gateway.Client
		if client, err = gateway.NewClient(*remote); err != nil {
			return err
		}
		front, err = client.Run(context.Background(), &spec, func() (*core.Front, error) {
			return service.ExecuteOn(context.Background(), inst, flib, &spec, nil)
		})
	} else {
		front, err = service.ExecuteOn(context.Background(), inst, flib, &spec, nil)
	}
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(service.FrontToWire(front))
	}

	fmt.Fprintf(w, "%s DSE of %q (%d tasks, %d PEs): %d Pareto points, %d evaluations\n",
		spec.Method, inst.Graph.Name, inst.Graph.NumTasks(), inst.Platform.NumPEs(),
		len(front.Points), front.Evaluations)
	pts := append([]core.Point(nil), front.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].QoS.MakespanUS < pts[j].QoS.MakespanUS })
	fmt.Fprintf(w, "%12s %12s %14s %12s %10s\n",
		"makespan(us)", "err-prob(%)", "MTTF(hours)", "energy(uJ)", "power(W)")
	for _, pt := range pts {
		q := pt.QoS
		fmt.Fprintf(w, "%12.1f %12.3f %14.3g %12.1f %10.2f\n",
			q.MakespanUS, q.ErrProb*100, q.MTTFHours, q.EnergyUJ, q.PeakPowerW)
	}

	if *ganttChart {
		best := front.Points[0]
		for _, pt := range front.Points {
			if pt.QoS.ErrProb < best.QoS.ErrProb {
				best = pt
			}
		}
		pes := core.DecodePEs(inst, best.Genome)
		decisions := make([]schedule.TaskDecision, inst.Graph.NumTasks())
		for t := range decisions {
			decisions[t].PE = pes[t]
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, gantt.Chart(inst.Graph, inst.Platform, decisions, best.QoS, 72))
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
