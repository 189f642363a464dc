package main

import (
	"fmt"
	"strings"

	"repro/internal/faultmodel"
	"repro/internal/service"
	"repro/internal/tgff"
)

// workload is one named input set of the benchmark. Closed-loop workloads
// generate their jobs in rounds; every round has the same configuration
// mix and fresh seeds, so a run always measures whole rounds of the mix.
type workload struct {
	name string
	why  string
	// round returns the normalized specs of closed-loop round r.
	round func(seed int64, r int) ([]service.JobSpec, error)
	// fleet sizes the open-loop fleet workload, which has no rounds.
	fleet *fleetConfig
}

// workloads are listed in the order BENCHMARK.json and README.md give them.
var workloads = []workload{
	{
		name:  "paper-mix",
		why:   "the paper's four methods on its four applications at the daemon's default budget; no single layer dominates",
		round: paperMixRound,
	},
	{
		name:  "ga-mapping",
		why:   "pfCLR at a large GA budget: delta/fitness caches, scheduling and selection do the work, one tDSE build per job",
		round: gaMappingRound,
	},
	{
		name:  "faults-suite",
		why:   "the mixed-criticality corpus: tDSE chain analysis on large fault-model chains dominates, the GA is small",
		round: faultsSuiteRound,
	},
	{
		name:  "fleet-open",
		why:   "open-loop submissions at 3/s with random gaps to an in-process gateway with two agents and a WAL store; new specs and repeats share admission",
		fleet: &defaultFleet,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s or all)", name, strings.Join(names, ", "))
}

// mix hashes its arguments into 64 well-mixed bits (splitmix64 steps), so
// every (seed, round, job) triple gets its own independent GA seed.
func mix(vals ...int64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vals {
		h ^= uint64(v)
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// jobSeed derives a positive GA seed below 2^31 from its arguments.
func jobSeed(vals ...int64) int64 { return int64(mix(vals...)%(1<<31-1)) + 1 }

func normalizeAll(specs []service.JobSpec) ([]service.JobSpec, error) {
	for i := range specs {
		if err := specs[i].Normalize(); err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
	}
	return specs, nil
}

// paperMixRound is {proposed, fcclr, pfclr, agnostic} × {sobel, jpeg,
// synthetic-20, synthetic-50} at the daemon's default pop 60 / gens 40.
func paperMixRound(seed int64, r int) ([]service.JobSpec, error) {
	apps := []struct {
		app   string
		tasks int
	}{{"sobel", 0}, {"jpeg", 0}, {"synthetic", 20}, {"synthetic", 50}}
	var specs []service.JobSpec
	for _, method := range []string{"proposed", "fcclr", "pfclr", "agnostic"} {
		for _, a := range apps {
			specs = append(specs, service.JobSpec{
				App: a.app, Tasks: a.tasks, Method: method,
				Seed: jobSeed(seed, int64(r), int64(len(specs))),
			})
		}
	}
	return normalizeAll(specs)
}

// gaMappingRound is pfclr on synthetic-30/60/100 × {nsga2, moead} at
// pop 100 / gens 150.
func gaMappingRound(seed int64, r int) ([]service.JobSpec, error) {
	var specs []service.JobSpec
	for _, tasks := range []int{30, 60, 100} {
		for _, engine := range []string{"nsga2", "moead"} {
			specs = append(specs, service.JobSpec{
				App: "synthetic", Tasks: tasks, Method: "pfclr", Engine: engine,
				Pop: 100, Gens: 150, Seed: jobSeed(seed, int64(r), int64(len(specs))),
			})
		}
	}
	return normalizeAll(specs)
}

// faultsSuiteApps is the size of one corpus round, as `tgffgen -suite`
// generates it by default.
const faultsSuiteApps = 6

// faultsSuiteRound regenerates the mixed-criticality corpus of `tgffgen
// -suite` in process: app i has 10+7i tasks and cycles the
// safety-critical, mission and best-effort classes. Round 0 uses the seed
// as the corpus seed, so seed 1 reproduces the committed corpus; later
// rounds use derived corpus seeds.
func faultsSuiteRound(seed int64, r int) ([]service.JobSpec, error) {
	base := seed
	if r > 0 {
		base = int64(mix(seed, int64(r)) % (1 << 40))
	}
	classes := []string{"safety-critical", "mission", "best-effort"}
	var specs []service.JobSpec
	for i := 0; i < faultsSuiteApps; i++ {
		appSeed := base + int64(i)*1000
		g, err := tgff.Generate(tgff.DefaultConfig(10+7*i), appSeed)
		if err != nil {
			return nil, fmt.Errorf("suite app %d: %w", i, err)
		}
		var text strings.Builder
		if err := tgff.WriteText(&text, g); err != nil {
			return nil, fmt.Errorf("suite app %d: %w", i, err)
		}
		specs = append(specs, suiteClassSpec(classes[i%len(classes)], text.String(), appSeed))
	}
	return normalizeAll(specs)
}

// suiteClassSpec mirrors cmd/tgffgen's classSpec: safety-critical apps run
// pfclr on the FPGA family under combined transient+permanent faults with
// the checkpoint axis; mission apps run proposed under a harsher transient
// environment; best-effort apps are legacy fcclr runs.
// TestFaultsSuiteMatchesCorpus pins it to the committed corpus.
func suiteClassSpec(class, graphText string, seed int64) service.JobSpec {
	spec := service.JobSpec{GraphText: graphText, Seed: seed, Pop: 32, Gens: 20}
	switch class {
	case "safety-critical":
		spec.Method = "pfclr"
		spec.Platform = "fpga"
		spec.Catalog = "fpga"
		spec.Faults = &faultmodel.Model{
			Default: faultmodel.FaultModel{PermanentPerHour: 100, RepairProb: 0.7, RepairTimeUS: 100},
		}
		spec.CkptModes = true
		spec.CkptIntervals = []int{1, 2}
		spec.Constraints.MinFunctionalRel = 0.95
	case "mission":
		spec.Method = "proposed"
		spec.Faults = &faultmodel.Model{
			Default: faultmodel.FaultModel{TransientScale: 10, IntermittentPerSec: 1, IntermittentBurst: 2},
		}
	default:
		spec.Method = "fcclr"
	}
	return spec
}
