package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/service"
)

// tiny shrinks a workload so one run takes about a second: closed-loop
// rounds keep their second job (a tDSE library job in every workload) and
// their last one at a minimal GA budget, and the fleet runs two seconds of
// traffic.
func tiny(w workload) workload {
	if w.fleet != nil {
		w.fleet = &fleetConfig{rate: 4, repeatAfter: 500 * time.Millisecond, samples: 2, cacheCap: 2, agents: 2}
		return w
	}
	round := w.round
	w.round = func(seed int64, r int) ([]service.JobSpec, error) {
		specs, err := round(seed, r)
		if err != nil {
			return nil, err
		}
		specs = []service.JobSpec{specs[1], specs[len(specs)-1]}
		for i := range specs {
			specs[i].Pop, specs[i].Gens = 8, 2
		}
		return specs, nil
	}
	return w
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			w, traced := tiny(w), traced
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				cfg := runConfig{seconds: 2, setups: 1, hvRounds: 1, workDir: dir, guard: time.Minute}
				if w.fleet == nil {
					cfg.seconds = 0 // one round
				}
				rep := newReport(w.name, 3, 0)
				rep.Traced = traced
				if traced {
					cfg.tracer = newTracer()
				}
				if err := runWorkload(w, 3, cfg, rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct {
					t.Fatalf("run not correct: %d/%d failed: %v", rep.Failed, rep.Attempted, rep.Failures)
				}
				line, err := rep.resultLine()
				if err != nil {
					t.Fatal(err)
				}
				var res struct {
					Correct   bool
					Attempted int
					Metrics   map[string]Metric
				}
				if err := json.Unmarshal(line, &res); err != nil {
					t.Fatal(err)
				}
				if len(res.Metrics) != len(rep.contractDefs()) || res.Attempted < 1 {
					t.Errorf("result line %s", line)
				}
				for _, name := range []string{"jobs_per_s", "done_p50_ms", "setup_s", "hv_share"} {
					if v := rep.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s = %v, want > 0", name, v)
					}
				}
				if !traced {
					return
				}
				for _, name := range []string{"service.build_s", "core.run_s", "tdse.enumerate_s", "relmodel.chain_pairs", "markov.analyze_pair_us", "moea.evals", "schedule.eval_us_p50"} {
					if v := rep.Metrics[name].Value; !(v > 0) {
						t.Errorf("%s = %v, want > 0", name, v)
					}
				}
				if w.fleet != nil && rep.Metrics["gateway.misses"].Value == 0 {
					t.Errorf("fleet run recorded no gateway misses")
				}
				if err := cfg.tracer.write(filepath.Join(dir, "spans.json")); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
