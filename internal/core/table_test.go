package core

import (
	"sync"
	"testing"

	"repro/internal/characterize"
	"repro/internal/faultmodel"
	"repro/internal/moea"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/schedule"
	"repro/internal/taskgraph"
	"repro/internal/tgff"
)

// oracleKey is a metric-table key as the oracle test spells it out.
type oracleKey struct {
	taskType, impl int
	asg            relmodel.Assignment
}

// TestMetricsTableMatchesEvaluate walks every gene of every task type
// through the table, under the full space and each single-layer
// restriction, and requires each value to be bit-identical to a direct
// relmodel.Evaluate (EvaluateFM at the zero policy with a fault model) of
// the decoded key: the mixed-radix index neither collides nor aliases a
// restricted layer's key. It then requires one entry per distinct key.
// Under the race detector it walks the default catalog only.
func TestMetricsTableMatchesEvaluate(t *testing.T) {
	p := platform.Default()
	graphs := []struct {
		name string
		g    *taskgraph.Graph
		lib  *characterize.Library
	}{
		{"sobel", taskgraph.Sobel(), characterize.Sobel(p)},
		{"jpeg", taskgraph.JPEG(), characterize.JPEG(p)},
		{"synthetic", tgff.MustGenerate(tgff.DefaultConfig(12), 5), characterize.Synthetic(p, characterize.DefaultSyntheticConfig(10), 6)},
	}
	catalogs := []struct {
		name string
		cat  *relmodel.Catalog
	}{
		{"default", relmodel.DefaultCatalog()},
		{"extended", relmodel.ExtendedCatalog()},
		{"fpga", relmodel.FPGACatalog()},
	}
	if raceEnabled {
		catalogs = catalogs[:1]
	}
	models := []struct {
		name  string
		model *faultmodel.Model
	}{
		{"seu", nil},
		{"faults", &faultmodel.Model{Default: faultmodel.FaultModel{PermanentPerHour: 80, RepairProb: 0.6, RepairTimeUS: 80}}},
	}
	restrictions := []layerRestriction{allFree, {freeModes: true}, {freeHW: true}, {freeSSW: true}, {freeASW: true}}
	for _, gr := range graphs {
		for _, c := range catalogs {
			for _, fm := range models {
				t.Run(gr.name+"/"+c.name+"/"+fm.name, func(t *testing.T) {
					inst := &Instance{Graph: gr.g, Platform: p, Lib: gr.lib, Catalog: c.cat,
						Objectives: DefaultObjectives(), Faults: fm.model}
					if err := inst.Validate(); err != nil {
						t.Fatal(err)
					}
					direct := map[oracleKey]relmodel.Metrics{}
					for _, r := range restrictions {
						checkTableAgainstEvaluate(t, newFCProblem(inst, r), direct)
					}
					if st := inst.MetricsCacheStats(); st.Entries != len(direct) || st.Misses != uint64(len(direct)) {
						t.Fatalf("%d entries and %d misses for %d distinct keys", st.Entries, st.Misses, len(direct))
					}
				})
			}
		}
	}
}

// checkTableAgainstEvaluate decodes every gene value of the first task of
// each task type through prob's table and compares it with the direct
// evaluation of the key the restriction decodes it to, evaluating each
// key directly once (memoized in direct).
func checkTableAgainstEvaluate(t *testing.T, prob *fcProblem, direct map[oracleKey]relmodel.Metrics) {
	t.Helper()
	inst, r := prob.inst, prob.restrict
	cat := inst.Catalog
	seen := map[int]bool{}
	for task := range inst.Graph.NumTasks() {
		tt := inst.Graph.Task(task).Type
		if seen[tt] {
			continue
		}
		seen[tt] = true
		for i, impl := range inst.Lib.ImplsShared(tt) {
			pt := inst.Platform.Types()[impl.PETypeIndex]
			for mode := range maxModes(inst.Platform) {
				for hw := range cat.HW {
					for ssw := range cat.SSW {
						for asw := range cat.ASW {
							var asg relmodel.Assignment
							if r.freeModes {
								asg.Mode = mode % len(pt.Modes)
							}
							if r.freeHW {
								asg.HW = hw
							}
							if r.freeSSW {
								asg.SSW = ssw
							}
							if r.freeASW {
								asg.ASW = asw
							}
							key := oracleKey{tt, i, asg}
							want, ok := direct[key]
							if !ok {
								var err error
								if inst.Faults != nil {
									want, err = relmodel.EvaluateFM(impl, asg, pt, cat, inst.Faults.For(pt.Name), faultmodel.CheckpointPolicy{})
								} else {
									want, err = relmodel.Evaluate(impl, asg, pt, cat)
								}
								if err != nil {
									t.Fatal(err)
								}
								direct[key] = want
							}
							g := moea.Gene{Impl: int32(i), Mode: int32(mode), HW: int32(hw), SSW: int32(ssw), ASW: int32(asw)}
							got := prob.decodeDecision(task, g).Metrics
							if !sameDecision(&schedule.TaskDecision{Metrics: got}, &schedule.TaskDecision{Metrics: want}) {
								t.Fatalf("restriction %+v, key %+v: table %+v, direct %+v", r, key, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestMetricsTableSingleFlight hammers overlapping keys from several
// goroutines, each publishing its lookups once per batch as an evaluator
// does per genome. Every key must be computed exactly once, and the stats
// must read Hits + Misses = lookups and Entries = Misses.
func TestMetricsTableSingleFlight(t *testing.T) {
	inst := sobelInstance()
	table := inst.sharedMetrics()
	table.allocate(inst)
	const (
		workers = 8
		rounds  = 40
		keys    = 64
	)
	var mu sync.Mutex
	computed := map[*metricsEntry]int{}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				n := 0
				for j := range keys {
					// Workers walk the keys from different offsets, so
					// first requests for a key race each other.
					k := (j + w*keys/workers + round) % keys
					asg := relmodel.Assignment{Mode: k % 3, HW: k / 3 % 4, SSW: k / 12 % 4}
					e := table.entry(k%4, k/48, asg)
					e.once.Do(func() {
						mu.Lock()
						computed[e]++
						mu.Unlock()
						e.m.ErrProb = float64(k)
					})
					if e.m.ErrProb != float64(k) {
						t.Errorf("key %d read %v", k, e.m.ErrProb)
						return
					}
					n++
				}
				table.lookups.Add(uint64(n))
			}
		}()
	}
	wg.Wait()
	if len(computed) != keys {
		t.Fatalf("%d entries computed, want %d distinct keys", len(computed), keys)
	}
	for e, n := range computed {
		if n != 1 {
			t.Fatalf("entry %p computed %d times", e, n)
		}
	}
	st := inst.MetricsCacheStats()
	if lookups := uint64(workers * rounds * keys); st.Hits+st.Misses != lookups {
		t.Fatalf("hits %d + misses %d, want %d lookups", st.Hits, st.Misses, lookups)
	}
	if st.Misses != keys || st.Entries != keys {
		t.Fatalf("%d misses and %d entries, want %d", st.Misses, st.Entries, keys)
	}
}
