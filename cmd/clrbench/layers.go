package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/markov"
	"repro/internal/moea"
	"repro/internal/relmodel"
	"repro/internal/service"
	"repro/internal/tdse"
)

// counters is a snapshot of the process-wide counters the layers already
// export, plus the runtime's allocation and GC CPU totals.
type counters struct {
	accel      core.AccelStats
	sel        moea.SelectionStats
	allocBytes uint64
	gcCPUS     float64
}

var runtimeSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readCounters() counters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return counters{
		accel:      core.AccelTotals(),
		sel:        core.SelectionTotals(),
		allocBytes: s[0].Value.Uint64(),
		gcCPUS:     s[1].Value.Float64(),
	}
}

// delta is the difference of two counter snapshots.
type delta struct {
	chainPaired, chainSolo uint64
	deltaPrefix, deltaFull uint64
	deltaParentReuse       uint64
	selectNS               uint64
	allocBytes             uint64
	gcCPUS                 float64
}

func (d *delta) add(before, after counters) {
	d.chainPaired += after.accel.PairedSolves - before.accel.PairedSolves
	d.chainSolo += after.accel.SoloSolves - before.accel.SoloSolves
	d.deltaPrefix += after.accel.DeltaPrefixRuns - before.accel.DeltaPrefixRuns
	d.deltaFull += after.accel.DeltaFullRuns - before.accel.DeltaFullRuns
	d.deltaParentReuse += after.accel.DeltaParentReuse - before.accel.DeltaParentReuse
	d.selectNS += (after.sel.SortNanos + after.sel.ArchiveNanos) - (before.sel.SortNanos + before.sel.ArchiveNanos)
	d.allocBytes += after.allocBytes - before.allocBytes
	d.gcCPUS += after.gcCPUS - before.gcCPUS
}

// layerAcc accumulates the per-layer measurements of one traced run.
type layerAcc struct {
	buildS, runS float64 // service.Build / service.ExecuteOn span time
	cnt          delta   // process counters over the measured work

	tdseCands, tdseKept      int
	tdseEnumS, tdseFilterS   float64
	buildChainsUS, analyzeUS float64
	fitHits, fitLookups      uint64
	metHits, metMisses       uint64
	stageS                   map[string]float64
	evals                    int
	genMS, evalUS            []float64
	gateway                  gatewayCounts
	hookNS, jobNS            int64
}

// gatewayCounts are the fleet counters read as /metrics deltas; they stay
// zero on the closed-loop workloads, which do not use the gateway.
type gatewayCounts struct {
	cacheHits, storeHits, attach, misses int64
	leaseGrants, leaseExpired, backlog   int64
	storeAppends, storeSyncs             int64
}

// addCaches folds in a finished job instance's cache statistics.
func (a *layerAcc) addCaches(inst *core.Instance) {
	fs := inst.FitnessCacheStats()
	a.fitHits += fs.Hits
	a.fitLookups += fs.Hits + fs.Misses + fs.Bypasses
	ms := inst.MetricsCacheStats()
	a.metHits += ms.Hits
	a.metMisses += ms.Misses
}

func (a *layerAcc) addStages(stageS map[string]float64, genMS []float64) {
	if a.stageS == nil {
		a.stageS = make(map[string]float64)
	}
	for k, v := range stageS {
		a.stageS[k] += v
	}
	a.genMS = append(a.genMS, genMS...)
}

func (a *layerAcc) addEvalTimes(ts []time.Duration) {
	for _, d := range ts {
		a.evalUS = append(a.evalUS, float64(d)/1e3)
	}
}

// metrics renders the accumulated measurements under the per_layer names
// of BENCHMARK.json.
func (a *layerAcc) metrics() map[string]Metric {
	c := a.cnt
	pairs := float64(c.chainPaired + c.chainSolo)
	g := a.gateway
	hits := float64(g.cacheHits + g.storeHits + g.attach)
	return map[string]Metric{
		"service.build_s":            {a.buildS, "s"},
		"core.run_s":                 {a.runS, "s"},
		"tdse.candidates":            {float64(a.tdseCands), "count"},
		"tdse.enumerate_s":           {a.tdseEnumS, "s"},
		"tdse.filter_s":              {a.tdseFilterS, "s"},
		"tdse.kept_ratio":            {ratio(float64(a.tdseKept), float64(a.tdseCands)), "ratio"},
		"relmodel.chain_pairs":       {pairs, "count"},
		"relmodel.paired_ratio":      {ratio(float64(c.chainPaired), pairs), "ratio"},
		"relmodel.build_chains_us":   {a.buildChainsUS, "us"},
		"markov.analyze_pair_us":     {a.analyzeUS, "us"},
		"core.fitness_hit_ratio":     {ratio(float64(a.fitHits), float64(a.fitLookups)), "ratio"},
		"core.metrics_hit_ratio":     {ratio(float64(a.metHits), float64(a.metHits+a.metMisses)), "ratio"},
		"core.metrics_misses":        {float64(a.metMisses), "count"},
		"core.delta_prefix_ratio":    {ratio(float64(c.deltaPrefix), float64(c.deltaPrefix+c.deltaFull)), "ratio"},
		"core.delta_parent_reuse":    {float64(c.deltaParentReuse), "count"},
		"core.stage_share.pfclr":     {ratio(a.stageS["pfclr"], a.runS), "ratio"},
		"core.stage_share.fcclr":     {ratio(a.stageS["fcclr"], a.runS), "ratio"},
		"core.stage_share.layer":     {ratio(a.stageS["layer"], a.runS), "ratio"},
		"moea.evals":                 {float64(a.evals), "count"},
		"moea.evals_per_s":           {ratio(float64(a.evals), a.runS), "1/s"},
		"moea.gen_ms_p50":            {percentile(a.genMS, 50), "ms"},
		"moea.select_s":              {float64(c.selectNS) / 1e9, "s"},
		"schedule.eval_us_p50":       {percentile(a.evalUS, 50), "us"},
		"gateway.cache_hits":         {float64(g.cacheHits), "count"},
		"gateway.store_hits":         {float64(g.storeHits), "count"},
		"gateway.inflight_attach":    {float64(g.attach), "count"},
		"gateway.misses":             {float64(g.misses), "count"},
		"gateway.dedup_hit_ratio":    {ratio(hits, hits+float64(g.misses)), "ratio"},
		"gateway.lease_grants":       {float64(g.leaseGrants), "count"},
		"gateway.lease_redeliveries": {float64(g.leaseExpired), "count"},
		"gateway.backlog_end":        {float64(g.backlog), "count"},
		"store.appends":              {float64(g.storeAppends), "count"},
		"store.fsyncs":               {float64(g.storeSyncs), "count"},
		"runtime.alloc_mb":           {float64(c.allocBytes) / (1 << 20), "MB"},
		"runtime.gc_cpu_s":           {c.gcCPUS, "s"},
		"trace_overhead_pct":         {100 * ratio(float64(a.hookNS), float64(a.jobNS)), "%"},
	}
}

// replayTDSE re-runs the task-level DSE of a library job's instance
// through the public tdse.Enumerate and tdse.Filter, outside the job's
// span, to time the two halves separately. The options mirror
// service.Build; the kept count must equal the job's library size, which
// pins the mirror to the real build.
func replayTDSE(tr *tracer, trace int64, spec *service.JobSpec, inst *core.Instance, flib *tdse.Library, acc *layerAcc) error {
	opt := tdse.DefaultOptions()
	opt.Faults = spec.Faults
	if spec.CkptModes {
		opt.Checkpoints = tdse.CheckpointAxis(spec.CkptIntervals)
	}
	objs := tdse.StudyObjectiveSets()[spec.TDSESet]
	root := tr.open("replay.tdse", 0, trace, tr.now())
	kept := 0
	for tt := 0; tt < inst.Lib.NumTypes(); tt++ {
		t0 := tr.now()
		cands, err := tdse.Enumerate(inst.Lib, tt, inst.Platform, inst.Catalog, opt)
		if err != nil {
			return fmt.Errorf("tdse replay: %w", err)
		}
		t1 := tr.now()
		k := tdse.Filter(cands, objs)
		t2 := tr.now()
		tr.add("tdse.enumerate", root, trace, t0, t1)
		tr.add("tdse.filter", root, trace, t1, t2)
		acc.tdseCands += len(cands)
		acc.tdseEnumS += float64(t1-t0) / 1e9
		acc.tdseFilterS += float64(t2-t1) / 1e9
		kept += len(k)
	}
	tr.close(root, tr.now())
	acc.tdseKept += kept
	want := 0
	for _, n := range flib.Counts() {
		want += n
	}
	if kept != want {
		return fmt.Errorf("tdse replay kept %d candidates, the job's library has %d", kept, want)
	}
	return nil
}

// chainGrid is the fixed ChainParams grid the chain-layer micro-timings
// run on: a 1 ms task at 1e-5 upsets/µs, as a legacy SEU-only chain and
// with the permanent-fault process on, each with 0 to 4 checkpoints.
func chainGrid() []relmodel.ChainParams {
	var grid []relmodel.ChainParams
	for _, perm := range []float64{0, 1e-7} {
		for ck := 0; ck <= 4; ck++ {
			grid = append(grid, relmodel.ChainParams{
				ExecTimeUS: 1000, LambdaPerUS: 1e-5, Checkpoints: ck,
				DetTimeUS: 5, TolTimeUS: 50, ChkTimeUS: 10,
				MHW: 0.3, MImplSSW: 0.2, CovDet: 0.9, MTol: 0.95, MASW: 0.5,
				PermPerUS: perm, RepairProb: 0.7, RepairTimeUS: 100,
			})
		}
	}
	return grid
}

// chainGridPasses is the number of passes over the grid: about 0.1 s on a
// 2-vCPU x86 VM, enough for a stable median.
const chainGridPasses = 400

// timeChainGrid times relmodel.BuildTimingChain + BuildFunctionalChain and
// markov.AnalyzePair (which includes the LU factorization) over the grid,
// and returns the median over passes of the mean time per grid point, in
// microseconds.
func timeChainGrid(tr *tracer) (buildUS, analyzeUS float64, err error) {
	grid := chainGrid()
	timing := make([]*markov.Chain, len(grid))
	functional := make([]*markov.Chain, len(grid))
	var builds, analyses []float64
	root := tr.open("replay.chain_grid", 0, 0, tr.now())
	for pass := 0; pass < chainGridPasses; pass++ {
		t0 := time.Now()
		for i, p := range grid {
			if timing[i], err = relmodel.BuildTimingChain(p); err != nil {
				return 0, 0, err
			}
			if functional[i], err = relmodel.BuildFunctionalChain(p); err != nil {
				return 0, 0, err
			}
		}
		t1 := time.Now()
		for i := range grid {
			if _, _, _, err = markov.AnalyzePair(timing[i], functional[i]); err != nil {
				return 0, 0, err
			}
		}
		t2 := time.Now()
		n := float64(len(grid))
		builds = append(builds, float64(t1.Sub(t0))/1e3/n)
		analyses = append(analyses, float64(t2.Sub(t1))/1e3/n)
	}
	tr.close(root, tr.now())
	return median(builds), median(analyses), nil
}
