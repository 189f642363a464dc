package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/tdse"
)

// runConfig sizes one run.
type runConfig struct {
	seconds float64 // measured time to reach before the run stops
	setups  int     // set-up repetitions; setup_s is their median
	// hvRounds is the number of leading closed-loop rounds whose jobs feed
	// hv_share; the fleet scores its in-process replays instead.
	hvRounds int
	tracer   *tracer // nil for untraced runs
	workDir  string  // scratch space for the fleet's stores
	// guard stops the run after this much wall time even if the measured
	// time is short, so a pathologically slow commit still exits in time.
	guard time.Duration
}

// job is one finished Build + ExecuteOn.
type job struct {
	inst        *core.Instance
	flib        *tdse.Library
	front       *core.Front
	build, exec time.Duration
}

func (j *job) wall() time.Duration { return j.build + j.exec }

// runJob times service.Build plus service.ExecuteOn on a normalized spec.
// With a tracer it also records the job, Build and ExecuteOn spans, the
// stage and generation spans from RunConfig.Progress, and the job span's
// counter deltas, cache statistics and stage times into acc. The tracing
// work between the two calls is excluded from the job's time.
func runJob(spec *service.JobSpec, tr *tracer, trace int64, acc *layerAcc) (*job, error) {
	var before counters
	if tr != nil {
		before = readCounters()
	}
	t0 := time.Now()
	inst, flib, err := service.Build(spec)
	t1 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("build %s %s: %w", spec.Method, spec.Hash(), err)
	}
	var progress func(core.ProgressEvent)
	var stages *stageTracker
	var root, exec int
	if tr != nil {
		root = tr.open("job", 0, trace, tr.at(t0))
		tr.add("service.Build", root, trace, tr.at(t0), tr.at(t1))
		exec = tr.open("service.ExecuteOn", root, trace, tr.at(t1))
		stages = newStageTracker(tr, trace, exec, tr.at(t1))
		progress = stages.progress
	}
	t1b := time.Now()
	front, err := service.ExecuteOn(context.Background(), inst, flib, spec, progress)
	t2 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("execute %s %s: %w", spec.Method, spec.Hash(), err)
	}
	j := &job{inst: inst, flib: flib, front: front, build: t1.Sub(t0), exec: t2.Sub(t1b)}
	if tr != nil {
		tr.close(exec, tr.at(t2))
		tr.close(root, tr.at(t2))
		tr.addHook(t1b.Sub(t1))
		acc.cnt.add(before, readCounters())
		acc.addStages(stages.finish())
		acc.addCaches(inst)
		acc.buildS += j.build.Seconds()
		acc.runS += j.exec.Seconds()
		acc.evals += front.Evaluations
		acc.jobNS += int64(t2.Sub(t0))
	}
	return j, nil
}

// verifyJob runs the correctness gate on a finished job and, in a traced
// run, the tDSE replay of library jobs. Both run outside the job's time.
func verifyJob(spec *service.JobSpec, j *job, tr *tracer, trace int64, acc *layerAcc) error {
	times, err := checkFront(spec, j.inst, j.flib, j.front)
	if err != nil {
		return fmt.Errorf("%s %s: %w", spec.Method, spec.Hash(), err)
	}
	if tr == nil {
		return nil
	}
	acc.addEvalTimes(times)
	if j.flib != nil {
		if err := replayTDSE(tr, trace, spec, j.inst, j.flib, acc); err != nil {
			return fmt.Errorf("%s %s: %w", spec.Method, spec.Hash(), err)
		}
	}
	return nil
}

// runClosed runs a closed-loop workload: one client runs the jobs of a
// round one after another, each only after the previous one finished. The
// run stops at the first round boundary after the measured job time
// reaches cfg.seconds, and never before cfg.hvRounds rounds, whose jobs
// feed hv_share, so that hv_share is the same on every run of a seed.
func runClosed(w workload, seed int64, cfg runConfig, rep *Report) error {
	tr := cfg.tracer
	var tm timings
	// Set-up is spec generation plus one untimed warm-up job (the round's
	// first spec), repeated so setup_s is a median.
	for i := 0; i < cfg.setups; i++ {
		t0, s0 := time.Now(), stealNow()
		specs, err := w.round(seed, 0)
		if err != nil {
			return err
		}
		if _, err := runJob(&specs[0], nil, 0, nil); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
		wall := time.Since(t0)
		tm.setupRaw = append(tm.setupRaw, wall.Seconds())
		tm.setupSteady = append(tm.setupSteady, steady(wall, stealNow()-s0).Seconds())
	}

	var acc layerAcc
	var q scores
	start := time.Now()
	rounds := 0
	for r := 0; ; r++ {
		specs, err := w.round(seed, r)
		if err != nil {
			return err
		}
		for i := range specs {
			spec := &specs[i]
			trace := int64(tm.jobs + 1)
			if err := tm.sampleClock(); err != nil {
				return err
			}
			s0 := stealNow()
			j, err := runJob(spec, tr, trace, &acc)
			if err == nil {
				wall, st := j.wall(), steady(j.wall(), stealNow()-s0)
				tm.jobs++
				tm.busyRaw += wall
				tm.busySteady += st
				tm.doneRaw = append(tm.doneRaw, float64(wall)/1e6)
				tm.doneSteady = append(tm.doneSteady, float64(st)/1e6)
				err = verifyJob(spec, j, tr, trace, &acc)
			}
			if err == nil && r < cfg.hvRounds {
				err = q.add(spec, j)
			}
			rep.record(err)
		}
		rounds++
		if rounds >= cfg.hvRounds && tm.busyRaw.Seconds() >= cfg.seconds || time.Since(start) > cfg.guard {
			break
		}
	}
	if tm.jobs == 0 {
		return fmt.Errorf("no job completed")
	}
	tm.publish(rep, false)
	q.publish(rep)
	rep.set("rounds", float64(rounds), "count")
	if tr != nil {
		return finishLayers(tr, &acc, rep)
	}
	return nil
}

// finishLayers adds the workload-independent chain micro-timings and the
// tracing overhead, and publishes the per-layer metrics.
func finishLayers(tr *tracer, acc *layerAcc, rep *Report) error {
	var err error
	if acc.buildChainsUS, acc.analyzeUS, err = timeChainGrid(tr); err != nil {
		return fmt.Errorf("chain grid: %w", err)
	}
	acc.hookNS = tr.hookTotal()
	for name, m := range acc.metrics() {
		rep.Metrics[name] = m
	}
	return nil
}
