package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/pareto"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/tdse"
)

// hvRandomEvals is the random-search budget hv_ratio compares fronts with.
const hvRandomEvals = 256

// checkFront is the correctness gate of one job: the front is non-empty
// and mutually non-dominated, and every point re-evaluated through its
// method's public evaluator (EvaluatePFMapping for pfCLR genomes,
// EvaluateMapping for full-configuration ones) reproduces its QoS and its
// objective vector bit for bit. The objectives come from the engine's
// delta and fitness-cache fast paths, so this pins those paths to the plain
// evaluator. It returns each re-evaluation's duration.
func checkFront(spec *service.JobSpec, inst *core.Instance, flib *tdse.Library, f *core.Front) ([]time.Duration, error) {
	if len(f.Points) == 0 {
		return nil, fmt.Errorf("empty front")
	}
	times := make([]time.Duration, 0, len(f.Points))
	for i, p := range f.Points {
		if p.Genome == nil || p.QoS == nil {
			return nil, fmt.Errorf("point %d lacks its genome or QoS", i)
		}
		t0 := time.Now()
		var q *schedule.Result
		var err error
		if spec.Method == "pfclr" {
			q, err = core.EvaluatePFMapping(inst, flib, p.Genome)
		} else {
			q, err = core.EvaluateMapping(inst, p.Genome)
		}
		times = append(times, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("point %d: re-evaluation: %w", i, err)
		}
		if !sameQoS(q, p.QoS) {
			return nil, fmt.Errorf("point %d: re-evaluated QoS %+v differs from front QoS %+v", i, *q, *p.QoS)
		}
		if len(p.Objectives) != len(spec.Objectives) {
			return nil, fmt.Errorf("point %d: %d objectives, spec has %d", i, len(p.Objectives), len(spec.Objectives))
		}
		for k, name := range spec.Objectives {
			if want := objectiveValue(q, name); math.Float64bits(p.Objectives[k]) != math.Float64bits(want) {
				return nil, fmt.Errorf("point %d: objective %s = %v, re-evaluation gives %v", i, name, p.Objectives[k], want)
			}
		}
	}
	for i := range f.Points {
		for k := range f.Points {
			if i != k && pareto.Dominates(f.Points[i].Objectives, f.Points[k].Objectives) {
				return nil, fmt.Errorf("front point %d dominates point %d", i, k)
			}
		}
	}
	return times, nil
}

func sameQoS(a, b *schedule.Result) bool {
	for _, pair := range [][2]float64{
		{a.MakespanUS, b.MakespanUS},
		{a.FunctionalRel, b.FunctionalRel},
		{a.ErrProb, b.ErrProb},
		{a.MTTFHours, b.MTTFHours},
		{a.PeakPowerW, b.PeakPowerW},
		{a.EnergyUJ, b.EnergyUJ},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			return false
		}
	}
	return true
}

// objectiveValue is the minimization value the engine derives from a QoS
// result for the named system objective (see service.JobSpec.Objectives).
func objectiveValue(q *schedule.Result, name string) float64 {
	switch name {
	case "makespan":
		return q.MakespanUS
	case "errprob":
		return q.ErrProb
	case "lifetime":
		return -q.MTTFHours
	case "energy":
		return q.EnergyUJ
	default: // "power"; Normalize rejects every other name
		return q.PeakPowerW
	}
}

// quality scores a job's front against a random search of the same
// instance at the job's seed. Both use the reference point
// pareto.ReferencePoint(0.1, both fronts) and the ideal point (the
// per-objective minimum over both fronts):
//
//   - share is hv(front) / hv({ideal}): the part of the box between the
//     ideal and the reference point that the front dominates;
//   - ratio is hv(front) / hv(random front), with ok false when the
//     random search finds no feasible design.
//
// Both move by the same relative amount when the front's hypervolume
// does, but the random front's hypervolume varies from instance to
// instance far more than the box does, so share is the steadier score.
// The random search runs on a copy of the instance with fresh caches, so
// it neither reuses nor disturbs the job's cached metrics.
func quality(spec *service.JobSpec, inst *core.Instance, f *core.Front) (share, ratio float64, ok bool, err error) {
	rs, err := core.RandomSearch(inst.WithPlatform(inst.Platform), hvRandomEvals, spec.Seed)
	if err != nil {
		return 0, 0, false, fmt.Errorf("random-search baseline: %w", err)
	}
	a, b := f.ObjectiveMatrix(), rs.ObjectiveMatrix()
	ref := pareto.ReferencePoint(0.1, a, b)
	ideal := append([]float64(nil), a[0]...)
	for _, p := range append(append([][]float64(nil), a...), b...) {
		for k, v := range p {
			ideal[k] = math.Min(ideal[k], v)
		}
	}
	hv := pareto.Hypervolume(a, ref)
	share = hv / pareto.Hypervolume([][]float64{ideal}, ref)
	if base := pareto.Hypervolume(b, ref); base > 0 {
		ratio, ok = hv/base, true
	}
	return share, ratio, ok, nil
}

// scores collects the front-quality scores of the jobs that feed hv_share.
type scores struct {
	share, ratio []float64
}

func (s *scores) add(spec *service.JobSpec, j *job) error {
	share, ratio, ok, err := quality(spec, j.inst, j.front)
	if err != nil {
		return err
	}
	s.share = append(s.share, share)
	if ok {
		s.ratio = append(s.ratio, ratio)
	}
	return nil
}

// publish records hv_share and, as an extra, the mean hv(front) /
// hv(random front) ratio.
func (s *scores) publish(rep *Report) {
	rep.set("hv_share", mean(s.share), "ratio")
	rep.set("hv_ratio", mean(s.ratio), "ratio")
	rep.Samples["hv_share"] = s.share
}

// frontDigest fingerprints a front's wire form. Wire floats round-trip
// exactly, so a front served by the fleet and the same front computed in
// process digest equally.
func frontDigest(fw *service.FrontWire) string {
	blob, err := json.Marshal(fw)
	if err != nil {
		// A FrontWire holds finite floats and ints only.
		panic("clrbench: marshalling front: " + err.Error())
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}
