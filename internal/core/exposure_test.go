package core

import (
	"strings"
	"testing"

	"repro/internal/characterize"
	"repro/internal/faultmodel"
	"repro/internal/platform"
	"repro/internal/relmodel"
	"repro/internal/tdse"
)

// exposureInstances covers both platform families and every built-in
// catalog.
func exposureInstances() map[string]*Instance {
	fpga := platform.FPGA()
	fpgaSyn := synInstance(12, 5)
	fpgaSyn.Platform = fpga
	fpgaSyn.Lib = characterize.Synthetic(fpga, characterize.DefaultSyntheticConfig(10), 6)
	fpgaSyn.Catalog = relmodel.FPGACatalog()
	extended := synInstance(12, 7)
	extended.Catalog = relmodel.ExtendedCatalog()
	return map[string]*Instance{
		"sobel":          sobelInstance(),
		"synthetic":      synInstance(12, 3),
		"extended":       extended,
		"fpga-synthetic": fpgaSyn,
	}
}

// maxHitsExhaustive is the oracle of checkPermanentExposure: the largest
// expected permanent-hit count over every implementation and every
// assignment, not just the slowest one.
func maxHitsExhaustive(t *testing.T, in *Instance) float64 {
	t.Helper()
	worst := 0.0
	cat := in.Catalog
	for tt := 0; tt < in.Lib.NumTypes(); tt++ {
		for _, impl := range in.Lib.ImplsShared(tt) {
			pt := in.Platform.Types()[impl.PETypeIndex]
			for m := range pt.Modes {
				for hw := range cat.HW {
					for ssw := range cat.SSW {
						for asw := range cat.ASW {
							asg := relmodel.Assignment{Mode: m, HW: hw, SSW: ssw, ASW: asw}
							p, err := relmodel.ChainParamsFor(impl, asg, pt, cat, in.Faults.For(pt.Name), faultmodel.CheckpointPolicy{})
							if err != nil {
								t.Fatal(err)
							}
							worst = max(worst, p.PermPerUS*p.ExecTimeUS)
						}
					}
				}
			}
		}
	}
	return worst
}

// boundaryRate returns the permanent rate (per hour) at which the oracle's
// worst exposure reaches MaxPermanentHits, by bisection.
func boundaryRate(t *testing.T, in *Instance) float64 {
	t.Helper()
	hitsAt := func(rate float64) float64 {
		probe := *in
		probe.Faults = &faultmodel.Model{Default: faultmodel.FaultModel{PermanentPerHour: rate}}
		return maxHitsExhaustive(t, &probe)
	}
	lo, hi := 0.0, 1.0
	for hitsAt(hi) <= MaxPermanentHits {
		hi *= 10
	}
	if hitsAt(lo) > MaxPermanentHits {
		t.Fatal("instance exceeds the bound without any permanent rate")
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if hitsAt(mid) <= MaxPermanentHits {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestPermanentExposureMatchesExhaustive checks Instance.Validate's
// slowest-assignment shortcut against the exhaustive oracle on both sides
// of the bound, with repair_prob 1 (the setting that makes saturated
// chains singular).
func TestPermanentExposureMatchesExhaustive(t *testing.T) {
	for name, inst := range exposureInstances() {
		t.Run(name, func(t *testing.T) {
			if err := inst.Validate(); err != nil {
				t.Fatalf("fault-free instance rejected: %v", err)
			}
			rate := boundaryRate(t, inst)
			for _, c := range []struct {
				scale float64
				ok    bool
			}{{1 - 1e-9, true}, {1 + 1e-9, false}, {1e-3, true}, {1e3, false}} {
				in := *inst
				in.Faults = &faultmodel.Model{Default: faultmodel.FaultModel{PermanentPerHour: rate * c.scale, RepairProb: 1}}
				want := maxHitsExhaustive(t, &in) <= MaxPermanentHits
				if want != c.ok {
					t.Fatalf("oracle at %g× the boundary rate: within bound %v, want %v", c.scale, want, c.ok)
				}
				err := in.Validate()
				if (err == nil) != want {
					t.Fatalf("%g× the boundary rate: Validate error %v, oracle within bound %v", c.scale, err, want)
				}
				if err != nil && !strings.Contains(err.Error(), "permanent-fault hits") {
					t.Fatalf("unexpected rejection: %v", err)
				}
			}
		})
	}
}

// TestPermanentExposureBoundKeepsChainsAnalyzable is the bound's purpose:
// just inside it, with repair_prob 1 and the widest checkpoint axis, the
// whole tDSE enumeration and an fcCLR run evaluate every chain; far
// outside it, the same enumeration fails on a singular chain.
func TestPermanentExposureBoundKeepsChainsAnalyzable(t *testing.T) {
	insts := exposureInstances()
	for _, name := range []string{"sobel", "fpga-synthetic"} {
		inst := insts[name]
		t.Run(name, func(t *testing.T) {
			in := *inst
			in.Faults = &faultmodel.Model{Default: faultmodel.FaultModel{
				PermanentPerHour: boundaryRate(t, inst) * (1 - 1e-9), RepairProb: 1, RepairTimeUS: 100,
			}}
			if err := in.Validate(); err != nil {
				t.Fatal(err)
			}
			opt := tdse.DefaultOptions()
			opt.Faults = in.Faults
			opt.Checkpoints = tdse.CheckpointAxis([]int{1, 16})
			if _, err := tdse.Build(in.Lib, in.Platform, in.Catalog, opt, tdse.StudyObjectiveSets()[2]); err != nil {
				t.Fatalf("tdse.Build inside the bound: %v", err)
			}
			if _, err := FcCLR(&in, RunConfig{Pop: 8, Gens: 2, Seed: 1}); err != nil {
				t.Fatalf("fcCLR inside the bound: %v", err)
			}

			out := *inst
			out.Faults = &faultmodel.Model{Default: faultmodel.FaultModel{PermanentPerHour: 1e11, RepairProb: 1}}
			if err := out.Validate(); err == nil {
				t.Fatal("Validate accepted a saturating permanent rate")
			}
			opt.Faults = out.Faults
			if _, err := tdse.Build(out.Lib, out.Platform, out.Catalog, opt, tdse.StudyObjectiveSets()[0]); err == nil ||
				!strings.Contains(err.Error(), "not absorbing") {
				t.Fatalf("tdse.Build outside the bound: err %v, want a singular chain", err)
			}
		})
	}
}

// TestRollbackLoopsEscape pins the catalog half of MaxPermanentHits'
// argument: under every built-in catalog and checkpoint mode, a detected
// error rolls back (CovDet·MTol) with probability at most 0.9992·0.9998,
// so every rollback loop is left with probability ≥ 1e-3.
func TestRollbackLoopsEscape(t *testing.T) {
	p := platform.Default()
	pt := p.Types()[0]
	impl := characterize.Sobel(p).ImplsShared(0)[0]
	policies := []faultmodel.CheckpointPolicy{
		{},
		{Mode: faultmodel.CkptLocal, Interval: 1},
		{Mode: faultmodel.CkptTMR, Interval: 1},
	}
	limit := faultmodel.Combine(0.92, 0.99) * faultmodel.Combine(0.98, 0.99)
	for name, cat := range map[string]*relmodel.Catalog{
		"default": relmodel.DefaultCatalog(), "extended": relmodel.ExtendedCatalog(), "fpga": relmodel.FPGACatalog(),
	} {
		for ssw := range cat.SSW {
			for _, ck := range policies {
				params, err := relmodel.ChainParamsFor(impl, relmodel.Assignment{SSW: ssw}, pt, cat, faultmodel.FaultModel{}, ck)
				if err != nil {
					t.Fatal(err)
				}
				if loop := params.CovDet * params.MTol; loop > limit {
					t.Errorf("%s catalog, SSW %q, policy %+v: rollback probability %v above %v",
						name, cat.SSW[ssw].Name, ck, loop, limit)
				}
			}
		}
	}
}
