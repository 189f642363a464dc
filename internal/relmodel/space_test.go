package relmodel

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/faultmodel"
)

// TestSpaceEstimateRejectsInvalidAxes: Estimate validates every axis value
// before it estimates anything, so a space with one invalid value fails
// without visiting a candidate, whichever candidate that value belongs to.
func TestSpaceEstimateRejectsInvalidAxes(t *testing.T) {
	valid := func() Space {
		return Space{
			PE: testPEType(), Catalog: DefaultCatalog(), Impls: []Impl{testImpl(), testImpl()},
			Modes: []int{0, 1}, HW: []int{0, 1}, SSW: []int{0, 2}, ASW: []int{0, 3},
			Policies: []faultmodel.CheckpointPolicy{{}, {Mode: faultmodel.CkptTMR, Interval: 2}},
		}
	}
	visits := 0
	count := func(Point, Metrics) { visits++ }
	if s := valid(); s.Estimate(count) != nil || visits != 2*2*2*2*2*2 {
		t.Fatalf("valid space: %d visits", visits)
	}
	pt := *testPEType()
	pt.ThermalResistance = 0
	for name, breakIt := range map[string]func(*Space){
		"PE type":     func(s *Space) { s.PE = &pt },
		"catalog":     func(s *Space) { s.Catalog.SSW[0].DetectionCoverage = 2 },
		"fault model": func(s *Space) { s.Faults.RepairProb = 0.5 },
		"impl":        func(s *Space) { s.Impls[1].Cycles = 0 },
		"mode":        func(s *Space) { s.Modes[1] = -1 },
		"HW index":    func(s *Space) { s.HW[1] = len(s.Catalog.HW) },
		"SSW index":   func(s *Space) { s.SSW[1] = len(s.Catalog.SSW) },
		"ASW index":   func(s *Space) { s.ASW[0] = -1 },
		"policy":      func(s *Space) { s.Policies[1].Interval = 17 },
	} {
		s := valid()
		breakIt(&s)
		visits = 0
		if err := s.Estimate(count); err == nil || visits != 0 {
			t.Errorf("invalid %s: error %v after %d visits", name, err, visits)
		}
	}
}

// TestSpaceEstimateFailsWheneverEstimateFMFails sets, one at a time, every
// numeric and boolean field of a space's inputs — the PE type and its
// modes, the catalog's methods, the implementations, the fault model, the
// policies and the index axes — to each of a set of edge values. Estimate
// must fail whenever EstimateFM fails on some candidate of the space, and
// where it succeeds it must visit EstimateFM's metrics bit for bit. Space
// validates each axis value once instead of each candidate's inputs, so a
// check added to the per-candidate path that the space's validation does
// not make fails here.
func TestSpaceEstimateFailsWheneverEstimateFMFails(t *testing.T) {
	fresh := func() *Space {
		pt := *testPEType()
		pt.Modes = slices.Clone(pt.Modes)
		cat := DefaultCatalog()
		return &Space{
			PE: &pt, Catalog: cat, Impls: []Impl{testImpl(), testImpl()},
			Faults: faultmodel.FaultModel{TransientScale: 2, IntermittentPerSec: 50, IntermittentBurst: 2,
				PermanentPerHour: 5, RepairProb: 0.5, RepairTimeUS: 100},
			Modes: []int{0, len(pt.Modes) - 1}, HW: []int{0, len(cat.HW) - 1},
			SSW: []int{0, len(cat.SSW) - 1}, ASW: []int{0, len(cat.ASW) - 1},
			Policies: []faultmodel.CheckpointPolicy{{}, {Mode: faultmodel.CkptTMR, Interval: 2}},
		}
	}
	// fields calls set on every numeric or boolean field reachable from s's
	// inputs, in a fixed order.
	fields := func(s *Space, set func(path string, v reflect.Value)) {
		var walk func(path string, v reflect.Value)
		walk = func(path string, v reflect.Value) {
			switch v.Kind() {
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					walk(path+"."+v.Type().Field(i).Name, v.Field(i))
				}
			case reflect.Slice:
				for i := 0; i < v.Len(); i++ {
					walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
				}
			case reflect.Float64, reflect.Int, reflect.Bool:
				set(path, v)
			}
		}
		walk("PE", reflect.ValueOf(s.PE).Elem())
		walk("Catalog", reflect.ValueOf(s.Catalog).Elem())
		for _, name := range []string{"Impls", "Faults", "Modes", "HW", "SSW", "ASW", "Policies"} {
			walk(name, reflect.ValueOf(s).Elem().FieldByName(name))
		}
	}
	floats := []float64{-1, 0, 0.5, 1, 2, 1e9, math.NaN(), math.Inf(1), math.Inf(-1)}
	ints := []int64{-1, 0, 1, 3, 17, 100}
	n := 0
	fields(fresh(), func(string, reflect.Value) { n++ })

	var cases, fmFails, bothOK int
	for k := 0; k < n; k++ {
		for e := 0; ; e++ {
			s := fresh()
			var path string
			var done bool
			j := 0
			fields(s, func(p string, v reflect.Value) {
				if j++; j-1 != k {
					return
				}
				path = p
				switch v.Kind() {
				case reflect.Float64:
					done = e >= len(floats)
					if !done {
						v.SetFloat(floats[e])
					}
				case reflect.Int:
					done = e >= len(ints)
					if !done {
						v.SetInt(ints[e])
					}
				case reflect.Bool:
					done = e >= 1
					v.SetBool(!v.Bool())
				}
			})
			if done {
				break
			}
			cases++
			var want []Metrics
			var fmErr error
			for at := (Point{}); fmErr == nil && at.Impl < len(s.Impls); at.Impl++ {
				for at.Mode = 0; at.Mode < len(s.Modes); at.Mode++ {
					for at.HW = 0; at.HW < len(s.HW); at.HW++ {
						for at.SSW = 0; at.SSW < len(s.SSW); at.SSW++ {
							for at.ASW = 0; at.ASW < len(s.ASW); at.ASW++ {
								for at.Policy = 0; at.Policy < len(s.Policies); at.Policy++ {
									asg := Assignment{Mode: s.Modes[at.Mode], HW: s.HW[at.HW], SSW: s.SSW[at.SSW], ASW: s.ASW[at.ASW]}
									m, err := EstimateFM(s.Impls[at.Impl], asg, s.PE, s.Catalog, s.Faults, s.Policies[at.Policy])
									if err != nil && fmErr == nil {
										fmErr = err
									}
									want = append(want, m)
								}
							}
						}
					}
				}
			}
			var got []Metrics
			err := s.Estimate(func(_ Point, m Metrics) { got = append(got, m) })
			switch {
			case fmErr != nil:
				fmFails++
				if err == nil {
					t.Errorf("%s (value %d): EstimateFM fails (%v) but Space.Estimate does not", path, e, fmErr)
				}
			case err == nil:
				bothOK++
				if len(got) != len(want) {
					t.Fatalf("%s (value %d): %d visits, want %d", path, e, len(got), len(want))
				}
				for i := range got {
					if !sameMetricBits(got[i], want[i]) {
						t.Fatalf("%s (value %d): candidate %d: Estimate %+v, EstimateFM %+v", path, e, i, got[i], want[i])
					}
				}
			}
		}
	}
	t.Logf("%d fields, %d cases: EstimateFM failed in %d, both succeeded in %d", n, cases, fmFails, bothOK)
	if fmFails == 0 || bothOK == 0 {
		t.Fatal("the edge values must both break and keep valid some inputs")
	}
}

// sameMetricBits compares every metric bit for bit, any NaN equal to any.
func sameMetricBits(a, b Metrics) bool {
	x, y := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < x.NumField(); i++ {
		p, q := x.Field(i).Float(), y.Field(i).Float()
		if math.Float64bits(p) != math.Float64bits(q) && !(math.IsNaN(p) && math.IsNaN(q)) {
			return false
		}
	}
	return true
}
