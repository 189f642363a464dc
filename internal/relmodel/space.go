package relmodel

import (
	"fmt"
	"slices"

	"repro/internal/faultmodel"
	"repro/internal/platform"
)

// Space is the cross-layer design space of one PE type (§IV): every base
// implementation × DVFS mode × HW × SSW × ASW method × checkpoint policy,
// enumerated in that order with the policy varying fastest.
type Space struct {
	PE      *platform.PEType
	Catalog *Catalog
	// Faults is the fault model of the PE type.
	Faults faultmodel.FaultModel
	// Impls are the base implementations bound to the PE type.
	Impls []Impl
	// Modes are DVFS mode indices of the PE type; HW, SSW and ASW are
	// method indices into the catalog's layers.
	Modes, HW, SSW, ASW []int
	// Policies is the checkpoint-policy axis.
	Policies []faultmodel.CheckpointPolicy
}

// Point locates one candidate of a Space by its position on each axis.
type Point struct {
	Impl, Mode, HW, SSW, ASW, Policy int
}

// validate checks the PE type, the catalog, and every axis value with the
// checks EstimateFM makes of each candidate's inputs (checkInputs). Those
// checks take each value on its own, so one call per position of the
// longest axis, with the shorter axes held at their last value, checks
// every value of every axis. The chain parameters combine values of
// several axes, so Estimate validates them per candidate, as EstimateFM
// does.
func (s *Space) validate() error {
	if err := s.PE.Validate(); err != nil {
		return err
	}
	if err := s.Catalog.Validate(); err != nil {
		return err
	}
	lens := []int{len(s.Impls), len(s.Modes), len(s.HW), len(s.SSW), len(s.ASW), len(s.Policies)}
	if slices.Contains(lens, 0) {
		return nil // no candidates
	}
	at := func(i int, axis []int) int { return axis[min(i, len(axis)-1)] }
	for i := range slices.Max(lens) {
		asg := Assignment{Mode: at(i, s.Modes), HW: at(i, s.HW), SSW: at(i, s.SSW), ASW: at(i, s.ASW)}
		impl := &s.Impls[min(i, len(s.Impls)-1)]
		ck := s.Policies[min(i, len(s.Policies)-1)]
		if err := checkInputs(impl, asg, s.PE, s.Catalog, s.Faults, ck); err != nil {
			return err
		}
	}
	return nil
}

// Estimate calls visit with the closed-form estimate of every candidate,
// in enumeration order: the metrics EstimateFM returns, bit for bit. Each
// invariant is computed once for the axis values it depends on — the
// fault rates and Γ(1+1/β) once, λ once per mode, the execution time
// before the ASW inflation once per (implementation, mode, HW method), and
// power, temperature, η and the aging MTTF once per (implementation, mode,
// HW method, policy) — so a candidate costs only its chain figures. The
// axes are validated first and nothing is visited if one is invalid;
// Estimate then stops at the first candidate whose chain parameters are
// invalid (say, an execution time that underflows to zero) with its error.
// It fails whenever EstimateFM fails on some candidate of the space.
func (s *Space) Estimate(visit func(Point, Metrics)) error {
	if err := s.validate(); err != nil {
		return err
	}
	pt, cat := s.PE, s.Catalog
	ft := newFaultTerms(pt, s.Faults)
	gamma := weibullGamma(pt)
	var lambdaBuf [8]float64
	lambdas := lambdaBuf[:0]
	for _, mode := range s.Modes {
		lambdas = append(lambdas, ft.lambda(pt, mode))
	}
	var thBuf [8]thermal
	ths := thBuf[:0]
	for range s.Policies {
		ths = append(ths, thermal{})
	}
	var at Point
	for at.Impl = 0; at.Impl < len(s.Impls); at.Impl++ {
		impl := &s.Impls[at.Impl]
		for at.Mode = 0; at.Mode < len(s.Modes); at.Mode++ {
			mode := s.Modes[at.Mode]
			freq, lambda := pt.Modes[mode].FreqMHz, lambdas[at.Mode]
			for at.HW = 0; at.HW < len(s.HW); at.HW++ {
				hw := &cat.HW[s.HW[at.HW]]
				execUS, repair := hwExecUS(impl, freq, hw), ft.repair(hw)
				power := hwPowerW(impl, pt, mode, hw)
				for i, ck := range s.Policies {
					ths[i] = newThermal(pt, power, gamma, ck)
				}
				for at.SSW = 0; at.SSW < len(s.SSW); at.SSW++ {
					ssw := &cat.SSW[s.SSW[at.SSW]]
					for at.ASW = 0; at.ASW < len(s.ASW); at.ASW++ {
						asw := &cat.ASW[s.ASW[at.ASW]]
						for at.Policy = 0; at.Policy < len(s.Policies); at.Policy++ {
							p := ft.params(impl, execUS, lambda, repair, hw, ssw, asw, s.Policies[at.Policy])
							if err := p.Validate(); err != nil {
								return fmt.Errorf("relmodel: evaluating %q: %w", impl.Name, err)
							}
							rel := estimateChains(&p)
							visit(at, ths[at.Policy].metrics(&rel))
						}
					}
				}
			}
		}
	}
	return nil
}
