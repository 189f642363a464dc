package relmodel

import "testing"

func TestExtendedCatalogValid(t *testing.T) {
	c := ExtendedCatalog()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.HW) <= len(DefaultCatalog().HW) {
		t.Fatal("extended catalog should add HW methods")
	}
	if len(c.SSW) <= len(DefaultCatalog().SSW) {
		t.Fatal("extended catalog should add SSW methods")
	}
	if len(c.ASW) <= len(DefaultCatalog().ASW) {
		t.Fatal("extended catalog should add ASW methods")
	}
	// The "none" convention must be preserved.
	if c.HW[0].Name != "none" || c.SSW[0].Name != "none" || c.ASW[0].Name != "none" {
		t.Fatal("extended catalog must keep the none methods at index 0")
	}
}

func TestExtendedCatalogDoesNotMutateDefault(t *testing.T) {
	before := len(DefaultCatalog().HW)
	_ = ExtendedCatalog()
	if len(DefaultCatalog().HW) != before {
		t.Fatal("ExtendedCatalog mutated DefaultCatalog's backing data")
	}
}

func TestExtendedMethodsEvaluate(t *testing.T) {
	c := ExtendedCatalog()
	pt := testPEType()
	im := testImpl()
	for hw := range c.HW {
		for ssw := range c.SSW {
			for asw := range c.ASW {
				asg := Assignment{HW: hw, SSW: ssw, ASW: asw}
				m, err := Evaluate(im, asg, pt, c)
				if err != nil {
					t.Fatalf("HW=%s SSW=%s ASW=%s: %v",
						c.HW[hw].Name, c.SSW[ssw].Name, c.ASW[asw].Name, err)
				}
				if m.ErrProb < 0 || m.ErrProb > 1 || m.AvgExTimeUS <= 0 {
					t.Fatalf("implausible metrics for %s/%s/%s: %+v",
						c.HW[hw].Name, c.SSW[ssw].Name, c.ASW[asw].Name, m)
				}
			}
		}
	}
}

func TestOverCheckpointingAdverseEffect(t *testing.T) {
	// chkpt-8 must have a higher error-free time than chkpt-2 (the adverse
	// effect of ref. [16]); at moderate fault rates it should also lose on
	// average time.
	c := ExtendedCatalog()
	pt := testPEType()
	im := testImpl()
	idx := func(name string) int {
		for i, m := range c.SSW {
			if m.Name == name {
				return i
			}
		}
		t.Fatalf("method %q missing", name)
		return -1
	}
	two, err := Evaluate(im, Assignment{SSW: idx("chkpt-2")}, pt, c)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := Evaluate(im, Assignment{SSW: idx("chkpt-8")}, pt, c)
	if err != nil {
		t.Fatal(err)
	}
	if !(eight.MinExTimeUS > two.MinExTimeUS) {
		t.Fatal("chkpt-8 should cost more error-free time than chkpt-2")
	}
	if !(eight.AvgExTimeUS > two.AvgExTimeUS) {
		t.Fatal("at this fault rate, over-checkpointing should hurt average time")
	}
}

func TestLockstepTMRStrongestHWMasking(t *testing.T) {
	c := ExtendedCatalog()
	var lockstep HWMethod
	for _, m := range c.HW {
		if m.Name == "lockstep-TMR" {
			lockstep = m
		}
	}
	for _, m := range c.HW {
		if m.Masking > lockstep.Masking {
			t.Fatalf("%s masks more than lockstep TMR", m.Name)
		}
	}
}

func TestEffectiveFootprint(t *testing.T) {
	cat := DefaultCatalog()
	im := testImpl()
	im.FootprintKB = 100

	// No redundancy: footprint unchanged.
	if got := EffectiveFootprintKB(im, Assignment{}, cat); got != 100 {
		t.Fatalf("plain footprint %v, want 100", got)
	}
	// Code tripling inflates by its memory factor.
	trip := EffectiveFootprintKB(im, Assignment{ASW: 3}, cat)
	if trip != 100*cat.ASW[3].MemFactor {
		t.Fatalf("tripled footprint %v", trip)
	}
	// Checkpointing adds storage per checkpoint.
	chk := EffectiveFootprintKB(im, Assignment{SSW: 2}, cat)
	want := 100 + float64(cat.SSW[2].Checkpoints)*cat.SSW[2].CheckpointMemFrac*100
	if chk != want {
		t.Fatalf("checkpointed footprint %v, want %v", chk, want)
	}
	// Combined effects stack.
	both := EffectiveFootprintKB(im, Assignment{SSW: 2, ASW: 3}, cat)
	if both <= trip || both <= chk {
		t.Fatal("combined footprint should exceed both single effects")
	}
	// Zero MemFactor means "default 1".
	gen := ASWMethod{Name: "no-mem-factor", Masking: 0.5, TimeFactor: 1.3}
	cat2 := DefaultCatalog()
	cat2.ASW = append(cat2.ASW, gen)
	if got := EffectiveFootprintKB(im, Assignment{ASW: 4}, cat2); got != 100 {
		t.Fatalf("zero MemFactor footprint %v, want 100", got)
	}
}
